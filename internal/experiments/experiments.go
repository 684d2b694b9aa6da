// Package experiments regenerates every table and figure of the paper's
// evaluation (§8): the Figure 1 parameter table, the analytical Figure 5
// curves, the simulated Figure 6 curves, and the ablations the design
// calls out (E8: admission policy; E9: staggered-group buffering; E10:
// failure continuity, on the byte-level server). Each experiment is a typed sweep, one column list
// beside its point type that renders both the text table and the CSV,
// and one entry in Registry (registry.go), which is all cmd/cmsim and
// cmd/cmopt know of it.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"ftcms/internal/analytic"
	"ftcms/internal/diskmodel"
	"ftcms/internal/parallel"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/trace"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// GroupSizes is the paper's parity-group-size grid.
var GroupSizes = []int{2, 4, 8, 16, 32}

// BufferSizes are the two server configurations of §8.
var BufferSizes = []units.Bits{256 * units.MB, 2 * units.GB}

// PaperCatalog returns the §8.2 clip library: 1000 clips of 50 time units
// at MPEG-1 rate.
func PaperCatalog() *workload.Catalog {
	c, err := workload.UniformCatalog(1000, 50*units.Second, 1.5*units.Mbps)
	if err != nil {
		panic(err) // fixed arguments; cannot fail
	}
	return c
}

// PaperAnalyticConfig returns the §8.1 sizing problem for a buffer size.
func PaperAnalyticConfig(buffer units.Bits) analytic.Config {
	return analytic.Config{
		Disk:    diskmodel.Default(),
		D:       32,
		Buffer:  buffer,
		Storage: PaperCatalog().TotalSize(),
	}
}

// Figure5Point is one (scheme, p) operating point of the analytic study.
type Figure5Point struct {
	Scheme scheme.Scheme
	P      int
	// Clips is the number of concurrently serviceable clips (the Figure 5
	// y-axis).
	Clips int
	// Q, F and Block echo the solved operating point.
	Q, F  int
	Block units.Bits
}

// Figure5Columns pivots scheme × p on clips in the text table; the CSV
// carries the solved operating point too.
var Figure5Columns = []trace.Column[Figure5Point]{
	trace.Col("scheme", "scheme", func(pt Figure5Point) any { return pt.Scheme.Legend() }),
	trace.Col("p", "p", func(pt Figure5Point) any { return pt.P }),
	trace.Col("clips", "clips", func(pt Figure5Point) any { return pt.Clips }),
	trace.Col("q", "", func(pt Figure5Point) any { return pt.Q }),
	trace.Col("f", "", func(pt Figure5Point) any { return pt.F }),
	trace.Col("block_bits", "", func(pt Figure5Point) any { return int64(pt.Block) }),
}

// Figure5 computes the full Figure 5 panel for one buffer size (E4/E5):
// one closed-form solve per scheme × p, in that order.
func Figure5(buffer units.Bits) ([]Figure5Point, error) {
	cfg := PaperAnalyticConfig(buffer)
	var out []Figure5Point
	for _, s := range scheme.Paper() {
		for _, p := range GroupSizes {
			res, err := analytic.Solve(cfg, s, p)
			if err != nil {
				return nil, fmt.Errorf("experiments: %v p=%d: %w", s, p, err)
			}
			out = append(out, Figure5Point{
				Scheme: s, P: p, Clips: res.Clips, Q: res.Q, F: res.F, Block: res.Block,
			})
		}
	}
	return out, nil
}

// Figure6Point is one (scheme, p) result of the simulation study.
type Figure6Point struct {
	Scheme scheme.Scheme
	P      int
	// Serviced is the clips serviced in 600 time units (the Figure 6
	// y-axis).
	Serviced int
	// MeanResponse is the mean arrival→admission latency.
	MeanResponse units.Duration
	// PeakActive is the concurrency high-water mark.
	PeakActive int
}

// Figure6Columns pivots scheme × p on serviced in the text table.
var Figure6Columns = []trace.Column[Figure6Point]{
	trace.Col("scheme", "scheme", func(pt Figure6Point) any { return pt.Scheme.Legend() }),
	trace.Col("p", "p", func(pt Figure6Point) any { return pt.P }),
	trace.Col("serviced", "serviced", func(pt Figure6Point) any { return pt.Serviced }),
	trace.Col("peak_active", "", func(pt Figure6Point) any { return pt.PeakActive }),
	trace.Seconds("mean_response_s", "", func(pt Figure6Point) units.Duration { return pt.MeanResponse }),
}

// figure6Duration is the paper's Figure 6 run length, 600 time units.
const figure6Duration = 600 * units.Second

// Figure6 runs the full simulated panel for one buffer size (E6/E7),
// fanning the scheme×p grid out over the pool. Every (scheme, p) run is
// an independent simulation with its own seeded RNG, so the panel is
// bit-identical at any GOMAXPROCS. The paper's panels use seed 1.
func Figure6(buffer units.Bits, seed int64) ([]Figure6Point, error) {
	cat := PaperCatalog()
	schemes := scheme.Paper()
	return parallel.Map(len(schemes)*len(GroupSizes), func(k int) (Figure6Point, error) {
		s := schemes[k/len(GroupSizes)]
		p := GroupSizes[k%len(GroupSizes)]
		res, err := sim.Run(sim.Config{
			Scheme:      s,
			Disk:        diskmodel.Default(),
			D:           32,
			P:           p,
			Buffer:      buffer,
			Catalog:     cat,
			ArrivalRate: 20,
			Duration:    figure6Duration,
			Seed:        seed,
		})
		if err != nil {
			return Figure6Point{}, fmt.Errorf("experiments: %v p=%d: %w", s, p, err)
		}
		return Figure6Point{
			Scheme: s, P: p, Serviced: res.Serviced,
			MeanResponse: res.MeanResponse, PeakActive: res.PeakActive,
		}, nil
	})
}

// figure1 prints the disk parameter table (E1).
func figure1(w io.Writer, _ Params) error {
	p := diskmodel.Default()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 1 — disk parameters")
	fmt.Fprintf(tw, "Inner track transfer rate\tr_d\t%v\n", p.TransferRate)
	fmt.Fprintf(tw, "Settle time\tt_settle\t%v\n", p.Settle)
	fmt.Fprintf(tw, "Seek latency (worst-case)\tt_seek\t%v\n", p.Seek)
	fmt.Fprintf(tw, "Rotational latency (worst-case)\tt_rot\t%v\n", p.Rotation)
	fmt.Fprintf(tw, "Total latency (worst-case)\tt_lat\t%v\n", p.TotalLatency())
	fmt.Fprintf(tw, "Disk capacity\tC_d\t%v\n", p.Capacity)
	fmt.Fprintf(tw, "Playback rate\tr_p\t%v\n", p.PlaybackRate)
	return tw.Flush()
}

// optimal prints each scheme's best operating point on p.D disks: the
// Figure 4 computeOptimal procedure and its per-scheme variants.
func optimal(w io.Writer, p Params) error {
	cfg := PaperAnalyticConfig(p.Buffer)
	cfg.D = p.D
	fmt.Fprintf(w, "computeOptimal — d=%d, B=%v\n", p.D, p.Buffer)
	for _, s := range scheme.Paper() {
		res, err := analytic.Optimize(cfg, s)
		if err != nil {
			fmt.Fprintf(w, "  %-36s infeasible: %v\n", s.Legend(), err)
			continue
		}
		fmt.Fprintf(w, "  %-36s p=%-3d b=%-9v q=%-3d f=%-3d -> %d clips\n",
			s.Legend(), res.P, res.Block, res.Q, res.F, res.Clips)
	}
	return nil
}
