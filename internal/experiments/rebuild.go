package experiments

import (
	"fmt"

	"ftcms/internal/analytic"
	"ftcms/internal/diskmodel"
	"ftcms/internal/parallel"
	"ftcms/internal/reliability"
	"ftcms/internal/scheme"
	"ftcms/internal/trace"
	"ftcms/internal/units"
)

// RebuildPoint quantifies the declustering trade-off (E11): how long
// rebuilding a replaced 2 GB disk takes at each operating point, and the
// resulting mean time to data loss. The declustered layouts spread the
// rebuild reads over all d−1 survivors; the clustered ones confine them
// to the failed disk's p−1 cluster mates.
type RebuildPoint struct {
	Scheme scheme.Scheme
	P      int
	// Rebuild is the estimated rebuild duration.
	Rebuild units.Duration
	// MTTDL is the mean time to data loss in hours, using the paper's
	// 300,000-hour disk MTTF and the rebuild time as the repair window
	// (floored at one hour: operator handling dominates tiny windows).
	MTTDL reliability.Hours
}

// RebuildAblation computes E11 for one buffer size. Every scheme rebuilds
// with one spare block-read per contributing disk per round on top of its
// reserved contingency (the f of the declustered/flat operating points;
// 1 for the schemes that reserve none).
func RebuildAblation(buffer units.Bits) ([]RebuildPoint, error) {
	cfg := PaperAnalyticConfig(buffer)
	var out []RebuildPoint
	for _, s := range scheme.Paper() {
		for _, p := range GroupSizes {
			op, err := analytic.Solve(cfg, s, p)
			if err != nil {
				return nil, err
			}
			blocks := int64(cfg.Disk.Capacity / op.Block)
			f := max(op.F, 1)
			// Contribution spread: the cluster when parity groups stay in
			// one, all d disks' survivors otherwise.
			spread := cfg.D
			if s.Clustered() {
				spread = p
			}
			rt, err := reliability.RebuildTime(blocks, p, s.ParityCols(), spread, f, cfg.Disk.RoundDuration(op.Block))
			if err != nil {
				return nil, err
			}
			hours := max(reliability.Hours(rt.Seconds()/3600), 1)
			crit, err := reliability.CriticalDisks(cfg.D, spread)
			if err != nil {
				return nil, err
			}
			mttdl, err := reliability.MTTDL(reliability.PaperDiskMTTF, cfg.D, crit, hours)
			if err != nil {
				return nil, err
			}
			out = append(out, RebuildPoint{Scheme: s, P: p, Rebuild: rt, MTTDL: mttdl})
		}
	}
	return out, nil
}

// RebuildColumns is E11's table: the CSV keeps millisecond and six-digit
// precision, the text table rounds for reading.
var RebuildColumns = []trace.Column[RebuildPoint]{
	trace.Col("scheme", "scheme", func(pt RebuildPoint) any { return pt.Scheme.Legend() }),
	trace.Col("p", "p", func(pt RebuildPoint) any { return pt.P }),
	{CSV: "rebuild_s", Title: "rebuild",
		Value: func(pt RebuildPoint) any { return fmt.Sprintf("%.3f", pt.Rebuild.Seconds()) },
		Text:  func(pt RebuildPoint) any { return pt.Rebuild }},
	{CSV: "mttdl_hours", Title: "MTTDL (hours)",
		Value: func(pt RebuildPoint) any { return fmt.Sprintf("%.6g", float64(pt.MTTDL)) },
		Text:  func(pt RebuildPoint) any { return fmt.Sprintf("%.3g", float64(pt.MTTDL)) }},
}

// ConservatismPoint quantifies Equation 1's worst-case margin (E13): the
// ratio of the admission budget to the measured expected round time at
// each scheme's optimal operating point.
type ConservatismPoint struct {
	Scheme scheme.Scheme
	P      int
	Q      int
	Ratio  float64
}

// ConservatismAblation measures E13 for one buffer size.
func ConservatismAblation(buffer units.Bits, trials int, seed int64) ([]ConservatismPoint, error) {
	cfg := PaperAnalyticConfig(buffer)
	model := diskmodel.DefaultSeekModel()
	type gridCase struct {
		s scheme.Scheme
		p int
	}
	var grid []gridCase
	for _, s := range scheme.Paper() {
		if s.GroupFetch() {
			continue // whole-group rounds: Equation 1 does not apply
		}
		for _, p := range GroupSizes {
			grid = append(grid, gridCase{s, p})
		}
	}
	return parallel.Map(len(grid), func(k int) (ConservatismPoint, error) {
		s, p := grid[k].s, grid[k].p
		op, err := analytic.Solve(cfg, s, p)
		if err != nil {
			return ConservatismPoint{}, err
		}
		ratio, err := cfg.Disk.Equation1Conservatism(model, op.Q, op.Block, trials, seed)
		if err != nil {
			return ConservatismPoint{}, err
		}
		return ConservatismPoint{Scheme: s, P: p, Q: op.Q, Ratio: ratio}, nil
	})
}

// ConservatismColumns is E13's table; the CSV carries the unrounded ratio.
var ConservatismColumns = []trace.Column[ConservatismPoint]{
	trace.Col("scheme", "scheme", func(pt ConservatismPoint) any { return pt.Scheme.Legend() }),
	trace.Col("p", "p", func(pt ConservatismPoint) any { return pt.P }),
	trace.Col("q", "q", func(pt ConservatismPoint) any { return pt.Q }),
	{CSV: "budget_over_measured", Title: "budget / measured",
		Value: func(pt ConservatismPoint) any { return pt.Ratio },
		Text:  func(pt ConservatismPoint) any { return fmt.Sprintf("%.2f", pt.Ratio) }},
}
