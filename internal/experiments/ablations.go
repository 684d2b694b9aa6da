package experiments

import (
	"ftcms/internal/analytic"
	"ftcms/internal/diskmodel"
	"ftcms/internal/parallel"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/trace"
	"ftcms/internal/units"
)

// AdmissionAblationPoint compares admission policies for the declustered
// scheme at one p (E8): static-f versus §5 dynamic reservation, and the
// bounded-bypass pending list versus strict head-of-line FIFO.
type AdmissionAblationPoint struct {
	P                 int
	StaticServiced    int
	DynamicServiced   int
	StaticResponse    units.Duration
	DynamicResponse   units.Duration
	StrictServiced    int // static controller, strict FIFO
	StrictMaxQueue    int
	BypassMaxQueue    int
	StrictResponse    units.Duration
	DynamicWorstQLoad int
}

// AdmissionAblation runs E8 for one buffer size, one parallel worker per
// parity group size (each point runs its three policy variants in
// sequence on one worker).
func AdmissionAblation(buffer units.Bits, seed int64) ([]AdmissionAblationPoint, error) {
	cat := PaperCatalog()
	base := sim.Config{
		Disk: diskmodel.Default(), D: 32, Buffer: buffer, Catalog: cat,
		ArrivalRate: 20, Duration: 600 * units.Second, Seed: seed,
		Scheme: scheme.Declustered,
	}
	return parallel.Map(len(GroupSizes), func(k int) (AdmissionAblationPoint, error) {
		pt := AdmissionAblationPoint{P: GroupSizes[k]}
		cfg := base
		cfg.P = GroupSizes[k]
		res, err := sim.Run(cfg)
		if err != nil {
			return pt, err
		}
		pt.StaticServiced, pt.StaticResponse, pt.BypassMaxQueue = res.Serviced, res.MeanResponse, res.MaxQueue

		dyn := cfg
		dyn.Scheme = scheme.DeclusteredDynamic
		res, err = sim.Run(dyn)
		if err != nil {
			return pt, err
		}
		pt.DynamicServiced, pt.DynamicResponse = res.Serviced, res.MeanResponse

		cfg.QueueBypass = -1
		res, err = sim.Run(cfg)
		if err != nil {
			return pt, err
		}
		pt.StrictServiced, pt.StrictResponse, pt.StrictMaxQueue = res.Serviced, res.MeanResponse, res.MaxQueue
		return pt, nil
	})
}

// AdmissionColumns is E8's table; the responses are seconds in the CSV.
var AdmissionColumns = []trace.Column[AdmissionAblationPoint]{
	trace.Col("p", "p", func(pt AdmissionAblationPoint) any { return pt.P }),
	trace.Col("static_serviced", "static-f", func(pt AdmissionAblationPoint) any { return pt.StaticServiced }),
	trace.Col("dynamic_serviced", "dynamic(§5)", func(pt AdmissionAblationPoint) any { return pt.DynamicServiced }),
	trace.Col("strict_serviced", "strict-FIFO", func(pt AdmissionAblationPoint) any { return pt.StrictServiced }),
	trace.Seconds("static_response_s", "resp static", func(pt AdmissionAblationPoint) units.Duration { return pt.StaticResponse }),
	trace.Seconds("dynamic_response_s", "resp dynamic", func(pt AdmissionAblationPoint) units.Duration { return pt.DynamicResponse }),
	trace.Seconds("strict_response_s", "resp strict", func(pt AdmissionAblationPoint) units.Duration { return pt.StrictResponse }),
}

// StaggeredAblationPoint compares prefetch buffering with and without the
// staggered-group optimization of [BGM95] (E9): per-clip buffer p·b versus
// p·b/2, which halves the clips a given buffer supports.
type StaggeredAblationPoint struct {
	P              int
	StaggeredClips int // p·b/2 per clip, as the paper assumes in §7.2
	PlainClips     int // p·b per clip, no staggering
	StaggeredBlock units.Bits
	PlainBlock     units.Bits
}

// StaggeredAblation computes E9 analytically for the flat prefetch
// scheme.
func StaggeredAblation(buffer units.Bits) ([]StaggeredAblationPoint, error) {
	cfg := PaperAnalyticConfig(buffer)
	var out []StaggeredAblationPoint
	for _, p := range GroupSizes {
		stag, err := analytic.Solve(cfg, scheme.PrefetchFlat, p)
		if err != nil {
			return nil, err
		}
		// Plain prefetching doubles the per-clip buffer, which is
		// equivalent to halving B in the staggered formulas.
		half := cfg
		half.Buffer = cfg.Buffer / 2
		plain, err := analytic.Solve(half, scheme.PrefetchFlat, p)
		if err != nil {
			return nil, err
		}
		out = append(out, StaggeredAblationPoint{
			P: p, StaggeredClips: stag.Clips, PlainClips: plain.Clips,
			StaggeredBlock: stag.Block, PlainBlock: plain.Block,
		})
	}
	return out, nil
}

// StaggeredColumns is E9's table.
var StaggeredColumns = []trace.Column[StaggeredAblationPoint]{
	trace.Col("p", "p", func(pt StaggeredAblationPoint) any { return pt.P }),
	trace.Col("staggered_clips", "clips (staggered, p·b/2)", func(pt StaggeredAblationPoint) any { return pt.StaggeredClips }),
	trace.Col("plain_clips", "clips (plain, p·b)", func(pt StaggeredAblationPoint) any { return pt.PlainClips }),
}

// ContinuityPoint summarizes a failure-injection run (E10).
type ContinuityPoint struct {
	Scheme         scheme.Scheme
	P              int
	Serviced       int
	DeadlineMisses int64
	LostBlocks     int64
}

// FailureContinuity runs E10: every scheme with a disk failing mid-run.
// The rate-guaranteeing schemes report zero misses and losses; the
// non-clustered baseline does not.
func FailureContinuity(buffer units.Bits, seed int64) ([]ContinuityPoint, error) {
	cat := PaperCatalog()
	cases := []struct {
		s scheme.Scheme
		p int
	}{
		{scheme.Declustered, 2},
		{scheme.Declustered, 32},
		{scheme.PrefetchFlat, 2},
		{scheme.PrefetchParityDisk, 8},
		{scheme.StreamingRAID, 8},
		{scheme.NonClustered, 8},
	}
	return parallel.Map(len(cases), func(k int) (ContinuityPoint, error) {
		c := cases[k]
		res, err := sim.Run(sim.Config{
			Scheme: c.s, Disk: diskmodel.Default(), D: 32, P: c.p,
			Buffer: buffer, Catalog: cat, ArrivalRate: 20,
			Duration: 300 * units.Second, Seed: seed,
			Trace: []sim.FailureEvent{{Disk: 5, At: 100 * units.Second}},
		})
		if err != nil {
			return ContinuityPoint{}, err
		}
		return ContinuityPoint{
			Scheme: c.s, P: c.p, Serviced: res.Serviced,
			DeadlineMisses: res.DeadlineMisses, LostBlocks: res.LostBlocks,
		}, nil
	})
}

// ContinuityColumns is E10's table.
var ContinuityColumns = []trace.Column[ContinuityPoint]{
	trace.Col("scheme", "scheme", func(pt ContinuityPoint) any { return pt.Scheme.Legend() }),
	trace.Col("p", "p", func(pt ContinuityPoint) any { return pt.P }),
	trace.Col("serviced", "serviced", func(pt ContinuityPoint) any { return pt.Serviced }),
	trace.Col("deadline_misses", "deadline misses", func(pt ContinuityPoint) any { return pt.DeadlineMisses }),
	trace.Col("lost_blocks", "lost blocks", func(pt ContinuityPoint) any { return pt.LostBlocks }),
}
