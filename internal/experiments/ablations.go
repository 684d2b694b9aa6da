package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"ftcms/internal/analytic"
	"ftcms/internal/core"
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
	P               int
	StaticServiced  int
	DynamicServiced int
	StaticResponse  units.Duration
	DynamicResponse units.Duration
	StrictServiced  int // static controller, strict FIFO
	StrictMaxQueue  int
	BypassMaxQueue  int
	StrictResponse  units.Duration
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

// ContinuityPoint is one scheme's run of E10 on core.Server: an array
// held at full load loses a disk mid-run and rebuilds it onto one hot
// spare from idle capacity.
type ContinuityPoint struct {
	Scheme scheme.Scheme
	P      int
	// Peak is the most streams open at once; Opened counts every stream
	// opened in the run.
	Peak, Opened int
	// Hiccups counts deliveries the pipeline skipped, Overflows disk
	// charges past q (deadline misses) and Lost streams ended with
	// core.ErrStreamLost.
	Hiccups, Overflows int64
	Lost               int
	// RebuildRounds is the failure→rejoin time of the spare, -1 when the
	// rebuild does not finish inside the run.
	RebuildRounds int64
}

// The E10 run: d = 32 Figure 1 disks sized by analytic.Solve at an 8 MB
// buffer, so every case's bytes fit in memory; disk 5 fails at round 40
// of 400.
const (
	continuityBuffer = 8 * units.MB
	continuityDisk   = 5
	continuityFailAt = 40
	continuityRounds = 400
)

// FailureContinuity runs E10: every paper scheme at full load through a
// disk failure and its rebuild. The rate-guaranteeing schemes deliver
// every block in its round with no charge past q and lose no stream; the
// non-clustered baseline overruns q. Declustering spreads the rebuild's
// reads over the whole array, so of the five only the declustered and
// flat layouts find idle capacity to finish it at full load (E12).
func FailureContinuity(seed int64) ([]ContinuityPoint, error) {
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
		pt, err := continuityRun(cases[k].s, cases[k].p, seed)
		if err != nil {
			return pt, fmt.Errorf("experiments: %v p=%d: %w", cases[k].s, cases[k].p, err)
		}
		return pt, nil
	})
}

// continuityRun stores one clip with a group start on every admission
// cell, twice over, and each round opens streams at every group start,
// in a fresh random order, until refused, so the array stays at full
// load; every delivered byte is checked against the clip.
func continuityRun(sc scheme.Scheme, p int, seed int64) (ContinuityPoint, error) {
	const d = 32
	disk := diskmodel.Default()
	op, err := analytic.Solve(analytic.Config{Disk: disk, D: d, Buffer: continuityBuffer}, sc, p)
	if err != nil {
		return ContinuityPoint{}, err
	}
	s, err := core.New(core.Config{Scheme: sc, Disk: disk, D: d, P: p, Block: op.Block, Q: op.Q, F: op.F,
		Buffer: continuityBuffer, Spares: 1})
	if err != nil {
		return ContinuityPoint{}, err
	}
	u, c := sc.Grid(d, p)
	groups := 2 * u * c
	group := int64(op.Block.Bytes()) * int64(sc.PrefetchDepth(p))
	clip := clipGen{seed, group * int64(groups)}
	if err := s.AddClip("c", clip.fill(make([]byte, clip.size), 0)); err != nil {
		return ContinuityPoint{}, err
	}
	pt := ContinuityPoint{Scheme: sc, P: p, RebuildRounds: -1}
	rng := rand.New(rand.NewSource(seed))
	var tracks []*track
	buf := make([]byte, 64<<10)
	for round := 0; round < continuityRounds; round++ {
		if round == continuityFailAt {
			if err := s.FailDisk(continuityDisk); err != nil {
				return pt, err
			}
		}
		for _, g := range rng.Perm(groups) {
			off := int64(g) * group
			for st, err := s.OpenStreamAt("c", off); err == nil; st, err = s.OpenStreamAt("c", off) {
				tracks = append(tracks, &track{st: st, clip: clip, from: off})
				pt.Opened++
			}
		}
		pt.Peak = max(pt.Peak, s.ActiveStreams())
		if _, err := tickAndRead(s, tracks, buf); err != nil {
			return pt, err
		}
		tracks = slices.DeleteFunc(tracks, func(tr *track) bool { return tr.done })
	}
	st := s.Stats()
	pt.Hiccups, pt.Overflows, pt.Lost = st.Hiccups, st.Overflows, st.Terminated
	if lats := st.RebuildLatencies; len(lats) > 0 {
		pt.RebuildRounds = lats[0]
	}
	return pt, nil
}

// ContinuityColumns is E10's table; a rebuild that does not finish reads
// "none".
var ContinuityColumns = []trace.Column[ContinuityPoint]{
	trace.Col("scheme", "scheme", func(pt ContinuityPoint) any { return pt.Scheme.Legend() }),
	trace.Col("p", "p", func(pt ContinuityPoint) any { return pt.P }),
	trace.Col("peak_streams", "peak streams", func(pt ContinuityPoint) any { return pt.Peak }),
	trace.Col("opened", "opened", func(pt ContinuityPoint) any { return pt.Opened }),
	trace.Col("hiccups", "hiccups", func(pt ContinuityPoint) any { return pt.Hiccups }),
	trace.Col("overflows", "overflows", func(pt ContinuityPoint) any { return pt.Overflows }),
	trace.Col("streams_lost", "streams lost", func(pt ContinuityPoint) any { return pt.Lost }),
	trace.Col("rebuild_rounds", "rebuild rounds", func(pt ContinuityPoint) any {
		if pt.RebuildRounds < 0 {
			return "none"
		}
		return pt.RebuildRounds
	}),
}
