package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"ftcms/internal/core"
	"ftcms/internal/faultinject"
	"ftcms/internal/layout"
	"ftcms/internal/parallel"
	"ftcms/internal/trace"
	"ftcms/internal/units"
)

// CorruptionPoint summarizes one scrub-rate setting of E17: how fast the
// patrol scrub of a core.Server detects and repairs a fixed burst of
// silent corruption on cold clips, and what it costs the hot streams
// (nothing — the patrol rides idle capacity only).
type CorruptionPoint struct {
	// Rate is the patrol budget in verify reads per round across the
	// array; -1 means bounded only by idle capacity.
	Rate int
	// Injected, Detected and Repaired trace the corruption campaign;
	// MeanDetection is the mean rot→detection latency in rounds.
	Injected, Detected, Repaired int64
	MeanDetection                float64
	// Sweeps counts completed full-array patrol passes; Blocks is how
	// many written blocks one pass verifies.
	Sweeps int64
	Blocks int
	// Exact counts hot streams played byte-exact to EOF; Hiccups and
	// Failures count missed deliveries and disks declared failed.
	Exact             int
	Hiccups, Failures int64
}

// ScrubRates is the E17 sweep grid, fastest patrol first.
var ScrubRates = []int{-1, 8, 4, 2, 1}

// The E17 setup: four clips on E18's array, the first two played, and
// one burst of rot on the other two at scrubRotAt, at most one rotten
// member per parity group and scrubRotPerDisk per disk. The default
// CorruptionThreshold counts each corrupt read twice, read and retry, so
// it declares a disk failed after 8 rotten blocks are read.
const (
	scrubClips      = 4
	scrubHot        = 2
	scrubRounds     = 700
	scrubRotAt      = 20
	scrubRotBlocks  = 40
	scrubRotPerDisk = 4
)

// CorruptionSweep runs E17: the declustered array under one fixed
// silent-corruption campaign, swept across patrol scrub rates.
func CorruptionSweep(seed int64) ([]CorruptionPoint, error) {
	return parallel.Map(len(ScrubRates), func(k int) (CorruptionPoint, error) {
		return scrubRun(ScrubRates[k], seed)
	})
}

// corruptionCampaign picks E17's rotten blocks among the logical blocks
// [first, first+n) of the cold clips, in an order drawn from seed.
func corruptionCampaign(cfg core.Config, seed, first, n int64) ([]faultinject.SilentCorruption, error) {
	lay, err := cfg.Scheme.Table(cfg.D, cfg.P)
	if err != nil {
		return nil, err
	}
	groups := make(map[layout.BlockAddr]bool)
	perDisk := make([]int, cfg.D)
	var rot []faultinject.SilentCorruption
	var g layout.Group
	for _, i := range rand.New(rand.NewSource(seed)).Perm(int(n)) {
		a := lay.Place(first + int64(i))
		if lay.GroupAt(a, &g); groups[g.Parity] || perDisk[a.Disk] == scrubRotPerDisk {
			continue
		}
		groups[g.Parity] = true
		perDisk[a.Disk]++
		rot = append(rot, faultinject.SilentCorruption{Disk: a.Disk, Block: a.Block, From: scrubRotAt, Bits: 3})
		if len(rot) == scrubRotBlocks {
			return rot, nil
		}
	}
	return nil, errors.New("experiments: the E17 campaign does not fit the cold clips")
}

func scrubRun(rate int, seed int64) (CorruptionPoint, error) {
	cfg := doubleFaultConfig(core.Declustered)
	cfg.ScrubRate = rate
	s, err := core.New(cfg)
	if err != nil {
		return CorruptionPoint{}, err
	}
	size := int(2 * units.MB.Bytes())
	var tracks []*track
	for k := 0; k < scrubClips; k++ {
		name, clip := fmt.Sprint("clip-", k), doubleFaultClip(seed+int64(k), size)
		if err := s.AddClip(name, clip); err != nil {
			return CorruptionPoint{}, err
		}
		if k < scrubHot {
			st, err := s.OpenStream(name)
			if err != nil {
				return CorruptionPoint{}, err
			}
			tracks = append(tracks, &track{st: st, want: clip})
		}
	}
	// The server lays clips back to back from logical block 0.
	per := int64(size) / int64(cfg.Block.Bytes())
	rot, err := corruptionCampaign(cfg, seed, scrubHot*per, (scrubClips-scrubHot)*per)
	if err != nil {
		return CorruptionPoint{}, err
	}
	s.InjectFaults(faultinject.Plan{Seed: seed, Corruptions: rot})

	pt := CorruptionPoint{Rate: rate}
	var st core.Stats
	var latency int64
	buf := make([]byte, 64<<10)
	// Round r is the server's r-th Tick, the round its injector sees.
	for round := int64(1); round <= scrubRounds; round++ {
		if _, err := tickAndRead(s, tracks, buf); err != nil {
			return CorruptionPoint{}, err
		}
		// Only the patrol detects: no stream reads a cold clip.
		st = s.Stats()
		latency += (st.CorruptionsDetected - pt.Detected) * (round - scrubRotAt)
		pt.Detected, pt.Blocks = st.CorruptionsDetected, max(pt.Blocks, st.ScrubTotal)
	}
	pt.Injected, pt.Repaired, pt.Sweeps = st.CorruptionsInjected, st.CorruptionRepairs, st.ScrubCycles
	pt.Hiccups, pt.Failures = st.Hiccups, st.DetectedFailures
	pt.MeanDetection = float64(latency) / float64(max(pt.Detected, 1))
	for _, tr := range tracks {
		if tr.exact() {
			pt.Exact++
		}
	}
	return pt, nil
}

// CorruptionColumns is E17's table; the idle-bounded rate is -1 in the CSV
// and "idle" in the text table.
var CorruptionColumns = []trace.Column[CorruptionPoint]{
	{CSV: "scrub_rate", Title: "scrub rate",
		Value: func(pt CorruptionPoint) any { return pt.Rate },
		Text: func(pt CorruptionPoint) any {
			if pt.Rate < 0 {
				return "idle"
			}
			return pt.Rate
		}},
	trace.Col("injected", "injected", func(pt CorruptionPoint) any { return pt.Injected }),
	trace.Col("detected", "detected", func(pt CorruptionPoint) any { return pt.Detected }),
	trace.Col("repaired", "repaired", func(pt CorruptionPoint) any { return pt.Repaired }),
	trace.Col("mean_detection_rounds", "mean detection (rounds)", func(pt CorruptionPoint) any { return fmt.Sprintf("%.1f", pt.MeanDetection) }),
	trace.Col("sweeps", "sweeps", func(pt CorruptionPoint) any { return pt.Sweeps }),
	trace.Col("sweep_blocks", "blocks per sweep", func(pt CorruptionPoint) any { return pt.Blocks }),
	trace.Col("exact_streams", "exact streams", func(pt CorruptionPoint) any { return pt.Exact }),
	trace.Col("hiccups", "hiccups", func(pt CorruptionPoint) any { return pt.Hiccups }),
	trace.Col("failed_disks", "failed disks", func(pt CorruptionPoint) any { return pt.Failures }),
}
