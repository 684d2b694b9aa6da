package experiments

import (
	"ftcms/internal/diskmodel"
	"ftcms/internal/parallel"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/trace"
	"ftcms/internal/units"
)

// CorruptionPoint summarizes one scrub-rate setting of E17: how fast the
// patrol scrub detects and repairs a fixed silent-corruption campaign,
// and what it costs the Figure 6 service metric (nothing — the patrol
// rides idle capacity only).
type CorruptionPoint struct {
	// Rate is the patrol budget in verify reads per disk per round;
	// -1 means bounded only by idle capacity.
	Rate     int
	Serviced int
	// Injected, Detected and Repaired trace the corruption pipeline.
	Injected, Detected, Repaired int64
	// MeanDetection is the mean rot→detection latency.
	MeanDetection units.Duration
	// Sweeps counts completed full-array patrol passes.
	Sweeps int64
}

// ScrubRates is the E17 sweep grid, fastest patrol first.
var ScrubRates = []int{-1, 8, 4, 2, 1}

// corruptionCampaign is E17's fixed rot script: two bursts on distinct
// disks, early enough that an idle-bounded patrol catches everything.
func corruptionCampaign() []sim.CorruptionEvent {
	return []sim.CorruptionEvent{
		{Disk: 5, At: 100 * units.Second, Blocks: 40},
		{Disk: 17, At: 300 * units.Second, Blocks: 40},
	}
}

// CorruptionSweep runs E17: the declustered scheme under a fixed
// silent-corruption campaign, swept across patrol scrub rates.
func CorruptionSweep(buffer units.Bits, seed int64) ([]CorruptionPoint, error) {
	return parallel.Map(len(ScrubRates), func(k int) (CorruptionPoint, error) {
		res, err := sim.Run(sim.Config{
			Scheme:      scheme.Declustered,
			Disk:        diskmodel.Default(),
			D:           32,
			P:           4,
			Buffer:      buffer,
			Catalog:     PaperCatalog(),
			ArrivalRate: 2,
			Duration:    1500 * units.Second,
			Seed:        seed,
			ScrubRate:   ScrubRates[k],
			Corruptions: corruptionCampaign(),
		})
		if err != nil {
			return CorruptionPoint{}, err
		}
		return CorruptionPoint{
			Rate:          ScrubRates[k],
			Serviced:      res.Serviced,
			Injected:      res.CorruptionsInjected,
			Detected:      res.CorruptionsDetected,
			Repaired:      res.CorruptionsRepaired,
			MeanDetection: res.MeanDetection,
			Sweeps:        res.ScrubSweeps,
		}, nil
	})
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
	trace.Col("serviced", "serviced", func(pt CorruptionPoint) any { return pt.Serviced }),
	trace.Col("injected", "injected", func(pt CorruptionPoint) any { return pt.Injected }),
	trace.Col("detected", "detected", func(pt CorruptionPoint) any { return pt.Detected }),
	trace.Col("repaired", "repaired", func(pt CorruptionPoint) any { return pt.Repaired }),
	trace.Seconds("mean_detection_s", "mean detection", func(pt CorruptionPoint) units.Duration { return pt.MeanDetection }),
	trace.Col("sweeps", "sweeps", func(pt CorruptionPoint) any { return pt.Sweeps }),
}
