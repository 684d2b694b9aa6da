package sim

// Arrival handling for the round loop: the feeder is an incremental
// consumer of a workload.ArrivalSource, so a 10M-request scenario costs
// O(pending requests) memory instead of O(trace).

import (
	"math"

	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// feeder pulls requests from an ArrivalSource and releases the ones due
// each round. It buffers exactly one look-ahead request.
type feeder struct {
	src  workload.ArrivalSource
	next workload.Request
	ok   bool
}

// newFeeder resolves a Config's two arrival specifications — Source, or
// a Poisson(ArrivalRate) process over uniform clip choice — into one
// stream, Source first. seed is the RNG seed for the generated Poisson
// case (historically cfg.Seed+1).
func newFeeder(cfg *Config, seed int64) (*feeder, error) {
	src := cfg.Source
	if src == nil {
		var err error
		src, err = workload.NewPoissonSource(cfg.ArrivalRate, cfg.Duration,
			workload.UniformSelector{N: cfg.Catalog.Len()}, seed)
		if err != nil {
			return nil, err
		}
	}
	f := &feeder{src: src}
	f.next, f.ok = f.src.Next()
	return f, nil
}

// feed hands every request arriving strictly before tEnd to push and
// returns how many were released.
func (f *feeder) feed(tEnd units.Duration, push func(workload.Request)) int {
	n := 0
	for f.ok && f.next.Arrival < tEnd {
		push(f.next)
		n++
		f.next, f.ok = f.src.Next()
	}
	return n
}

// streamRounds converts a request's watch fraction into playback rounds:
// the whole clip for lean-back requests (frac 0 or ≥ 1), a proportional
// prefix for VCR segments, never less than one round.
func streamRounds(clipRounds int64, frac float64) int64 {
	if frac <= 0 || frac >= 1 {
		return clipRounds
	}
	r := int64(math.Ceil(frac * float64(clipRounds)))
	if r < 1 {
		r = 1
	}
	if r > clipRounds {
		r = clipRounds
	}
	return r
}
