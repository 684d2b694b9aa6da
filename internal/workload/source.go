package workload

// Streaming arrival generation. An ArrivalSource yields requests one at a
// time in nondecreasing arrival order, so a consumer that services
// requests incrementally (the simulators) never holds more than its
// pending set in memory — a 10M-request prime-time trace costs O(pending)
// space instead of a materialized slice. Collect materializes a source
// for the callers that want a slice, drawing the identical seeded random
// sequence.

import (
	"errors"
	"math/rand"

	"ftcms/internal/units"
)

// ArrivalSource is a pull-based request stream. Next returns the next
// request and true, or a zero Request and false once the stream is
// exhausted. Arrival times are nondecreasing across calls. Sources are
// single-use and not safe for concurrent use; deterministic sources
// reproduce the same sequence for the same construction parameters.
type ArrivalSource interface {
	Next() (Request, bool)
}

// PoissonSource streams requests with exponential inter-arrival times at
// a fixed mean rate over [0, horizon), selecting clips via sel.
// Deterministic for a fixed seed.
type PoissonSource struct {
	rng     *rand.Rand
	rate    float64
	horizon units.Duration
	sel     Selector
	t       units.Duration
	done    bool
}

// NewPoissonSource validates the parameters and returns a streaming
// Poisson generator.
func NewPoissonSource(rate float64, horizon units.Duration, sel Selector, seed int64) (*PoissonSource, error) {
	if rate <= 0 {
		return nil, errors.New("workload: arrival rate must be positive")
	}
	if horizon <= 0 {
		return nil, errors.New("workload: horizon must be positive")
	}
	return &PoissonSource{
		rng:     rand.New(rand.NewSource(seed)),
		rate:    rate,
		horizon: horizon,
		sel:     sel,
	}, nil
}

// Next implements ArrivalSource.
func (s *PoissonSource) Next() (Request, bool) {
	if s.done {
		return Request{}, false
	}
	s.t += units.Duration(s.rng.ExpFloat64() / s.rate)
	if s.t >= s.horizon {
		s.done = true
		return Request{}, false
	}
	return Request{Arrival: s.t, ClipID: s.sel.Pick(s.rng)}, true
}

// SliceSource adapts a pre-materialized request slice (sorted by arrival
// time) to the ArrivalSource interface.
type SliceSource struct {
	reqs []Request
	i    int
}

// NewSliceSource wraps reqs without copying; the caller must not mutate
// the slice while the source is in use.
func NewSliceSource(reqs []Request) *SliceSource { return &SliceSource{reqs: reqs} }

// Next implements ArrivalSource.
func (s *SliceSource) Next() (Request, bool) {
	if s.i >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// Collect drains a source into a slice. Use only for small traces;
// large scenarios should stay streaming.
func Collect(src ArrivalSource) []Request {
	var out []Request
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}
