// Package parallel provides the small bounded worker pool the experiment
// sweeps and the cluster's per-node rounds fan out on. Inside one array two
// byte passes do, touching bytes alone while the array's goroutine waits and
// decides the rest: the rebuild's, per rebuild batch (core/rebuild.go), and
// the ingest's, per batch of a clip write's groups (recovery.Store.WriteRun).
// Its width is runtime.GOMAXPROCS(0): Go's own knob is the only one.
//
// The determinism contract: work items are addressed by index, every
// worker writes only its own item's slot, and errors are reported as the
// lowest failing index — so a parallel sweep produces results (and the
// error, if any) bit-identical to the sequential loop it replaces,
// regardless of GOMAXPROCS or scheduling. Callers keep per-item state
// (RNGs, servers, arrays) strictly per item. The pool's own, a freelist
// of job records, lets a warm fan-out allocate nothing.
package parallel

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// job is one ForEach call: next item, helpers, errs[i] = fn(i).
type job struct {
	fn   func(i int) error
	next atomic.Int64
	wg   sync.WaitGroup
	errs []error
}

var (
	mu   sync.Mutex
	jobs []*job // idle jobs under mu, LIFO: one per ForEach ever run at once
	// handoff hands each helper its job, so `go help()` needs no closure.
	// Buffered so ForEach need not wait for a helper to be scheduled; when
	// full, a helper ForEach already started frees a place.
	handoff = make(chan *job, 64)
)

// help works one job, then exits.
func help() { (<-handoff).work() }

// work runs items off the shared counter until none is left.
func (j *job) work() {
	for i := j.next.Add(1) - 1; i < int64(len(j.errs)); i = j.next.Add(1) - 1 {
		j.errs[i] = j.fn(int(i))
	}
	j.wg.Done()
}

// ForEach runs fn(i) for every i in [0, n) on the calling goroutine and
// up to GOMAXPROCS−1 helpers, and returns the error of the lowest index
// that failed — the same error a sequential first-error-wins loop
// reports. Every helper has finished its share by the time it returns.
// At GOMAXPROCS 1, or with fewer than two items, it is a plain loop on
// the calling goroutine.
func ForEach(n int, fn func(i int) error) error {
	helpers := min(runtime.GOMAXPROCS(0), n) - 1
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	mu.Lock()
	if len(jobs) == 0 {
		jobs = append(jobs, new(job))
	}
	j := jobs[len(jobs)-1]
	jobs = jobs[:len(jobs)-1]
	mu.Unlock()
	j.fn, j.errs = fn, slices.Grow(j.errs[:0], n)[:n]
	j.next.Store(0)
	j.wg.Add(helpers + 1)
	for range helpers {
		go help()
		handoff <- j
	}
	j.work()
	j.wg.Wait()
	err := cmp.Or(j.errs...) // the lowest index's
	clear(j.errs)
	j.fn = nil
	mu.Lock()
	jobs = append(jobs, j)
	mu.Unlock()
	return err
}

// Map runs fn over [0, n) under ForEach's pool and collects the results
// index-addressed, so out[i] is fn(i)'s value no matter which worker ran
// it. A failure anywhere yields (nil, lowest-index error).
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, func(i int) (err error) {
		out[i], err = fn(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
