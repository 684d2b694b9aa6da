// Package parallel provides the small bounded worker pool the experiment
// sweeps and the cluster's per-node rounds fan out on. Inside one array
// three byte passes do, touching bytes alone while the array's goroutine
// decides the rest: on one feed per round (core/pending.go), the stream
// pass's, fed plain reads to verify as it serves them, and the rebuild's,
// fed entries as it plans them; and the ingest's, per batch of a clip
// write's groups (WriteRun). Its width is runtime.GOMAXPROCS(0): Go's own
// knob is the only one.
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
	"runtime"
	"sync"
	"sync/atomic"
)

// job is one fan-out: fn over the items published so far. next is the
// first unclaimed item, done counts finished ones, closed says no more
// are coming, and left counts the helpers that have let it go.
type job struct {
	fn                    func(i int) error
	next, published, done atomic.Int64
	left                  atomic.Int32
	closed                atomic.Bool
	helpers               int
	wg                    sync.WaitGroup
	mu                    sync.Mutex // guards err, the lowest failing item's, errAt
	err                   error
	errAt                 int
}

var (
	mu      sync.Mutex
	jobs    []*job // idle jobs under mu, LIFO: one per fan-out ever open at once
	helping int    // helpers of the open fan-outs, under mu
	// handoff hands each helper its job, so `go help()` needs no closure.
	// Buffered so a fan-out need not wait for a helper to be scheduled;
	// when full, a helper already started frees a place.
	handoff = make(chan *job, 64)
)

// help works one job, then exits: it runs published items, yielding while
// none is left, until the job is closed.
func help() {
	j := <-handoff
	for i := j.next.Load(); i < j.published.Load() || !j.closed.Load(); i = j.next.Load() {
		if i < j.published.Load() {
			j.claim(i)
		} else {
			runtime.Gosched()
		}
	}
	j.left.Add(1)
	j.wg.Done()
}

// claim runs item i unless a worker took it first.
func (j *job) claim(i int64) {
	if !j.next.CompareAndSwap(i, i+1) {
		return
	}
	if err := j.fn(int(i)); err != nil {
		j.mu.Lock()
		if j.err == nil || int(i) < j.errAt {
			j.err, j.errAt = err, int(i)
		}
		j.mu.Unlock()
	}
	j.done.Add(1)
}

// A Feed is a fan-out whose items the caller publishes while it works on.
// Its helpers poll with runtime.Gosched, so one started ahead of the first
// item is awake when it comes. The zero Feed is closed; Wait and Join on it
// do nothing. A warm feed allocates nothing.
type Feed struct{ j *job }

// Start opens the feed on fn unless it is open, with GOMAXPROCS−1 helpers:
// none while other fan-outs' helpers have the processors.
func (f *Feed) Start(fn func(i int) error) {
	if f.j == nil {
		f.start(fn, runtime.GOMAXPROCS(0)-1, true)
	}
}

func (f *Feed) start(fn func(i int) error, helpers int, alone bool) {
	mu.Lock()
	if helpers = max(helpers, 0); alone && helping > 0 {
		helpers = 0
	}
	helping += helpers
	if len(jobs) == 0 {
		jobs = append(jobs, new(job))
	}
	j := jobs[len(jobs)-1]
	jobs = jobs[:len(jobs)-1]
	mu.Unlock()
	*j = job{fn: fn, helpers: helpers}
	j.wg.Add(helpers)
	for range helpers {
		go help()
		handoff <- j
	}
	f.j = j
}

// Helped reports whether the open feed got a helper: without one its items
// run on the caller alone, at Wait or Join.
func (f *Feed) Helped() bool { return f.j != nil && f.j.helpers > 0 }

// Publish lets items [0, n) of the open feed run; n never shrinks.
func (f *Feed) Publish(n int) { f.j.published.Store(int64(n)) }

// spin is how many times Wait and Join poll a helper before they yield or
// park: a caller that yields or parks resumes on whichever processor takes
// it, often the helper's, away from its own cache.
const spin = 1 << 14

// Wait runs the published items no helper has taken and returns once every
// published item has finished.
func (f *Feed) Wait() {
	if j := f.j; j != nil {
		n := j.published.Load()
		for i := j.next.Load(); i < n; i = j.next.Load() {
			j.claim(i)
		}
		for k := 0; j.done.Load() < n; k++ {
			if k >= spin {
				runtime.Gosched()
			}
		}
	}
}

// Join waits, lets the helpers go and closes the feed. It returns the
// error of the lowest item that failed — the one a sequential
// first-error-wins loop reports.
func (f *Feed) Join() error {
	j := f.j
	if j == nil {
		return nil
	}
	j.closed.Store(true)
	f.Wait()
	for k := 0; k < spin && j.left.Load() < int32(j.helpers); k++ {
	}
	j.wg.Wait()
	err := j.err
	j.fn, j.err, f.j = nil, nil, nil // the freelist keeps no caller's state
	mu.Lock()
	helping -= j.helpers
	jobs = append(jobs, j)
	mu.Unlock()
	return err
}

// ForEach runs fn(i) for every i in [0, n) on the calling goroutine and
// up to GOMAXPROCS−1 helpers: a feed whose n items are published at once.
// It returns the error of the lowest index that failed, and every helper
// has finished by the time it returns. At GOMAXPROCS 1, or with fewer
// than two items, no helper starts.
func ForEach(n int, fn func(i int) error) error {
	var f Feed
	f.start(fn, min(runtime.GOMAXPROCS(0), n)-1, false)
	f.Publish(n)
	return f.Join()
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
