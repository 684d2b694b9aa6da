// Package parallel provides the small bounded worker pool the experiment
// sweeps and the cluster's per-node rounds fan out on. Nothing fans out
// inside one array's round. Its width is runtime.GOMAXPROCS(0): Go's own
// knob is the only one.
//
// The determinism contract: work items are addressed by index, every
// worker writes only its own item's slot, and errors are reported as the
// lowest failing index — so a parallel sweep produces results (and the
// error, if any) bit-identical to the sequential loop it replaces,
// regardless of GOMAXPROCS or scheduling. Callers keep per-item state
// (RNGs, servers, arrays) strictly per item; the pool adds no shared
// state of its own.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines and returns the error of the lowest index that failed —
// the same error a sequential first-error-wins loop reports. It always
// drains: every started goroutine has exited by the time it returns.
// At GOMAXPROCS 1, or with fewer than two items, it is a plain loop on
// the calling goroutine.
func ForEach(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over [0, n) under ForEach's pool and collects the results
// index-addressed, so out[i] is fn(i)'s value no matter which worker ran
// it. A failure anywhere yields (nil, lowest-index error).
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
