package experiments

import (
	"runtime"
	"testing"
	"time"

	"ftcms/internal/units"
)

// TestFigure5ParallelMatchesSequential pins that the closed-form panel
// does not depend on GOMAXPROCS.
func TestFigure5ParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := Figure5(256 * units.MB)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 16} {
		runtime.GOMAXPROCS(procs)
		par, err := Figure5(256 * units.MB)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("GOMAXPROCS=%d: %d points, sequential %d", procs, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("GOMAXPROCS=%d: point %d = %+v, sequential %+v", procs, i, par[i], seq[i])
			}
		}
	}
}

// TestFigure6ParallelMatchesSequential runs a shortened Figure 6 panel
// at GOMAXPROCS 1, where the pool is a plain loop, and wider, and demands
// identical results — every simulation is independently seeded, so
// scheduling must not leak into the output.
func TestFigure6ParallelMatchesSequential(t *testing.T) {
	cfg := Figure6Config{Buffer: 256 * units.MB, Seed: 1, Duration: 60 * units.Second}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		par, err := Figure6(cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("GOMAXPROCS=%d: %d points, sequential %d", procs, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("GOMAXPROCS=%d: point %d = %+v, sequential %+v", procs, i, par[i], seq[i])
			}
		}
	}
}

// TestSweepsLeaveNoGoroutines asserts pool shutdown: after a parallel
// sweep returns, the worker goroutines are gone.
func TestSweepsLeaveNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	before := runtime.NumGoroutine()
	if _, err := Figure6(Figure6Config{Buffer: 256 * units.MB, Seed: 1, Duration: 30 * units.Second}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
