package experiments

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/units"
)

// TestFigure5ParallelMatchesSequential pins the determinism contract:
// the fanned-out sweep must produce the sequential panel element for
// element, for several worker counts.
func TestFigure5ParallelMatchesSequential(t *testing.T) {
	seq, err := Figure5(256*units.MB, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 16} {
		par, err := Figure5(256*units.MB, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d points, sequential %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: point %d = %+v, sequential %+v", workers, i, par[i], seq[i])
			}
		}
	}
}

// TestFigure6ParallelMatchesSequential runs a shortened Figure 6 panel
// sequentially and with parallel workers and demands identical results —
// every simulation is independently seeded, so scheduling must not leak
// into the output.
func TestFigure6ParallelMatchesSequential(t *testing.T) {
	cfg := Figure6Config{Buffer: 256 * units.MB, Seed: 1, Duration: 60 * units.Second}
	cfg.Workers = 1
	seq, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		cfg.Workers = workers
		par, err := Figure6(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d points, sequential %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: point %d = %+v, sequential %+v", workers, i, par[i], seq[i])
			}
		}
	}
}

// TestRunManyMatchesRunLoop checks sim.RunMany against a plain loop of
// sim.Run over the same seeds: per-run results must be bit-identical and
// index-addressed, at any worker count.
func TestRunManyMatchesRunLoop(t *testing.T) {
	cfg := sim.Config{
		Scheme: scheme.Declustered, Disk: diskmodel.Default(), D: 32, P: 4,
		Buffer: 256 * units.MB, Catalog: PaperCatalog(), ArrivalRate: 20,
		Duration: 60 * units.Second,
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	want := make([]sim.Result, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		res, err := sim.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 0, 3} {
		got, err := sim.RunMany(cfg, seeds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: seed %d result %+v, want %+v", workers, seeds[i], got[i], want[i])
			}
		}
	}
}

// TestSweepsLeaveNoGoroutines asserts pool shutdown: after the parallel
// sweeps return, the worker goroutines are gone.
func TestSweepsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Figure5(256*units.MB, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunMany(sim.Config{
		Scheme: scheme.Declustered, Disk: diskmodel.Default(), D: 32, P: 4,
		Buffer: 256 * units.MB, Catalog: PaperCatalog(), ArrivalRate: 20,
		Duration: 30 * units.Second,
	}, []int64{1, 2, 3, 4}, 4); err != nil {
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
