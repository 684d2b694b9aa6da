package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs fn once per GOMAXPROCS setting, restoring the old value.
func atProcs(procs []int, fn func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	atProcs([]int{1, 2, 7, 64}, func(procs int) {
		const n = 100
		var hits [n]atomic.Int32
		if err := ForEach(n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, got)
			}
		}
	})
}

func TestForEachLowestIndexError(t *testing.T) {
	errs := map[int]error{3: errors.New("e3"), 7: errors.New("e7"), 42: errors.New("e42")}
	// GOMAXPROCS 1 is the sequential path; it reports the same error.
	atProcs([]int{1, 2, 8}, func(procs int) {
		if err := ForEach(100, func(i int) error { return errs[i] }); err != errs[3] {
			t.Fatalf("GOMAXPROCS=%d: got %v, want lowest-index error e3", procs, err)
		}
	})
}

func TestMapIndexAddressed(t *testing.T) {
	atProcs([]int{1, 4}, func(procs int) {
		out, err := Map(50, func(i int) (string, error) {
			return fmt.Sprintf("v%d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != fmt.Sprintf("v%d", i) {
				t.Fatalf("GOMAXPROCS=%d: out[%d] = %q", procs, i, v)
			}
		}
		if out, err := Map(10, func(i int) (int, error) {
			if i == 5 {
				return 0, errors.New("boom")
			}
			return i, nil
		}); err == nil || out != nil {
			t.Fatalf("GOMAXPROCS=%d: Map with error: got (%v, %v), want (nil, error)", procs, out, err)
		}
	})
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachNoGoroutineLeak checks the pool drains completely: after
// ForEach returns (including on error), no worker goroutines linger.
func TestForEachNoGoroutineLeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	before := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		_ = ForEach(64, func(i int) error {
			if i%9 == 0 {
				return errors.New("e")
			}
			return nil
		})
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestForEachAllocs pins the fan-out at zero heap objects per call once
// warm: the job record comes off the freelist and each helper's go
// statement names a function with no closure. AllocsPerRun forces
// GOMAXPROCS 1, where ForEach is a plain loop, so this counts with
// runtime.MemStats under an explicit GOMAXPROCS.
func TestForEachAllocs(t *testing.T) {
	const runs = 1000
	var hits [4]atomic.Int32
	fn := func(i int) error {
		hits[i].Add(1)
		return nil
	}
	atProcs([]int{2, 4}, func(procs int) {
		for range runs { // warm: dead helpers' goroutine records on every P
			ForEach(len(hits), fn)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			ForEach(len(hits), fn)
		}
		runtime.ReadMemStats(&after)
		if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: ForEach(4, …) allocates %d objects per call, want 0", procs, allocs)
		}
	})
	for i := range hits { // two settings, each warm-up and measured calls
		if got := hits[i].Load(); got != 2*2*runs {
			t.Fatalf("index %d ran %d times, want %d", i, got, 2*2*runs)
		}
	}
}
