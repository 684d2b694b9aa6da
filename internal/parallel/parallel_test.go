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
// GOMAXPROCS 1, where ForEach starts no helper, so this counts with
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

// feedRun opens a feed on fn and publishes n items a few at a time,
// working between publications as a planning caller does, then joins.
func feedRun(n int, fn func(i int) error) error {
	var f Feed
	f.Start(fn)
	for k := 0; k <= n; k += 3 {
		f.Publish(k)
		runtime.Gosched()
	}
	f.Publish(n)
	return f.Join()
}

func TestFeedRunsEachPublishedIndexOnce(t *testing.T) {
	atProcs([]int{1, 2, 4, 64}, func(procs int) {
		const n = 100
		var hits [n]atomic.Int32
		if err := feedRun(n, func(i int) error {
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

// TestFeedWaitDrains: Wait returns only once every published item has
// finished, helpers' included, and runs nothing past what is published.
func TestFeedWaitDrains(t *testing.T) {
	atProcs([]int{1, 2, 4}, func(procs int) {
		const n = 64
		var finished [n]atomic.Bool
		var f Feed
		f.Start(func(i int) error {
			for range 50 { // long enough for the caller to reach Wait
				runtime.Gosched()
			}
			finished[i].Store(true)
			return nil
		})
		for _, k := range []int{1, 17, 40} {
			f.Publish(k)
			f.Wait()
			for i := range finished {
				if finished[i].Load() != (i < k) {
					t.Fatalf("GOMAXPROCS=%d: after Wait on %d published, item %d finished %v", procs, k, i, finished[i].Load())
				}
			}
		}
		f.Publish(n)
		if err := f.Join(); err != nil {
			t.Fatal(err)
		}
		for i := range finished {
			if !finished[i].Load() {
				t.Fatalf("GOMAXPROCS=%d: Join returned before item %d finished", procs, i)
			}
		}
	})
}

func TestFeedLowestIndexError(t *testing.T) {
	errs := map[int]error{3: errors.New("e3"), 7: errors.New("e7"), 42: errors.New("e42")}
	atProcs([]int{1, 2, 8}, func(procs int) {
		if err := feedRun(100, func(i int) error { return errs[i] }); err != errs[3] {
			t.Fatalf("GOMAXPROCS=%d: got %v, want lowest-index error e3", procs, err)
		}
	})
	var f Feed // a feed never opened waits and joins clean
	f.Wait()
	if err := f.Join(); err != nil {
		t.Fatal(err)
	}
}

// TestFeedAllocs pins a warm feed, helpers and all, at zero heap objects,
// counted with runtime.MemStats as TestForEachAllocs counts.
func TestFeedAllocs(t *testing.T) {
	const runs = 1000
	var hits [8]atomic.Int32
	fn := func(i int) error {
		hits[i].Add(1)
		return nil
	}
	atProcs([]int{2, 4}, func(procs int) {
		for range runs {
			feedRun(len(hits), fn)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			feedRun(len(hits), fn)
		}
		runtime.ReadMemStats(&after)
		if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: a feed of %d items allocates %d objects, want 0", procs, len(hits), allocs)
		}
	})
}
