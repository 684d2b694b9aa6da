package health

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ftcms/internal/storage"
)

func TestConsecutiveHardErrorsDeclareFailure(t *testing.T) {
	dt := NewDetector(4, Config{FailThreshold: 3})
	var failed []int
	dt.SetOnFail(func(d int) { failed = append(failed, d) })

	if st := dt.Observe(1, 1, storage.ErrFailed); st != Suspect {
		t.Fatalf("after 1 error: %v, want Suspect", st)
	}
	dt.Observe(1, 1, storage.ErrFailed)
	if st := dt.Observe(1, 1, storage.ErrFailed); st != Down {
		t.Fatalf("after 3 errors: %v, want Down", st)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("OnFail fired %v, want [1]", failed)
	}
	// Further errors do not re-fire.
	dt.Observe(1, 1, storage.ErrFailed)
	if len(failed) != 1 {
		t.Fatalf("OnFail re-fired: %v", failed)
	}
	// Other disks unaffected: disk 0's first strike leaves it Suspect.
	if st := dt.Observe(0, 1, storage.ErrFailed); st != Suspect {
		t.Fatalf("disk 0 after one error: %v, want Suspect", st)
	}
}

func TestSuccessResetsStrikes(t *testing.T) {
	dt := NewDetector(2, Config{FailThreshold: 3})
	dt.Observe(0, 1, storage.ErrFailed)
	dt.Observe(0, 1, storage.ErrFailed)
	if st := dt.Observe(0, 1, nil); st != OK {
		t.Fatalf("state = %v, want OK", st)
	}
	dt.Observe(0, 1, storage.ErrFailed)
	if st := dt.Observe(0, 1, storage.ErrFailed); st != Suspect {
		t.Fatalf("interleaved errors must not accumulate to Down: %v", st)
	}
}

func TestTimeoutsCountAsStrikes(t *testing.T) {
	dt := NewDetector(2, Config{FailThreshold: 2, SlowFactor: 4})
	var fired bool
	dt.SetOnFail(func(int) { fired = true })
	dt.Observe(0, 4, nil) // slow but successful: strike
	dt.Observe(0, 2, nil) // mildly slow: success, resets
	if st := dt.Observe(0, 5, nil); fired || st != Suspect {
		t.Fatalf("one timeout after a fast-enough read: fired=%v state=%v, want Suspect", fired, st)
	}
	if st := dt.Observe(0, 9, nil); !fired || st != Down {
		t.Fatalf("two timeouts at threshold 2: fired=%v state=%v", fired, st)
	}
}

func TestBadBlockAndNotWrittenAreNotDiskStrikes(t *testing.T) {
	dt := NewDetector(1, Config{FailThreshold: 1})
	var fired bool
	dt.SetOnFail(func(int) { fired = true })
	for _, err := range []error{storage.ErrBadBlock, storage.ErrNotWritten} {
		if st := dt.Observe(0, 1, fmt.Errorf("wrapped: %w", err)); fired || st != OK {
			t.Fatalf("%v declared the disk failed (state %v)", err, st)
		}
	}
}

func TestResetClearsDown(t *testing.T) {
	dt := NewDetector(1, Config{FailThreshold: 2})
	dt.Observe(0, 1, storage.ErrFailed)
	if st := dt.Observe(0, 1, storage.ErrFailed); st != Down {
		t.Fatalf("not Down: %v", st)
	}
	dt.Reset(0)
	// With the strikes cleared, one more error is a first strike.
	if st := dt.Observe(0, 1, storage.ErrFailed); st != Suspect {
		t.Fatalf("first error after Reset: %v, want Suspect", st)
	}
}

// attempt scripts one physical read attempt; as a BlockReader it lets the
// tests below drive Read's retry loop outcome by outcome.
type attempt func(dst []byte) (slowdown float64, err error)

func (f attempt) Lend(int, int64) ([]byte, float64, error) {
	b := make([]byte, 1)
	slowdown, err := f(b)
	return b, slowdown, err
}

func (f attempt) ReadTimedInto(_ int, _ int64, dst []byte) (float64, error) { return f(dst) }

// readScript runs one monitored read of the disk with scripted attempts,
// returning the buffer ReadInto filled.
func readScript(dt *Detector, disk int, fn attempt) ([]byte, error) {
	dst := make([]byte, 1)
	return dst, dt.ReadInto(fn, disk, 0, dst)
}

// TestCopyReadLeavesNoMark: ReadInto copies the block without lending it,
// so the block's next Write reuses its buffer and allocates nothing; Read
// with a nil dst lends, and the Write then leaves the lent bytes alone.
func TestCopyReadLeavesNoMark(t *testing.T) {
	arr, err := storage.NewArray(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	old, next := bytes.Repeat([]byte{7}, 64), bytes.Repeat([]byte{9}, 64)
	write := func() {
		if err := arr.Write(0, 3, old); err != nil {
			t.Fatal(err)
		}
	}
	write()
	dt := NewDetector(1, Config{})
	dst := make([]byte, 64)
	if err := dt.ReadInto(arr, 0, 3, dst); err != nil || !bytes.Equal(dst, old) {
		t.Fatalf("ReadInto = %v, %v", dst[:4], err)
	}
	if n := testing.AllocsPerRun(10, write); n != 0 {
		t.Errorf("a Write after a copy read allocates %v objects, want 0", n)
	}
	lent, err := dt.Read(arr, 0, 3, nil)
	if err != nil || !bytes.Equal(lent, old) {
		t.Fatalf("Read(nil) = %v, %v", lent, err)
	}
	if err := arr.Write(0, 3, next); err != nil || !bytes.Equal(lent, old) {
		t.Fatalf("a Write after a loan changed the lent bytes (%v, %v)", lent, err)
	}
}

func TestReadRetriesTransientErrors(t *testing.T) {
	dt := NewDetector(1, Config{Retries: 2, FailThreshold: 3})
	attempts := 0
	data, err := readScript(dt, 0, func(dst []byte) (float64, error) {
		attempts++
		if attempts < 3 {
			return 1, storage.ErrFailed
		}
		dst[0] = 42
		return 1, nil
	})
	if err != nil || len(data) != 1 || data[0] != 42 {
		t.Fatalf("Read = %v, %v after %d attempts", data, err, attempts)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	// Success reset the strike count: two more errors stay below 3.
	dt.Observe(0, 1, storage.ErrFailed)
	if st := dt.Observe(0, 1, storage.ErrFailed); st != Suspect {
		t.Fatalf("two errors after a successful read: %v, want Suspect", st)
	}
}

func TestReadExhaustsRetriesAndDeclares(t *testing.T) {
	dt := NewDetector(1, Config{Retries: 2, FailThreshold: 3})
	var fired bool
	dt.SetOnFail(func(int) { fired = true })
	attempts := 0
	_, err := readScript(dt, 0, func(dst []byte) (float64, error) {
		attempts++
		return 1, storage.ErrFailed
	})
	if !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("err = %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	// 3 consecutive failures ≥ threshold 3 → declared during the read.
	if !fired {
		t.Fatal("three failed attempts at threshold 3 did not declare the disk")
	}
}

func TestReadBadBlockSurfacesAfterOneRetry(t *testing.T) {
	dt := NewDetector(1, Config{Retries: 5})
	attempts := 0
	_, err := readScript(dt, 0, func(dst []byte) (float64, error) {
		attempts++
		return 1, storage.ErrBadBlock
	})
	if !errors.Is(err, storage.ErrBadBlock) {
		t.Fatalf("err = %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one retry for a media error)", attempts)
	}
}

func TestReadNotWrittenSurfacesImmediately(t *testing.T) {
	dt := NewDetector(1, Config{Retries: 5})
	attempts := 0
	_, err := readScript(dt, 0, func(dst []byte) (float64, error) {
		attempts++
		return 1, storage.ErrNotWritten
	})
	if !errors.Is(err, storage.ErrNotWritten) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d, want immediate ErrNotWritten", err, attempts)
	}
}

// A negative Retries disables retry entirely: one attempt per Read, one
// strike scored. Retries == 0 keeps selecting the default.
func TestZeroRetryConfig(t *testing.T) {
	dt := NewDetector(2, Config{Retries: -1})
	attempts := 0
	_, err := readScript(dt, 0, func(dst []byte) (float64, error) {
		attempts++
		return 1, storage.ErrFailed
	})
	if !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("Read error %v", err)
	}
	if attempts != 1 {
		t.Fatalf("%d attempts with retry disabled, want 1", attempts)
	}
	// One strike scored: the default threshold 3 is reached two errors on.
	if st := dt.Observe(0, 1, storage.ErrFailed); st != Suspect {
		t.Fatalf("second strike: %v, want Suspect", st)
	}
	if st := dt.Observe(0, 1, storage.ErrFailed); st != Down {
		t.Fatalf("third strike: %v, want Down", st)
	}

	// Zero still means "default": up to 3 attempts.
	dt = NewDetector(2, Config{})
	attempts = 0
	readScript(dt, 0, func(dst []byte) (float64, error) {
		attempts++
		return 1, storage.ErrFailed
	})
	if attempts != 3 {
		t.Fatalf("%d attempts with default retries, want 3", attempts)
	}
}

// Stop, a no-op, does not disturb Observe users (the tick-driven core).
func TestStopLeavesObserveWorking(t *testing.T) {
	dt := NewDetector(1, Config{FailThreshold: 2})
	dt.Stop()
	dt.Observe(0, 1, storage.ErrFailed)
	if st := dt.Observe(0, 1, storage.ErrFailed); st != Down {
		t.Fatalf("Observe after Stop: %v, want Down", st)
	}
}

func TestDetectLatencies(t *testing.T) {
	dt := NewDetector(4, Config{FailThreshold: 3})
	var now int64
	dt.SetClock(func() int64 { return now })

	// Disk 1: strikes at rounds 10, 11, 14 → declared, latency 4.
	now = 10
	dt.Observe(1, 1, storage.ErrFailed)
	now = 11
	dt.Observe(1, 1, storage.ErrFailed)
	now = 14
	dt.Observe(1, 1, storage.ErrFailed)
	if got := dt.DetectLatencies(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("DetectLatencies = %v, want [4]", got)
	}

	// Disk 2: a clean read mid-run restarts the window.
	now = 20
	dt.Observe(2, 1, storage.ErrFailed)
	now = 21
	dt.Observe(2, 1, nil) // window closes
	now = 30
	dt.Observe(2, 1, storage.ErrFailed)
	now = 31
	dt.Observe(2, 1, storage.ErrFailed)
	now = 32
	dt.Observe(2, 1, storage.ErrFailed)
	got := dt.DetectLatencies()
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("DetectLatencies = %v, want [4 2]", got)
	}

	// Reset clears the suspicion window too.
	dt.Reset(1)
	now = 40
	dt.Observe(1, 1, storage.ErrFailed)
	now = 45
	dt.Observe(1, 1, storage.ErrFailed)
	dt.Observe(1, 1, storage.ErrFailed)
	if got := dt.DetectLatencies(); len(got) != 3 || got[2] != 5 {
		t.Fatalf("DetectLatencies after Reset = %v, want third entry 5", got)
	}
}

func TestDetectLatencyCorruptionClock(t *testing.T) {
	dt := NewDetector(2, Config{CorruptionThreshold: 3})
	var now int64
	dt.SetClock(func() int64 { return now })
	now = 5
	dt.Observe(0, 1, storage.ErrCorruptBlock)
	// Successful reads of other blocks do not exonerate rot.
	now = 6
	dt.Observe(0, 1, nil)
	now = 8
	dt.Observe(0, 1, storage.ErrCorruptBlock)
	now = 12
	dt.Observe(0, 1, storage.ErrCorruptBlock)
	if got := dt.DetectLatencies(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("DetectLatencies = %v, want [7]", got)
	}
}

// Regression: a deregistered target must be inert — before this fix the
// detector kept scoring probe results for nodes that had left the
// cluster, so a retired node could be re-declared failed and trigger a
// spurious failover.
func TestDeregisteredTargetNeverDeclares(t *testing.T) {
	dt := NewDetector(3, Config{FailThreshold: 3})
	var failed []int
	dt.SetOnFail(func(d int) { failed = append(failed, d) })

	dt.Observe(1, 1, storage.ErrFailed) // one strike before leaving
	dt.Deregister(1)
	// A storm of hard errors and corruptions well past every threshold.
	for i := 0; i < 50; i++ {
		if st := dt.Observe(1, 1, storage.ErrFailed); st != OK {
			t.Fatalf("observe %d on deregistered target: %v, want OK", i, st)
		}
		dt.Observe(1, 1, storage.ErrCorruptBlock)
	}
	if len(failed) != 0 {
		t.Fatalf("OnFail fired for deregistered target: %v", failed)
	}
	// Reset must not resurrect the slot.
	dt.Reset(1)
	for i := 0; i < 5; i++ {
		dt.Observe(1, 1, storage.ErrFailed)
	}
	if len(failed) != 0 {
		t.Fatalf("OnFail fired after Reset of deregistered target: %v", failed)
	}
	// Neighbors keep normal scoring.
	for i := 0; i < 3; i++ {
		dt.Observe(2, 1, storage.ErrFailed)
	}
	if len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("live neighbor declarations = %v, want [2]", failed)
	}
}

// Grow appends fresh targets with stable existing indices; new slots
// score normally and deregistered ones stay inert.
func TestDetectorGrow(t *testing.T) {
	dt := NewDetector(2, Config{FailThreshold: 2})
	var failed []int
	dt.SetOnFail(func(d int) { failed = append(failed, d) })
	dt.Deregister(0)
	if n := dt.Grow(2); n != 4 {
		t.Fatalf("Grow(2) = %d targets, want 4", n)
	}
	dt.Observe(0, 1, storage.ErrFailed)
	if st := dt.Observe(0, 1, storage.ErrFailed); st != OK {
		t.Fatalf("deregistered slot 0 scored after Grow: %v, want OK", st)
	}
	dt.Observe(3, 1, storage.ErrFailed)
	if st := dt.Observe(3, 1, storage.ErrFailed); st != Down {
		t.Fatalf("grown slot after threshold strikes: %v, want Down", st)
	}
	if len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("declarations = %v, want [3]", failed)
	}
}
