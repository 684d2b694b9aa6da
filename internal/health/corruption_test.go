package health

import (
	"errors"
	"testing"

	"ftcms/internal/storage"
)

// TestCorruptBlockIsNotADiskStrike mirrors the bad-block classification:
// a checksum mismatch indicts the block, never the device's liveness.
func TestCorruptBlockIsNotADiskStrike(t *testing.T) {
	dt := NewDetector(4, Config{FailThreshold: 3})
	for i := 0; i < 10; i++ {
		if st := dt.Observe(1, 1, storage.ErrCorruptBlock); st != OK {
			t.Fatalf("observation %d: state = %v, want OK", i, st)
		}
	}
	if n := dt.ConsecutiveErrors(1); n != 0 {
		t.Fatalf("consecutive errors = %d, want 0", n)
	}
	st := dt.Stats()
	if st.Corruptions != 10 {
		t.Fatalf("Stats.Corruptions = %d, want 10", st.Corruptions)
	}
	if st.BadBlocks != 0 || st.HardErrors != 0 || st.Declared != 0 {
		t.Fatalf("corruption bled into other classes: %+v", st)
	}
	if n := dt.CorruptionCount(1); n != 10 {
		t.Fatalf("CorruptionCount(1) = %d, want 10", n)
	}
	if n := dt.CorruptionCount(0); n != 0 {
		t.Fatalf("CorruptionCount(0) = %d, want 0", n)
	}
}

// TestCorruptBlockDoesNotResetHardStrikes pins that a corrupt read is
// neither a strike nor a success: an interleaved corruption must not
// launder a disk that is striking out on hard errors.
func TestCorruptBlockDoesNotResetHardStrikes(t *testing.T) {
	dt := NewDetector(2, Config{FailThreshold: 3})
	dt.Observe(0, 1, storage.ErrFailed)
	dt.Observe(0, 1, storage.ErrFailed)
	dt.Observe(0, 1, storage.ErrCorruptBlock)
	if n := dt.ConsecutiveErrors(0); n != 2 {
		t.Fatalf("consecutive errors after interleaved corruption = %d, want 2", n)
	}
	if st := dt.Observe(0, 1, storage.ErrFailed); st != Down {
		t.Fatalf("third hard error: state = %v, want Down", st)
	}
}

func TestCorruptionThresholdDeclaresDisk(t *testing.T) {
	dt := NewDetector(4, Config{CorruptionThreshold: 4})
	var declared []int
	dt.SetOnFail(func(disk int) { declared = append(declared, disk) })

	for i := 0; i < 3; i++ {
		if st := dt.Observe(2, 1, storage.ErrCorruptBlock); st != OK {
			t.Fatalf("below threshold: state = %v, want OK", st)
		}
	}
	// Successes on the same disk do not launder cumulative rot.
	dt.Observe(2, 1, nil)
	if st := dt.Observe(2, 1, storage.ErrCorruptBlock); st != Down {
		t.Fatalf("at threshold: state = %v, want Down", st)
	}
	// Declared exactly once, even as rot keeps being observed.
	dt.Observe(2, 1, storage.ErrCorruptBlock)
	if len(declared) != 1 || declared[0] != 2 {
		t.Fatalf("OnFail fired %v, want exactly [2]", declared)
	}
	if got := dt.Stats().Declared; got != 1 {
		t.Fatalf("Stats.Declared = %d, want 1", got)
	}

	// Reset (rejoin after rebuild) clears the cumulative count.
	dt.Reset(2)
	if dt.State(2) != OK || dt.CorruptionCount(2) != 0 {
		t.Fatalf("after Reset: state=%v count=%d, want OK/0", dt.State(2), dt.CorruptionCount(2))
	}
}

func TestCorruptionThresholdDefaultAndDisable(t *testing.T) {
	// Default threshold is 16.
	dt := NewDetector(1, Config{})
	for i := 0; i < 15; i++ {
		dt.Observe(0, 1, storage.ErrCorruptBlock)
	}
	if st := dt.State(0); st != OK {
		t.Fatalf("15 corruptions under default: state = %v, want OK", st)
	}
	if st := dt.Observe(0, 1, storage.ErrCorruptBlock); st != Down {
		t.Fatalf("16th corruption under default: state = %v, want Down", st)
	}

	// Negative disables escalation entirely.
	dt = NewDetector(1, Config{CorruptionThreshold: -1})
	for i := 0; i < 100; i++ {
		dt.Observe(0, 1, storage.ErrCorruptBlock)
	}
	if st := dt.State(0); st != OK {
		t.Fatalf("escalation disabled: state = %v, want OK", st)
	}
}

// TestReadCorruptBlockSurfacesAfterOneRetry mirrors
// TestReadBadBlockSurfacesAfterOneRetry: one retry (controller hiccups
// happen; rot does not heal), then the caller reconstructs.
func TestReadCorruptBlockSurfacesAfterOneRetry(t *testing.T) {
	dt := NewDetector(1, Config{Retries: 5})
	attempts := 0
	_, err := readScript(dt, 0, func(dst []byte) (float64, error) {
		attempts++
		return 1, storage.ErrCorruptBlock
	})
	if !errors.Is(err, storage.ErrCorruptBlock) {
		t.Fatalf("Read = %v, want ErrCorruptBlock", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one retry)", attempts)
	}
	if got := dt.Stats().Corruptions; got != 2 {
		t.Fatalf("Stats.Corruptions = %d, want 2 (both attempts observed)", got)
	}
	if dt.State(0) != OK {
		t.Fatalf("state = %v, want OK", dt.State(0))
	}
}

// TestReadCorruptBlockRecoversOnRetry pins that a first-attempt
// mismatch which heals on retry (e.g. a transient bus flip rather than
// at-rest rot) is served normally.
func TestReadCorruptBlockRecoversOnRetry(t *testing.T) {
	dt := NewDetector(1, Config{})
	attempts := 0
	data, err := readScript(dt, 0, func(dst []byte) (float64, error) {
		attempts++
		if attempts == 1 {
			return 1, storage.ErrCorruptBlock
		}
		dst[0] = 42
		return 1, nil
	})
	if err != nil || len(data) != 1 {
		t.Fatalf("Read = (%v, %v), want data", data, err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}
