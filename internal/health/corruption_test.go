package health

import (
	"errors"
	"testing"

	"ftcms/internal/storage"
)

// TestCorruptBlockIsNotADiskStrike mirrors the bad-block classification:
// a checksum mismatch indicts the block, never the device's liveness.
func TestCorruptBlockIsNotADiskStrike(t *testing.T) {
	dt := NewDetector(4, Config{FailThreshold: 3, CorruptionThreshold: 11})
	var declared []int
	dt.SetOnFail(func(disk int) { declared = append(declared, disk) })
	for i := 0; i < 10; i++ {
		if st := dt.Observe(1, 1, storage.ErrCorruptBlock); st != OK {
			t.Fatalf("observation %d: state = %v, want OK", i, st)
		}
	}
	// No strike accrued: two hard errors stay below FailThreshold 3.
	dt.Observe(1, 1, storage.ErrFailed)
	if st := dt.Observe(1, 1, storage.ErrFailed); st != Suspect || len(declared) != 0 {
		t.Fatalf("two hard errors after ten corruptions: state %v, declared %v; want Suspect, none", st, declared)
	}
	// Disk 0 keeps its own count: its first corruption is far from 11.
	if st := dt.Observe(0, 1, storage.ErrCorruptBlock); st != OK {
		t.Fatalf("disk 0 first corruption: state = %v, want OK", st)
	}
	// Disk 1 counted all ten: the eleventh declares it.
	if st := dt.Observe(1, 1, storage.ErrCorruptBlock); st != Down || len(declared) != 1 || declared[0] != 1 {
		t.Fatalf("eleventh corruption: state %v, declared %v; want Down, [1]", st, declared)
	}
}

// TestCorruptBlockDoesNotResetHardStrikes pins that a corrupt read is
// neither a strike nor a success: an interleaved corruption must not
// launder a disk that is striking out on hard errors.
func TestCorruptBlockDoesNotResetHardStrikes(t *testing.T) {
	dt := NewDetector(2, Config{FailThreshold: 3})
	dt.Observe(0, 1, storage.ErrFailed)
	dt.Observe(0, 1, storage.ErrFailed)
	if st := dt.Observe(0, 1, storage.ErrCorruptBlock); st != Suspect {
		t.Fatalf("interleaved corruption: state = %v, want Suspect", st)
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

	// Reset (rejoin after rebuild) clears the cumulative count: three
	// more corruptions stay below the threshold of four.
	dt.Reset(2)
	for i := 0; i < 3; i++ {
		if st := dt.Observe(2, 1, storage.ErrCorruptBlock); st != OK {
			t.Fatalf("corruption %d after Reset: state = %v, want OK", i, st)
		}
	}
}

func TestCorruptionThresholdDefaultAndDisable(t *testing.T) {
	// Default threshold is 16.
	dt := NewDetector(1, Config{})
	for i := 0; i < 15; i++ {
		if st := dt.Observe(0, 1, storage.ErrCorruptBlock); st != OK {
			t.Fatalf("corruption %d under default: state = %v, want OK", i+1, st)
		}
	}
	if st := dt.Observe(0, 1, storage.ErrCorruptBlock); st != Down {
		t.Fatalf("16th corruption under default: state = %v, want Down", st)
	}

	// Negative disables escalation entirely.
	dt = NewDetector(1, Config{CorruptionThreshold: -1})
	for i := 0; i < 100; i++ {
		if st := dt.Observe(0, 1, storage.ErrCorruptBlock); st != OK {
			t.Fatalf("escalation disabled: corruption %d left state %v, want OK", i+1, st)
		}
	}
}

// TestReadCorruptBlockSurfacesAfterOneRetry mirrors
// TestReadBadBlockSurfacesAfterOneRetry: one retry (controller hiccups
// happen; rot does not heal), then the caller reconstructs.
func TestReadCorruptBlockSurfacesAfterOneRetry(t *testing.T) {
	dt := NewDetector(1, Config{Retries: 5, CorruptionThreshold: 3})
	var fired bool
	dt.SetOnFail(func(int) { fired = true })
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
	if fired {
		t.Fatal("two corrupt attempts declared the disk at threshold 3")
	}
	// Both attempts were observed: one more corruption reaches 3.
	if st := dt.Observe(0, 1, storage.ErrCorruptBlock); st != Down || !fired {
		t.Fatalf("third corruption: state %v, fired %v; want Down, declared", st, fired)
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
