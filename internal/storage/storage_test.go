package storage

import (
	"bytes"
	"errors"
	"testing"
)

func newArray(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func block(fill byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(0, 16); err == nil {
		t.Error("accepted zero disks")
	}
	if _, err := NewArray(4, 0); err == nil {
		t.Error("accepted zero block size")
	}
	a := newArray(t)
	if a.Disks() != 4 || a.BlockSize() != 16 {
		t.Errorf("geometry: %d disks, block %d", a.Disks(), a.BlockSize())
	}
}

// read and readZero are ReadInto and ReadZeroInto into a fresh buffer.
func read(a *Array, disk int, block int64) ([]byte, error) {
	buf := make([]byte, a.BlockSize())
	if err := a.ReadInto(disk, block, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func readZero(a *Array, disk int, block int64) ([]byte, error) {
	buf := make([]byte, a.BlockSize())
	if err := a.ReadZeroInto(disk, block, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := newArray(t)
	data := block(0xAB, 16)
	if err := a.Write(2, 7, data); err != nil {
		t.Fatal(err)
	}
	got, err := read(a, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different bytes")
	}
	// Mutating the written buffer must not affect the stored block.
	data[1] = 0
	got3, _ := read(a, 2, 7)
	if got3[1] != 0xAB {
		t.Fatal("Write aliased caller's buffer")
	}
}

func TestWriteValidation(t *testing.T) {
	a := newArray(t)
	if err := a.Write(4, 0, block(0, 16)); err == nil {
		t.Error("accepted out-of-range disk")
	}
	if err := a.Write(-1, 0, block(0, 16)); err == nil {
		t.Error("accepted negative disk")
	}
	if err := a.Write(0, -1, block(0, 16)); err == nil {
		t.Error("accepted negative block")
	}
	if err := a.Write(0, 0, block(0, 15)); err == nil {
		t.Error("accepted short block")
	}
}

func TestReadErrors(t *testing.T) {
	a := newArray(t)
	if _, err := read(a, 0, 0); !errors.Is(err, ErrNotWritten) {
		t.Errorf("absent block: %v, want ErrNotWritten", err)
	}
	if _, err := read(a, 9, 0); err == nil {
		t.Error("accepted out-of-range disk")
	}
	// A wrong-sized buffer is refused with the address, before the disk is
	// consulted: it is not a served read.
	if err := a.Write(0, 1, block(1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadInto(0, 1, make([]byte, 15)); err == nil {
		t.Error("accepted short buffer")
	}
	if got := a.ReadCount(0); got != 0 {
		t.Errorf("ReadCount(0) = %d after a refused read, want 0", got)
	}
	got, err := readZero(a, 0, 0)
	if err != nil {
		t.Fatalf("ReadZeroInto on absent block: %v", err)
	}
	if !bytes.Equal(got, block(0, 16)) {
		t.Error("ReadZeroInto returned non-zero data")
	}
}

func TestFailRepair(t *testing.T) {
	a := newArray(t)
	if err := a.Write(1, 0, block(0x11, 16)); err != nil {
		t.Fatal(err)
	}
	if err := a.Fail(1); err != nil {
		t.Fatal(err)
	}
	if !a.Failed(1) || a.Failed(0) {
		t.Fatal("failure flags wrong")
	}
	if _, err := read(a, 1, 0); !errors.Is(err, ErrFailed) {
		t.Errorf("read of failed disk: %v, want ErrFailed", err)
	}
	if _, err := readZero(a, 1, 0); !errors.Is(err, ErrFailed) {
		t.Errorf("ReadZeroInto of failed disk: %v, want ErrFailed", err)
	}
	if err := a.Write(1, 1, block(0, 16)); !errors.Is(err, ErrFailed) {
		t.Errorf("write to failed disk: %v, want ErrFailed", err)
	}
	got := a.FailedDisks()
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("FailedDisks = %v", got)
	}
	// Repair brings the disk back empty.
	if err := a.Repair(1); err != nil {
		t.Fatal(err)
	}
	if a.Failed(1) {
		t.Fatal("still failed after repair")
	}
	if _, err := read(a, 1, 0); !errors.Is(err, ErrNotWritten) {
		t.Errorf("repaired disk should be empty: %v", err)
	}
}

func TestFailValidation(t *testing.T) {
	a := newArray(t)
	if err := a.Fail(7); err == nil {
		t.Error("accepted out-of-range disk")
	}
	if err := a.Repair(-2); err == nil {
		t.Error("accepted negative disk")
	}
}

func TestReadCounts(t *testing.T) {
	a := newArray(t)
	if err := a.Write(0, 0, block(1, 16)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := read(a, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readZero(a, 0, 5); err != nil { // absent: still counted
		t.Fatal(err)
	}
	if got := a.ReadCount(0); got != 4 {
		t.Errorf("ReadCount(0) = %d, want 4", got)
	}
	if got := a.ReadCount(1); got != 0 {
		t.Errorf("ReadCount(1) = %d, want 0", got)
	}
	if got := a.ReadCount(99); got != 0 {
		t.Errorf("ReadCount(99) = %d, want 0", got)
	}
	a.ResetReadCounts()
	if got := a.ReadCount(0); got != 0 {
		t.Errorf("after reset: %d", got)
	}
}

func TestFailIdempotent(t *testing.T) {
	a := newArray(t)
	if err := a.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Fail(1); err != nil {
		t.Fatalf("second Fail errored: %v", err)
	}
	if !a.Failed(1) || a.State(1) != Failed {
		t.Fatalf("disk 1 state = %v, want Failed", a.State(1))
	}
}

func TestReplaceRejoinLifecycle(t *testing.T) {
	a := newArray(t)
	if err := a.Write(2, 0, block(0xAB, 16)); err != nil {
		t.Fatal(err)
	}
	// Replace requires a failed disk.
	if err := a.Replace(2); err == nil {
		t.Error("Replace accepted a healthy disk")
	}
	if err := a.Fail(2); err != nil {
		t.Fatal(err)
	}
	if err := a.Replace(2); err != nil {
		t.Fatal(err)
	}
	if a.State(2) != Rebuilding {
		t.Fatalf("state = %v, want Rebuilding", a.State(2))
	}
	if a.Failed(2) {
		t.Error("rebuilding disk reports Failed")
	}
	// The spare comes up empty: absent blocks are ErrNotWritten, and
	// ReadZeroInto must NOT zero-fill them.
	if _, err := read(a, 2, 0); !errors.Is(err, ErrNotWritten) {
		t.Fatalf("read of unrebuilt block: %v, want ErrNotWritten", err)
	}
	if _, err := readZero(a, 2, 0); !errors.Is(err, ErrNotWritten) {
		t.Fatalf("ReadZeroInto of unrebuilt block: %v, want ErrNotWritten", err)
	}
	// Rebuild writes are accepted; rebuilt blocks read back.
	if err := a.Write(2, 0, block(0xCD, 16)); err != nil {
		t.Fatal(err)
	}
	got, err := read(a, 2, 0)
	if err != nil || !bytes.Equal(got, block(0xCD, 16)) {
		t.Fatalf("rebuilt block read = %v, %v", got, err)
	}
	if err := a.Rejoin(2); err != nil {
		t.Fatal(err)
	}
	if a.State(2) != Healthy {
		t.Fatalf("state after Rejoin = %v, want Healthy", a.State(2))
	}
	// ReadZeroInto zero-fills absent blocks again once healthy.
	if got, err := readZero(a, 2, 9); err != nil || !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("ReadZeroInto on healthy disk = %v, %v", got, err)
	}
	if err := a.Rejoin(2); err == nil {
		t.Error("Rejoin accepted a healthy disk")
	}
}

func TestFailDuringRebuildFailsSpare(t *testing.T) {
	a := newArray(t)
	if err := a.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := a.Replace(3); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(3, 0, block(1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := a.Fail(3); err != nil {
		t.Fatal(err)
	}
	if a.State(3) != Failed {
		t.Fatalf("state = %v, want Failed", a.State(3))
	}
	if _, err := read(a, 3, 0); !errors.Is(err, ErrFailed) {
		t.Fatalf("read of re-failed spare: %v, want ErrFailed", err)
	}
}

func TestReadHookInjection(t *testing.T) {
	a := newArray(t)
	if err := a.Write(0, 0, block(7, 16)); err != nil {
		t.Fatal(err)
	}
	var calls int
	a.SetReadHook(func(disk int, blk int64) (float64, error) {
		calls++
		if disk == 0 && blk == 0 && calls == 1 {
			return 1, ErrBadBlock
		}
		return 3.5, nil
	})
	if _, err := read(a, 0, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("first read: %v, want ErrBadBlock", err)
	}
	got := make([]byte, 16)
	slow, err := a.ReadTimedInto(0, 0, got)
	if err != nil || !bytes.Equal(got, block(7, 16)) {
		t.Fatalf("second read = %v, %v", got, err)
	}
	if slow != 3.5 {
		t.Fatalf("slowdown = %v, want 3.5", slow)
	}
	// Hook does not fire for failed disks: ErrFailed wins.
	if err := a.Fail(0); err != nil {
		t.Fatal(err)
	}
	before := calls
	if _, err := read(a, 0, 0); !errors.Is(err, ErrFailed) {
		t.Fatalf("read of failed disk: %v, want ErrFailed", err)
	}
	if calls != before {
		t.Error("hook fired for a failed disk")
	}
	// Removing the hook restores plain reads.
	a.SetReadHook(nil)
	if err := a.Repair(0); err != nil {
		t.Fatal(err)
	}
	if _, err := readZero(a, 0, 5); err != nil {
		t.Fatalf("ReadZeroInto after hook removal: %v", err)
	}
}

func TestRepairRestoresHealthyFromAnyState(t *testing.T) {
	a := newArray(t)
	for _, setup := range []func() error{
		func() error { return a.Fail(1) },
		func() error { _ = a.Fail(1); return a.Replace(1) },
	} {
		if err := setup(); err != nil {
			t.Fatal(err)
		}
		if err := a.Repair(1); err != nil {
			t.Fatal(err)
		}
		if a.State(1) != Healthy {
			t.Fatalf("state after Repair = %v, want Healthy", a.State(1))
		}
	}
}
