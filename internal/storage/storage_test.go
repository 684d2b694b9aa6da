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
	reads := 0
	a.SetReadHook(func(int, int64) (float64, error) { reads++; return 1, nil })
	if err := a.ReadInto(0, 1, make([]byte, 15)); err == nil {
		t.Error("accepted short buffer")
	}
	if reads != 0 {
		t.Errorf("a refused read reached the disk %d times, want 0", reads)
	}
	a.SetReadHook(nil)
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
	// Fresh medium comes back empty, owing what the disk held.
	if err := a.Replace(1); err != nil {
		t.Fatal(err)
	}
	if a.Failed(1) {
		t.Fatal("still failed after the swap")
	}
	if _, err := read(a, 1, 0); !errors.Is(err, ErrNotWritten) {
		t.Errorf("swapped disk should be empty: %v", err)
	}
	if a.NextOwed(1, 0) != 0 || a.OwedBlocks(1) != 1 {
		t.Errorf("swapped disk owes block %d of %d, want block 0 of 1", a.NextOwed(1, 0), a.OwedBlocks(1))
	}
}

func TestFailValidation(t *testing.T) {
	a := newArray(t)
	if err := a.Fail(7); err == nil {
		t.Error("accepted out-of-range disk")
	}
	if err := a.Replace(-2); err == nil {
		t.Error("accepted negative disk")
	}
	if a.NextOwed(-2, 0) != -1 || a.OwedBlocks(9) != 0 {
		t.Error("out-of-range disks owe blocks")
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
	if err := a.Replace(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(0, 0, block(7, 16)); err != nil {
		t.Fatal(err)
	}
	if err := a.Rejoin(0); err != nil {
		t.Fatal(err)
	}
	if _, err := readZero(a, 0, 5); err != nil {
		t.Fatalf("ReadZeroInto after hook removal: %v", err)
	}
}

// TestRepairRestoresHealthyFromAnyState: a medium swap brings a failed
// disk, or a rebuilding spare that failed in turn, back to Healthy once
// every block it owes is written back, and not before.
func TestRepairRestoresHealthyFromAnyState(t *testing.T) {
	for _, setup := range []func(a *Array) error{
		func(a *Array) error { return a.Fail(1) },
		func(a *Array) error { _ = a.Fail(1); _ = a.Replace(1); return a.Fail(1) },
	} {
		a := corruptArray(t) // disk 1 holds block 5
		if err := setup(a); err != nil {
			t.Fatal(err)
		}
		if err := a.Replace(1); err != nil {
			t.Fatal(err)
		}
		if got := a.NextOwed(1, 0); got != 5 || a.NextOwed(1, 6) != -1 || a.OwedBlocks(1) != 1 {
			t.Fatalf("disk 1 owes block %d of %d, want block 5 of 1", got, a.OwedBlocks(1))
		}
		if err := a.Rejoin(1); err == nil || a.State(1) != Rebuilding {
			t.Fatalf("Rejoin owing block 5 = %v, state %v", err, a.State(1))
		}
		if err := a.Write(1, 5, block(2, 16)); err != nil {
			t.Fatal(err)
		}
		if a.NextOwed(1, 0) != -1 || a.OwedBlocks(1) != 0 {
			t.Fatal("the write back did not clear the owed block")
		}
		if err := a.Rejoin(1); err != nil || a.State(1) != Healthy {
			t.Fatalf("Rejoin = %v, state %v, want Healthy", err, a.State(1))
		}
	}
}
