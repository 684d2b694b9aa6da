package storage

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"unsafe"
)

// corruptArray returns a 4×16 array with block 5 of disks 0..2 written
// with distinct contents.
func corruptArray(t *testing.T) *Array {
	t.Helper()
	a := newArray(t)
	for disk := 0; disk < 3; disk++ {
		if err := a.Write(disk, 5, block(byte(disk+1), 16)); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestReadVerifiesChecksum(t *testing.T) {
	a := corruptArray(t)
	if _, err := read(a, 0, 5); err != nil {
		t.Fatalf("read of intact block: %v", err)
	}
	if err := a.CorruptBits(0, 5, []uint64{3}); err != nil {
		t.Fatalf("CorruptBits: %v", err)
	}
	if _, err := read(a, 0, 5); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("read of corrupt block = %v, want ErrCorruptBlock", err)
	}
	// Corruption indicts the block, not the disk or its neighbours.
	if _, err := read(a, 1, 5); err != nil {
		t.Fatalf("read of sibling block: %v", err)
	}
	// A rewrite re-records the checksum — the repair path's cure.
	if err := a.Write(0, 5, block(9, 16)); err != nil {
		t.Fatal(err)
	}
	data, err := read(a, 0, 5)
	if err != nil {
		t.Fatalf("read after repair rewrite: %v", err)
	}
	if !bytes.Equal(data, block(9, 16)) {
		t.Fatalf("read after rewrite = %v, want fill 9", data)
	}
}

// TestFailedDiskNeverReturnsZeros pins the hazard called out in the
// package comment: no read variant may ever hand back fabricated zero
// bytes for a failed disk or an unrebuilt spare block — a reconstruction
// that XORed them in would be silently wrong.
func TestFailedDiskNeverReturnsZeros(t *testing.T) {
	a := corruptArray(t)
	if err := a.Fail(0); err != nil {
		t.Fatal(err)
	}
	sentinel := block(0xAA, 16)

	dst := append([]byte(nil), sentinel...)
	if err := a.ReadInto(0, 5, dst); !errors.Is(err, ErrFailed) {
		t.Fatalf("ReadInto on failed disk = %v, want ErrFailed", err)
	}
	if !bytes.Equal(dst, sentinel) {
		t.Fatalf("ReadInto on failed disk mutated dst to %v", dst)
	}
	dst = append(dst[:0], sentinel...)
	if err := a.ReadZeroInto(0, 5, dst); !errors.Is(err, ErrFailed) {
		t.Fatalf("ReadZeroInto on failed disk = %v, want ErrFailed", err)
	}
	if !bytes.Equal(dst, sentinel) {
		t.Fatalf("ReadZeroInto on failed disk mutated dst to %v", dst)
	}

	// Same discipline for a rebuilding spare's unrebuilt blocks: absent
	// means ErrNotWritten, never zeroes.
	if err := a.Replace(0); err != nil {
		t.Fatal(err)
	}
	dst = append(dst[:0], sentinel...)
	if err := a.ReadZeroInto(0, 5, dst); !errors.Is(err, ErrNotWritten) {
		t.Fatalf("ReadZeroInto on unrebuilt block = %v, want ErrNotWritten", err)
	}
	if !bytes.Equal(dst, sentinel) {
		t.Fatalf("ReadZeroInto on unrebuilt block mutated dst to %v", dst)
	}
}

// TestReadZeroIntoCorruptBlock pins that the zero-fill convention never
// masks corruption: a corrupt-flagged block surfaces ErrCorruptBlock
// from ReadZeroInto exactly like plain reads, with no zero (or corrupt)
// bytes delivered.
func TestReadZeroIntoCorruptBlock(t *testing.T) {
	a := corruptArray(t)
	if err := a.CorruptBits(1, 5, []uint64{0, 77}); err != nil {
		t.Fatal(err)
	}
	sentinel := block(0xAA, 16)
	dst := append([]byte(nil), sentinel...)
	if err := a.ReadZeroInto(1, 5, dst); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("ReadZeroInto on corrupt block = %v, want ErrCorruptBlock", err)
	}
	if !bytes.Equal(dst, sentinel) {
		t.Fatalf("ReadZeroInto on corrupt block mutated dst to %v", dst)
	}
}

func TestCorruptBitsSemantics(t *testing.T) {
	a := corruptArray(t)
	if err := a.CorruptBits(0, 9, []uint64{1}); !errors.Is(err, ErrNotWritten) {
		t.Fatalf("corrupt absent block = %v, want ErrNotWritten", err)
	}
	if err := a.Fail(2); err != nil {
		t.Fatal(err)
	}
	if err := a.CorruptBits(2, 5, []uint64{1}); !errors.Is(err, ErrFailed) {
		t.Fatalf("corrupt failed disk = %v, want ErrFailed", err)
	}
	// Bit offsets wrap modulo the block width, and offsets that meet there
	// flip their bit once rather than cancel: the block reads corrupt.
	width := uint64(16 * 8)
	if err := a.CorruptBits(0, 5, []uint64{7, 7 + width}); err != nil {
		t.Fatal(err)
	}
	if _, err := read(a, 0, 5); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("read after coinciding flips = %v, want ErrCorruptBlock", err)
	}
	want := block(1, 16)
	want[0] ^= 1 << 7
	if got := a.disks[0][5].data; !bytes.Equal(got, want) {
		t.Fatalf("block after coinciding flips = %v, want %v (bit 7 flipped once)", got, want)
	}
}

func TestCorruptRandomBlockDeterministic(t *testing.T) {
	a := newArray(t)
	for _, b := range []int64{9, 3, 7} {
		if err := a.Write(0, b, block(1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// Written blocks are ranked in ascending order: pick 1 → block 7.
	got, err := a.CorruptRandomBlock(0, 1, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("CorruptRandomBlock pick 1 hit block %d, want 7", got)
	}
	if _, err := read(a, 0, 7); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("read of randomly corrupted block = %v, want ErrCorruptBlock", err)
	}
	if _, err := a.CorruptRandomBlock(1, 0, []uint64{0}); !errors.Is(err, ErrNotWritten) {
		t.Fatalf("CorruptRandomBlock on empty disk = %v, want ErrNotWritten", err)
	}
}

func TestReplaceDropsChecksums(t *testing.T) {
	a := corruptArray(t)
	if err := a.CorruptBits(0, 5, []uint64{4}); err != nil {
		t.Fatal(err)
	}
	if err := a.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Replace(0); err != nil {
		t.Fatal(err)
	}
	// The spare is fresh medium: rebuilding the block there must not
	// trip over the dead disk's stale checksum.
	if err := a.Write(0, 5, block(7, 16)); err != nil {
		t.Fatal(err)
	}
	data, err := read(a, 0, 5)
	if err != nil {
		t.Fatalf("read of rebuilt block: %v", err)
	}
	if !bytes.Equal(data, block(7, 16)) {
		t.Fatalf("rebuilt block = %v, want fill 7", data)
	}
}

func TestAuditChecksums(t *testing.T) {
	a := corruptArray(t)
	if bad := a.AuditChecksums(); len(bad) != 0 {
		t.Fatalf("audit of intact array = %v, want none", bad)
	}
	if err := a.CorruptBits(2, 5, []uint64{8}); err != nil {
		t.Fatal(err)
	}
	if err := a.CorruptBits(0, 5, []uint64{8}); err != nil {
		t.Fatal(err)
	}
	bad := a.AuditChecksums()
	want := [][2]int64{{0, 5}, {2, 5}}
	if len(bad) != 2 || bad[0] != want[0] || bad[1] != want[1] {
		t.Fatalf("audit = %v, want %v", bad, want)
	}
	// Repair rewrites clear the audit.
	if err := a.Write(0, 5, block(1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(2, 5, block(3, 16)); err != nil {
		t.Fatal(err)
	}
	if bad := a.AuditChecksums(); len(bad) != 0 {
		t.Fatalf("audit after rewrites = %v, want none", bad)
	}
}

// TestLentBytesStayVerified pins Lend's promise: the slice it hands out
// keeps the bytes that were verified when it was lent, whatever happens to
// the block afterwards, while the next read sees what the block holds now.
func TestLentBytesStayVerified(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(a *Array) error
		want error  // of the next read of the block
		next []byte // its bytes when it succeeds
	}{
		{"CorruptBits", func(a *Array) error { return a.CorruptBits(1, 5, []uint64{3, 90}) }, ErrCorruptBlock, nil},
		{"Write", func(a *Array) error { return a.Write(1, 5, block(9, 16)) }, nil, block(9, 16)},
		{"Replace", swapMedium(1), ErrNotWritten, nil},
		{"Replace twice", swapMedium(2), ErrNotWritten, nil},
	} {
		a := corruptArray(t)
		lent, slow, err := a.Lend(1, 5)
		if err != nil || slow != 1 || !bytes.Equal(lent, block(2, 16)) {
			t.Fatalf("%s: Lend = %v, %v, %v", tc.name, lent, slow, err)
		}
		if again, _, _ := a.Lend(1, 5); &again[0] != &lent[0] {
			t.Fatalf("%s: a second Lend of an unchanged block copied it", tc.name)
		}
		if err := tc.do(a); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(lent, block(2, 16)) {
			t.Errorf("%s changed lent bytes to %v", tc.name, lent)
		}
		got, _, err := a.Lend(1, 5)
		if !errors.Is(err, tc.want) || tc.want == nil && !bytes.Equal(got, tc.next) {
			t.Errorf("%s: next read = %v, %v; want %v, %v", tc.name, got, err, tc.want, tc.next)
		}
	}
}

// TestSwapKeepsSlotBuffers: a medium swap leaves every slot of the disk
// unwritten — reads and CorruptBits report ErrNotWritten, Written is false,
// the audit finds nothing — but each slot keeps its buffer, so its next
// Write allocates nothing and lands in the same bytes. A slot whose bytes
// were lent before the swap gets fresh ones, and the loan keeps what it
// was lent.
func TestSwapKeepsSlotBuffers(t *testing.T) {
	for _, swap := range []struct {
		name string
		do   func(a *Array) error
	}{
		{"Replace", swapMedium(1)},
		{"Replace twice", swapMedium(2)},
	} {
		a := corruptArray(t)
		if err := a.Write(1, 7, block(7, 16)); err != nil {
			t.Fatal(err)
		}
		lent, _, err := a.Lend(1, 7)
		if err != nil {
			t.Fatal(err)
		}
		kept := &a.disks[1][5].data[0]
		if err := swap.do(a); err != nil {
			t.Fatal(err)
		}
		for _, b := range []int64{5, 7} {
			if _, err := read(a, 1, b); !errors.Is(err, ErrNotWritten) {
				t.Errorf("%s: read of block %d = %v, want ErrNotWritten", swap.name, b, err)
			}
			if err := a.CorruptBits(1, b, []uint64{1}); !errors.Is(err, ErrNotWritten) {
				t.Errorf("%s: CorruptBits of block %d = %v, want ErrNotWritten", swap.name, b, err)
			}
			if a.Written(1, b) {
				t.Errorf("%s: block %d still written", swap.name, b)
			}
		}
		if bad := a.AuditChecksums(); len(bad) != 0 {
			t.Errorf("%s: audit after the swap = %v, want none", swap.name, bad)
		}
		fresh, next := block(4, 16), block(8, 16)
		if n := mallocs(func() { _ = a.Write(1, 5, fresh) }); n != 0 || &a.disks[1][5].data[0] != kept {
			t.Errorf("%s: the first Write after the swap allocated %d objects (buffer kept: %v)", swap.name, n, &a.disks[1][5].data[0] == kept)
		}
		if err := a.Write(1, 7, next); err != nil {
			t.Fatal(err)
		}
		if got, err := read(a, 1, 5); err != nil || !bytes.Equal(got, fresh) {
			t.Errorf("%s: rewritten block 5 = %v, %v", swap.name, got, err)
		}
		if got, err := read(a, 1, 7); err != nil || !bytes.Equal(got, next) || !bytes.Equal(lent, block(7, 16)) {
			t.Errorf("%s: rewritten lent block 7 = %v, %v; the loan holds %v", swap.name, got, err, lent)
		}
	}
}

// swapMedium fails disk 1 and swaps its medium, times times: each swap
// after the first fails the spare before it.
func swapMedium(times int) func(a *Array) error {
	return func(a *Array) error {
		for range times {
			if err := a.Fail(1); err != nil {
				return err
			}
			if err := a.Replace(1); err != nil {
				return err
			}
		}
		return nil
	}
}

// mallocs counts the heap objects f allocates. Like testing.AllocsPerRun
// it runs f at GOMAXPROCS 1, so the global count is f's alone.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRecordSize pins the per-block overhead: the lent and owed marks fit
// in the padding after the CRC, so a record is a slice header and one
// 8-byte word (32 bytes on 64-bit).
func TestRecordSize(t *testing.T) {
	if n, want := unsafe.Sizeof(record{}), unsafe.Sizeof([]byte(nil))+8; n != want {
		t.Errorf("record is %d bytes, want %d", n, want)
	}
}
