package recovery

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ftcms/internal/layout"
	"ftcms/internal/storage"
)

const bs = 64 // block size for tests

func declusteredStore(t *testing.T, d, p int) *Store {
	t.Helper()
	l, err := layout.NewDeclustered(d, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := storage.NewArray(d, bs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(l, a)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// groupOf returns the parity group of logical data block i.
func groupOf(l layout.Layout, i int64) layout.Group {
	var g layout.Group
	l.GroupAt(l.Place(i), &g)
	return g
}

func clusteredStore(t *testing.T, d, p int) *Store {
	t.Helper()
	l, err := layout.NewClustered(d, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := storage.NewArray(d, bs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(l, a)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func flatStore(t *testing.T, d, p int, blocks int64) *Store {
	t.Helper()
	l, err := layout.NewFlatUniform(d, p, blocks)
	if err != nil {
		t.Fatal(err)
	}
	a, err := storage.NewArray(d, bs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(l, a)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// readDirect reads logical block i off its own disk.
func readDirect(s *Store, i int64) ([]byte, error) {
	a := s.Layout.Place(i)
	buf := make([]byte, s.Array.BlockSize())
	if err := s.Array.ReadInto(a.Disk, a.Block, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readBlock is readDirect, falling back to the parity group when the
// block's own disk does not answer.
func readBlock(s *Store, i int64) ([]byte, error) {
	if buf, err := readDirect(s, i); err == nil {
		return buf, nil
	}
	return s.Reconstruct(i)
}

// swapDisk puts fresh medium in for a failed disk, restores every block it
// owes from the rest of its group — a data block by Reconstruct, a parity
// column by recomputing it — and rejoins it.
func swapDisk(t *testing.T, s *Store, disk int) {
	t.Helper()
	if err := s.Array.Replace(disk); err != nil {
		t.Fatal(err)
	}
	var g layout.Group
	for b := s.Array.NextOwed(disk, 0); b >= 0; b = s.Array.NextOwed(disk, b+1) {
		idx := s.Layout.GroupAt(layout.BlockAddr{Disk: disk, Block: b}, &g)
		var data []byte
		var err error
		if idx < len(g.Data) {
			data, err = s.Reconstruct(g.Data[idx])
		} else {
			members := make([][]byte, len(g.Data))
			for k, a := range g.DataAddr {
				members[k] = make([]byte, bs)
				err = cmp.Or(err, s.Array.ReadZeroInto(a.Disk, a.Block, members[k]))
			}
			data = make([]byte, bs)
			[]func([]byte, ...[]byte){XOR, QEncode}[idx-len(g.Data)](data, members...)
		}
		if err != nil {
			t.Fatalf("restore disk %d block %d: %v", disk, b, err)
		}
		if err := s.Array.Write(disk, b, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Array.Rejoin(disk); err != nil {
		t.Fatal(err)
	}
}

func deterministicBlock(i int64) []byte {
	rng := rand.New(rand.NewSource(i*2654435761 + 1))
	b := make([]byte, bs)
	rng.Read(b)
	return b
}

func TestXOR(t *testing.T) {
	a := []byte{0xF0, 0x0F}
	b := []byte{0xFF, 0x00}
	dst := make([]byte, 2)
	XOR(dst, a, b)
	if dst[0] != 0x0F || dst[1] != 0x0F {
		t.Fatalf("XOR = %x", dst)
	}
	XOR(dst) // zero sources zeroes dst
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatal("XOR with no sources should zero dst")
	}
}

func TestXORPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	XOR(make([]byte, 2), []byte{1})
}

// Property: XOR is self-inverse: a ^ b ^ b == a.
func TestXORSelfInverse(t *testing.T) {
	f := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		tmp := make([]byte, n)
		XOR(tmp, a, b)
		dst := make([]byte, n)
		XOR(dst, tmp, b)
		return bytes.Equal(dst, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(nil, nil); err == nil {
		t.Error("accepted nils")
	}
	l, _ := layout.NewDeclustered(7, 3)
	a, _ := storage.NewArray(8, bs)
	if _, err := NewStore(l, a); err == nil {
		t.Error("accepted disk-count mismatch")
	}
}

// TestReconstructEveryDiskDeclustered is the core fault-tolerance
// integrity test (E10 substrate): write a stream, fail each disk in turn,
// and verify every block still reads back bit-for-bit.
func TestReconstructEveryDiskDeclustered(t *testing.T) {
	s := declusteredStore(t, 7, 3)
	const n = 210
	for i := int64(0); i < n; i++ {
		if err := s.WriteBlock(i, deterministicBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	for fail := 0; fail < 7; fail++ {
		if err := s.Array.Fail(fail); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			got, err := readBlock(s, i)
			if err != nil {
				t.Fatalf("disk %d failed: readBlock(%d): %v", fail, i, err)
			}
			if !bytes.Equal(got, deterministicBlock(i)) {
				t.Fatalf("disk %d failed: block %d reconstructed wrong", fail, i)
			}
		}
		swapDisk(t, s, fail)
	}
}

func TestReconstructClustered(t *testing.T) {
	s := clusteredStore(t, 8, 4)
	const n = 120
	for i := int64(0); i < n; i++ {
		if err := s.WriteBlock(i, deterministicBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	for fail := 0; fail < 8; fail++ {
		if err := s.Array.Fail(fail); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			got, err := readBlock(s, i)
			if err != nil {
				t.Fatalf("disk %d failed: readBlock(%d): %v", fail, i, err)
			}
			if !bytes.Equal(got, deterministicBlock(i)) {
				t.Fatalf("disk %d failed: block %d wrong", fail, i)
			}
		}
		swapDisk(t, s, fail)
	}
}

func TestReconstructFlat(t *testing.T) {
	s := flatStore(t, 9, 4, 108)
	const n = 108
	for i := int64(0); i < n; i++ {
		if err := s.WriteBlock(i, deterministicBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	for fail := 0; fail < 9; fail++ {
		if err := s.Array.Fail(fail); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			got, err := readBlock(s, i)
			if err != nil {
				t.Fatalf("disk %d failed: readBlock(%d): %v", fail, i, err)
			}
			if !bytes.Equal(got, deterministicBlock(i)) {
				t.Fatalf("disk %d failed: block %d wrong", fail, i)
			}
		}
		swapDisk(t, s, fail)
	}
}

func TestDoubleFailureUnrecoverable(t *testing.T) {
	s := declusteredStore(t, 7, 3)
	for i := int64(0); i < 42; i++ {
		if err := s.WriteBlock(i, deterministicBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Fail two disks that share a parity group. Find a block on disk a
	// whose group touches disk b.
	if err := s.Array.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Array.Fail(1); err != nil {
		t.Fatal(err)
	}
	sawUnrecoverable := false
	for i := int64(0); i < 42; i++ {
		addr := s.Layout.Place(i)
		if addr.Disk != 0 {
			continue
		}
		_, err := readBlock(s, i)
		if err == nil {
			continue // group does not include disk 1
		}
		if !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("readBlock(%d): %v, want ErrUnrecoverable", i, err)
		}
		sawUnrecoverable = true
	}
	if !sawUnrecoverable {
		t.Fatal("expected at least one unrecoverable block with two failures")
	}
}

func TestVerifyParity(t *testing.T) {
	s := declusteredStore(t, 7, 3)
	for i := int64(0); i < 42; i++ {
		if err := s.WriteBlock(i, deterministicBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 42; i++ {
		if err := s.VerifyParity(i); err != nil {
			t.Fatalf("VerifyParity(%d): %v", i, err)
		}
	}
	// Corrupt a data block without refreshing parity: detectable.
	addr := s.Layout.Place(10)
	if err := s.Array.Write(addr.Disk, addr.Block, make([]byte, bs)); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyParity(10); err == nil {
		t.Fatal("VerifyParity missed corruption")
	}
}

// TestPartialGroupReconstruction: blocks whose groups are only partially
// written still reconstruct (absent members count as zero).
func TestPartialGroupReconstruction(t *testing.T) {
	s := declusteredStore(t, 7, 3)
	// Write only block 0 (its group mate D1 stays absent).
	if err := s.WriteBlock(0, deterministicBlock(0)); err != nil {
		t.Fatal(err)
	}
	addr := s.Layout.Place(0)
	if err := s.Array.Fail(addr.Disk); err != nil {
		t.Fatal(err)
	}
	got, err := readBlock(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, deterministicBlock(0)) {
		t.Fatal("partial-group reconstruction wrong")
	}
}
