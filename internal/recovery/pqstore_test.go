package recovery

import (
	"bytes"
	"errors"
	"testing"

	"ftcms/internal/layout"
	"ftcms/internal/storage"
)

func pqStore(t *testing.T, d, p int) *Store {
	t.Helper()
	l, err := layout.NewDeclusteredPQ(d, p)
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

// TestPQStoreVerifyParity: after writes, both parity columns of every
// group check out.
func TestPQStoreVerifyParity(t *testing.T) {
	s := pqStore(t, 13, 4)
	const n = 260
	for i := int64(0); i < n; i++ {
		if err := s.WriteBlock(i, deterministicBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		if err := s.VerifyParity(i); err != nil {
			t.Fatalf("VerifyParity(%d): %v", i, err)
		}
	}
}

// TestPQStoreReconstructEveryPair fails every pair of disks and checks
// that every written block still reads back bit-for-bit — the
// double-failure promise the Q column buys.
func TestPQStoreReconstructEveryPair(t *testing.T) {
	const d, n = 13, 260
	for f1 := 0; f1 < d; f1++ {
		for f2 := f1 + 1; f2 < d; f2++ {
			s := pqStore(t, d, 4)
			for i := int64(0); i < n; i++ {
				if err := s.WriteBlock(i, deterministicBlock(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Array.Fail(f1); err != nil {
				t.Fatal(err)
			}
			if err := s.Array.Fail(f2); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < n; i++ {
				got, err := readBlock(s, i)
				if err != nil {
					t.Fatalf("disks %d+%d failed: readBlock(%d): %v", f1, f2, i, err)
				}
				if !bytes.Equal(got, deterministicBlock(i)) {
					t.Fatalf("disks %d+%d failed: block %d reconstructed wrong", f1, f2, i)
				}
			}
		}
	}
}

// TestPQStoreTripleFailureUnrecoverable: with three member disks of one
// group down, blocks whose groups span all three are lost — and report
// ErrUnrecoverable rather than wrong bytes.
func TestPQStoreTripleFailureUnrecoverable(t *testing.T) {
	s := pqStore(t, 13, 4)
	const n = 260
	for i := int64(0); i < n; i++ {
		if err := s.WriteBlock(i, deterministicBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The group of block 0 names four disks; fail three of them
	// (including block 0's own disk).
	g := groupOf(s.Layout, 0)
	fail := []int{s.Layout.Place(0).Disk, g.Parity.Disk, g.Q.Disk}
	for _, f := range fail {
		if err := s.Array.Fail(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readBlock(s, 0); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("readBlock(0) with 3 group disks down: err = %v, want ErrUnrecoverable", err)
	}
	// Blocks touching at most two failed disks must still be exact.
	failed := map[int]bool{fail[0]: true, fail[1]: true, fail[2]: true}
	checked := 0
	for i := int64(0); i < n; i++ {
		gi := groupOf(s.Layout, i)
		down := 0
		for _, a := range gi.DataAddr {
			if failed[a.Disk] {
				down++
			}
		}
		if failed[gi.Parity.Disk] {
			down++
		}
		if failed[gi.Q.Disk] {
			down++
		}
		if down > 2 {
			continue
		}
		got, err := readBlock(s, i)
		if err != nil {
			t.Fatalf("readBlock(%d) with %d group disks down: %v", i, down, err)
		}
		if !bytes.Equal(got, deterministicBlock(i)) {
			t.Fatalf("block %d wrong with %d group disks down", i, down)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no recoverable blocks checked")
	}
}

// TestPQStorePartialGroups: groups written partially still carry correct
// P and Q (absent members count as zeroes).
func TestPQStorePartialGroups(t *testing.T) {
	s := pqStore(t, 13, 4)
	// Write every third block only.
	for i := int64(0); i < 120; i += 3 {
		if err := s.WriteBlock(i, deterministicBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 120; i += 3 {
		if err := s.VerifyParity(i); err != nil {
			t.Fatalf("VerifyParity(%d): %v", i, err)
		}
		if err := s.Array.Fail(s.Layout.Place(i).Disk); err == nil {
			got, err := readBlock(s, i)
			if err != nil {
				t.Fatalf("readBlock(%d): %v", i, err)
			}
			if !bytes.Equal(got, deterministicBlock(i)) {
				t.Fatalf("block %d wrong after its disk failed", i)
			}
			swapDisk(t, s, s.Layout.Place(i).Disk)
		}
	}
}

// TestWriteBlockAllocs pins the parity-maintaining write at zero
// allocations once the freelist is warm: the group is filled in place and
// every scratch buffer comes off the store's LIFO. That holds for whole
// groups and for a lone block whose group is otherwise absent: an absent
// member on a healthy disk reads as zeroes without an error being built.
func TestWriteBlockAllocs(t *testing.T) {
	for name, mk := range map[string]func() *Store{
		"single parity": func() *Store { return declusteredStore(t, 7, 3) },
		"P+Q":           func() *Store { return pqStore(t, 13, 4) },
	} {
		data := deterministicBlock(1)
		s := mk()
		write := func(n int64) {
			for i := int64(0); i < n; i++ {
				if err := s.WriteBlock(i, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		write(1024)
		if got := testing.AllocsPerRun(20, func() { write(32) }); got != 0 {
			t.Errorf("%s: WriteBlock allocates %v objects per 32 steady-state writes, want 0", name, got)
		}
		s = mk()
		if got := testing.AllocsPerRun(20, func() { write(1) }); got != 0 {
			t.Errorf("%s: overwriting a lone block of a group allocates %v objects per write, want 0", name, got)
		}
	}
}
