// Package recovery implements parity maintenance and degraded-mode
// reconstruction over a storage.Array and a layout.Layout — the data path
// that actually survives the single disk failure the paper's schemes are
// designed around (and, with a Q column, a second one).
//
// A Store writes a logical stream of data blocks, computing and storing
// the parity block(s) of every group it completes. Reconstruct rebuilds a
// block of a failed disk from the surviving members of its parity group,
// exactly as §3 of the paper describes (the XOR cost is assumed negligible
// next to the disk reads, which the timing layers model separately; here,
// on a 2-vCPU AVX-512 x86-64 machine, XORing the three 4 KB survivors of a
// p = 4 group costs ≈ 0.3-0.4 µs, of the ≈ 7 µs a whole Reconstruct takes
// from an in-memory array).
package recovery

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ftcms/internal/layout"
	"ftcms/internal/storage"
)

// ErrUnrecoverable is returned when a block cannot be served: more than
// one disk of its parity group has failed.
var ErrUnrecoverable = errors.New("recovery: block unrecoverable (multiple failures in parity group)")

// Store ties a placement to an array and keeps parity consistent. It is
// owned by one goroutine, like the core.Server it backs: no method may
// run concurrently with another.
type Store struct {
	// Layout places data and parity blocks.
	Layout layout.Layout
	// Array holds the bytes.
	Array *storage.Array

	// free is the server's one freelist of block-sized buffers: parity
	// maintenance here and core's fetch, reconstruction and delivery
	// paths all draw from it. A LIFO stack, not the sync package's pool,
	// whose Put(&b) boxes the slice header — one heap allocation per
	// recycled block.
	free [][]byte
	// wg is the group WriteRun fills for each block of its run.
	wg layout.Group
	// held[disk] is every block the disk has held, by ascending Key: each
	// block's first write through the store enters it.
	held [][]Member
}

// Member is a block a disk holds, under a key from the layout alone: a data
// block's logical index; for a P or Q block, the lowest data member of its
// group. A disk has one member per group, so keys are distinct.
type Member struct{ Key, Block int64 }

// Held returns every block the disk has held, by ascending Key — the blocks
// a spare swapped in for it owes. The slice is the store's own: valid until
// the next write, and not to be modified.
func (s *Store) Held(disk int) []Member { return s.held[disk] }

// GetBlock returns a block-sized buffer with unspecified contents.
func (s *Store) GetBlock() []byte {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return b
	}
	return make([]byte, s.Array.BlockSize())
}

// PutBlock recycles a block buffer. Callers must drop every reference
// first.
func (s *Store) PutBlock(b []byte) {
	if len(b) != s.Array.BlockSize() {
		return
	}
	s.free = append(s.free, b)
}

// NewStore validates that the array matches the layout's disk count.
func NewStore(l layout.Layout, a *storage.Array) (*Store, error) {
	if l == nil || a == nil {
		return nil, errors.New("recovery: nil layout or array")
	}
	if l.Disks() != a.Disks() {
		return nil, fmt.Errorf("recovery: layout has %d disks, array %d", l.Disks(), a.Disks())
	}
	return &Store{Layout: l, Array: a, held: make([][]Member, a.Disks())}, nil
}

// WriteBlock stores data, zero-padded to one block, as logical block i and
// refreshes its group's parity: WriteRun's one-block case.
func (s *Store) WriteBlock(i int64, data []byte) error { return s.WriteRun(i, 1, 1, data) }

// WriteRun stores n logical blocks, first, first+stride, …, block k holding
// data[k·bs:(k+1)·bs] zero-padded, one parity group at a time: at the
// run's first block in a group it writes the group's run members and its
// parity, computed once from their bytes and from the members outside the
// run (read; absent ones as zeroes), so groups may be written partially.
func (s *Store) WriteRun(first, stride, n int64, data []byte) error {
	if stride < 1 || int64(len(data)) > n*int64(s.Array.BlockSize()) {
		return fmt.Errorf("recovery: %d bytes do not fit a run of %d blocks by %d", len(data), n, stride)
	}
	r := run{first, stride, n, data}
	for k := int64(0); k < n; k++ {
		s.Layout.GroupAt(s.Layout.Place(first+k*stride), &s.wg)
		lead := int64(-1) // the group's first block in the run
		for _, i := range s.wg.Data {
			if lead = r.index(i); lead >= 0 {
				break
			}
		}
		if lead != k {
			continue // written at an earlier block of the run
		}
		p, q, err := s.parityOf(s.wg, r)
		if err == nil {
			err = s.write(s.wg.Parity, slices.Min(s.wg.Data), p)
		}
		if err == nil && q != nil {
			err = s.write(s.wg.Q, slices.Min(s.wg.Data), q)
		}
		s.PutBlock(p)
		s.PutBlock(q) // a nil q is not block-sized: ignored
		if err != nil {
			return fmt.Errorf("recovery: writing the group of block %d: %w", s.wg.Data[0], err)
		}
	}
	return nil
}

// write stores b at a and enters the block in its disk's index under key.
func (s *Store) write(a layout.BlockAddr, key int64, b []byte) error {
	if err := s.Array.Write(a.Disk, a.Block, b); err != nil {
		return err
	}
	ms := s.held[a.Disk]
	k, found := len(ms), false
	if k > 0 && ms[k-1].Key >= key { // writes run nearly in key order
		k, found = slices.BinarySearchFunc(ms, key, func(m Member, key int64) int { return cmp.Compare(m.Key, key) })
	}
	if !found {
		s.held[a.Disk] = slices.Insert(ms, k, Member{key, a.Block})
	}
	return nil
}

// run is the blocks of one WriteRun.
type run struct {
	first, stride, n int64
	data             []byte
}

// index returns logical block i's place in the run, or -1.
func (r run) index(i int64) int64 {
	if off := i - r.first; off >= 0 && off%r.stride == 0 && off/r.stride < r.n {
		return off / r.stride
	}
	return -1
}

// parityOf computes the group's parity column(s) into buffers off the
// freelist that the caller puts back (also on error); q is nil without a
// Q column. Data members in the run r are written from its bytes on the
// way; the rest are read, absent ones as zeroes.
func (s *Store) parityOf(g layout.Group, r run) (p, q []byte, err error) {
	member := s.GetBlock()
	defer s.PutBlock(member)
	p = s.GetBlock()
	clear(p)
	if g.HasQ {
		q = s.GetBlock()
		clear(q)
	}
	// Last member first: Q folds in by Horner's rule, Σ g^j·D_j.
	bs, end := int64(len(member)), int64(len(r.data))
	for j := len(g.DataAddr) - 1; j >= 0; j-- {
		a, b := g.DataAddr[j], member
		if k := r.index(g.Data[j]); k < 0 {
			err = s.Array.ReadZeroInto(a.Disk, a.Block, member)
		} else {
			lo := min(k*bs, end)
			if b = r.data[lo:min(lo+bs, end)]; int64(len(b)) < bs {
				b = member // the short last block, or padding past the data
				clear(b[copy(b, r.data[lo:]):])
			}
			err = s.write(a, g.Data[j], b)
		}
		if err != nil {
			return p, q, err
		}
		XORInto(p, b)
		if q != nil {
			gfQStep(q, b)
		}
	}
	return p, q, nil
}

// Reconstruct rebuilds logical block i from the other members of its
// parity group, without attempting a direct read: every member that
// answers is read (absent blocks on healthy disks as zeroes), the rest
// join i on the erasure list, and RecoverPQ solves the group — for
// single-parity groups in its q == nil form. It fails with
// ErrUnrecoverable when more members are unreadable than the group has
// parity columns: one besides i under P+Q, none under single parity.
func (s *Store) Reconstruct(i int64) ([]byte, error) {
	var g layout.Group
	s.Layout.GroupAt(s.Layout.Place(i), &g)
	nd := len(g.Data)
	addrs := append(slices.Clone(g.DataAddr), g.Parity)
	if g.HasQ {
		addrs = append(addrs, g.Q)
	}
	// RecoverPQ numbering: data 0..nd-1, P at nd, Q at nd+1 (nil without
	// a Q column). Buffers at unreadable positions are output slots.
	x := slices.Index(g.Data, i)
	bufs := make([][]byte, nd+2)
	bufs[x] = make([]byte, s.Array.BlockSize())
	missing := []int{x}
	for idx, a := range addrs {
		if idx == x {
			continue
		}
		bufs[idx] = s.GetBlock()
		defer s.PutBlock(bufs[idx])
		if s.Array.ReadZeroInto(a.Disk, a.Block, bufs[idx]) != nil {
			missing = append(missing, idx)
		}
	}
	if err := RecoverPQ(bufs[:nd], bufs[nd], bufs[nd+1], missing); err != nil {
		return nil, err
	}
	return bufs[x], nil
}

// VerifyParity recomputes the parity of block i's group from data and
// compares with the stored parity block (both P and Q for double-parity
// layouts), returning an error on mismatch — a test/fsck helper.
func (s *Store) VerifyParity(i int64) error {
	var g layout.Group
	s.Layout.GroupAt(s.Layout.Place(i), &g)
	want, wantQ, err := s.parityOf(g, run{stride: 1})
	defer s.PutBlock(want)
	defer s.PutBlock(wantQ)
	if err != nil {
		return err
	}
	got := s.GetBlock() // each stored parity column goes through it
	defer s.PutBlock(got)
	check := func(name string, a layout.BlockAddr, want []byte) error {
		if err := s.Array.ReadZeroInto(a.Disk, a.Block, got); err != nil {
			return err
		}
		for k := range want {
			if want[k] != got[k] {
				return fmt.Errorf("recovery: %s mismatch for group of block %d at byte %d", name, i, k)
			}
		}
		return nil
	}
	if err := check("parity", g.Parity, want); err != nil || !g.HasQ {
		return err
	}
	return check("Q parity", g.Q, wantQ)
}
