// Package recovery implements parity maintenance and degraded-mode
// reconstruction over a storage.Array and a layout.Layout — the data path
// that actually survives the single disk failure the paper's schemes are
// designed around (and, with a Q column, a second one).
//
// A Store writes a logical stream of data blocks, computing and storing
// the parity block(s) of every group it completes. Reconstruct rebuilds a
// block of a failed disk from the surviving members of its parity group,
// exactly as §3 of the paper describes (the XOR cost is assumed negligible
// next to the disk reads, which the timing layers model separately).
package recovery

import (
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
	// wg is the group WriteBlock fills for its parity refresh.
	wg layout.Group
}

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
	return &Store{Layout: l, Array: a}, nil
}

// WriteBlock stores data as logical block i and refreshes its group's
// parity. Absent group members read as zeroes, so groups may be written
// in any order and partially.
func (s *Store) WriteBlock(i int64, data []byte) error {
	addr := s.Layout.Place(i)
	if err := s.Array.Write(addr.Disk, addr.Block, data); err != nil {
		return err
	}
	s.Layout.GroupAt(addr, &s.wg)
	return s.rebuildParity(s.wg)
}

// parityOf computes the group's parity column(s) from its data members,
// absent ones reading as zeroes, into buffers off the freelist that the
// caller puts back (also on error); q is nil without a Q column.
func (s *Store) parityOf(g layout.Group) (p, q []byte, err error) {
	member := s.GetBlock()
	defer s.PutBlock(member)
	p = s.GetBlock()
	clear(p)
	if g.HasQ {
		q = s.GetBlock()
		clear(q)
	}
	for k, a := range g.DataAddr {
		if err = s.Array.ReadZeroInto(a.Disk, a.Block, member); err != nil {
			return p, q, err
		}
		XORInto(p, member)
		if q != nil {
			MulAccum(q, member, GExp(k))
		}
	}
	return p, q, nil
}

func (s *Store) rebuildParity(g layout.Group) error {
	p, q, err := s.parityOf(g)
	defer s.PutBlock(p)
	defer s.PutBlock(q) // a nil q is not block-sized: ignored
	if err != nil {
		return fmt.Errorf("recovery: rebuilding parity: %w", err)
	}
	if err := s.Array.Write(g.Parity.Disk, g.Parity.Block, p); err != nil || q == nil {
		return err
	}
	return s.Array.Write(g.Q.Disk, g.Q.Block, q)
}

// Reconstruct rebuilds logical block i from the other members of its
// parity group, without attempting a direct read: every member that
// answers is read (absent blocks on healthy disks as zeroes), the rest
// join i on the erasure list, and RecoverPQ solves the group — for
// single-parity groups in its q == nil form. It fails with
// ErrUnrecoverable when more members are unreadable than the group has
// parity columns: one besides i under P+Q, none under single parity.
func (s *Store) Reconstruct(i int64) ([]byte, error) {
	g := s.Layout.GroupOf(i)
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
	g := s.Layout.GroupOf(i)
	want, wantQ, err := s.parityOf(g)
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
