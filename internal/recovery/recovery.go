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
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ftcms/internal/integrity"
	"ftcms/internal/layout"
	"ftcms/internal/parallel"
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
	// held[disk] is every block the disk has held, by ascending Key: each
	// block's first write through the store enters it.
	held [][]Member

	// WriteRun's state, kept so a warm write allocates nothing: the run, a bit
	// per run block a planned group covers, the batch grown a chunk at a time,
	// the groups planned, each chunk's gather list, a zero block, fill.
	run     run
	seen    []uint64
	batch   []groupJob
	planned []groupJob
	parts   [][][]byte
	zero    []byte
	fillJob func(c int) error
}

// groupJob is one parity group of a WriteRun batch: bufs[m] holds member m
// (data first, then P and Q), a written slot's Reserve buffer (nil for a
// fresh or lent slot until fill carves it one) or else the stored bytes,
// and sums[m] a written slot's checksum.
type groupJob struct {
	g    layout.Group
	bufs [][]byte
	sums []uint32
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
	s := &Store{Layout: l, Array: a, held: make([][]Member, a.Disks()), zero: make([]byte, a.BlockSize())}
	s.fillJob = func(c int) error { s.fill(c); return nil }
	s.parts = make([][][]byte, batchGroups/chunkGroups)
	return s, nil
}

// WriteBlock stores data, zero-padded to one block, as logical block i and
// refreshes its group's parity: WriteRun's one-block case.
func (s *Store) WriteBlock(i int64, data []byte) error { return s.WriteRun(i, 1, 1, data) }

// A WriteRun batch holds up to batchGroups groups, eight chunks of
// chunkGroups (1 MB at p = 4 and 4 KB blocks), each one pool item whose
// fresh slots are one allocation; the pool fills a batch that spans fanOut
// bytes, worth its helpers' ≈ 100 µs start (DESIGN §13).
const chunkGroups, batchGroups, fanOut = 64, 8 * 64, 256 << 10

// WriteRun stores n logical blocks, first, first+stride, …, block k holding
// data[k·bs:(k+1)·bs] zero-padded, and the parity of each group they touch,
// from the run members' bytes and the other members (read; absent ones as
// zeroes). It takes the groups in batches of three passes, plan, fill and
// commit, and stops at a group the plan cannot stage with its error.
func (s *Store) WriteRun(first, stride, n int64, data []byte) error {
	if stride < 1 || int64(len(data)) > n*int64(s.Array.BlockSize()) {
		return fmt.Errorf("recovery: %d bytes do not fit a run of %d blocks by %d", len(data), n, stride)
	}
	s.run = run{first, stride, n, data}
	s.seen = slices.Grow(s.seen[:0], int(n/64+1))[:n/64+1]
	clear(s.seen)
	size := s.Layout.GroupSize() * s.Array.BlockSize()
	err := error(nil)
	for k := int64(0); k < n && err == nil; {
		s.planned, k, err = s.plan(k)
		chunks := (len(s.planned) + chunkGroups - 1) / chunkGroups
		if len(s.planned)*size >= fanOut {
			_ = parallel.ForEach(chunks, s.fillJob) // fill cannot fail
		} else {
			for c := range chunks {
				s.fill(c)
			}
		}
		for i := range s.planned {
			err = cmp.Or(err, s.commit(&s.planned[i]))
		}
	}
	s.run = run{} // the caller's bytes are not the store's to keep
	return err
}

// plan is the first pass over the next groups from run block k on, in the
// order of their first run block: one GroupAt each. A written slot gets its
// Reserve buffer, another member its stored bytes (the zero block if absent)
// once a read has met the disk's state, the hook and the checksum. A group
// it cannot stage ends the batch with that group's error.
func (s *Store) plan(k int64) ([]groupJob, int64, error) {
	r, n := s.run, 0
	for ; k < r.n && n < batchGroups; k++ {
		if s.seen[k/64]>>(k%64)&1 != 0 {
			continue // a planned group's member
		}
		if n == len(s.batch) {
			s.makeBatch(chunkGroups)
		}
		j := &s.batch[n]
		s.Layout.GroupAt(s.Layout.Place(r.first+k*r.stride), &j.g)
		nd, err := len(j.g.Data), error(nil)
		for m := nd - 1; m >= 0 && err == nil; m-- {
			a := j.g.DataAddr[m]
			if x := r.index(j.g.Data[m]); x >= 0 {
				s.seen[x/64] |= 1 << (x % 64)
				j.bufs[m], err = s.Array.Reserve(a.Disk, a.Block)
				continue
			}
			b := s.GetBlock()
			err = s.Array.ReadZeroInto(a.Disk, a.Block, b)
			s.PutBlock(b)
			if j.bufs[m] = s.Array.Peek(a.Disk, a.Block); j.bufs[m] == nil {
				j.bufs[m] = s.zero
			}
		}
		if err == nil {
			j.bufs[nd], err = s.Array.Reserve(j.g.Parity.Disk, j.g.Parity.Block)
		}
		if err == nil && j.g.HasQ {
			j.bufs[nd+1], err = s.Array.Reserve(j.g.Q.Disk, j.g.Q.Block)
		}
		if err != nil {
			clear(j.bufs)
			return s.batch[:n], k, fmt.Errorf("recovery: writing the group of block %d: %w", j.g.Data[0], err)
		}
		n++
	}
	return s.batch[:n], k, nil
}

// fill, the pass the pool may run, fills chunk c of the planned groups. A
// written slot with no buffer, fresh or lent, is carved as a capped view of
// one allocation of the chunk's gathered initial bytes, which bytes.Join
// does not zero: the copy is its pages' first touch. A kept buffer gets its
// initial bytes by a copy. Then each data slot takes its checksum, P the XOR
// of the data and Q its Horner steps. It touches the chunk's slots alone,
// and reads the run's bytes.
func (s *Store) fill(c int) {
	js := s.planned[c*chunkGroups : min(c*chunkGroups+chunkGroups, len(s.planned))]
	parts := s.parts[c][:0]
	for i := range js {
		for x, b := range js[i].bufs {
			if body, pad, ok := s.initial(&js[i], x); ok && b == nil {
				parts = append(parts, body, s.zero[:pad])
			}
		}
	}
	slab, bs := bytes.Join(parts, nil), len(s.zero)
	clear(parts)
	s.parts[c] = parts
	for i := range js {
		j, nd := &js[i], len(js[i].g.Data)
		for x, b := range j.bufs {
			body, _, ok := s.initial(j, x)
			switch {
			case !ok:
				continue
			case b == nil:
				j.bufs[x], slab = slab[:bs:bs], slab[bs:]
			default:
				clear(b[copy(b, body):])
			}
			if x < nd {
				j.sums[x] = integrity.Sum(j.bufs[x])
			}
		}
		XOR(j.bufs[nd], j.bufs[:nd]...)
		j.sums[nd] = integrity.Sum(j.bufs[nd])
		if j.g.HasQ {
			q := j.bufs[nd+1] // Σ g^m·D_m, last member first
			for m := nd - 2; m >= 0; m-- {
				gfQStep(q, j.bufs[m])
			}
			j.sums[nd+1] = integrity.Sum(q)
		}
	}
}

// initial returns the bytes slot x of group j starts from, body and then pad
// zeroes, or ok false for a slot the run does not write. A run member starts
// from its data, zero-padded; P and Q from the last data member's bytes,
// which are Q's first Horner term and P's size.
func (s *Store) initial(j *groupJob, x int) (body []byte, pad int, ok bool) {
	nd, r := len(j.g.Data), &s.run
	switch {
	case x > nd+1 || x == nd+1 && !j.g.HasQ:
		return nil, 0, false
	case x >= nd:
		if x = nd - 1; r.index(j.g.Data[x]) < 0 {
			return j.bufs[x], 0, true
		}
	}
	k := r.index(j.g.Data[x])
	if k < 0 {
		return nil, 0, false
	}
	bs, end := int64(len(s.zero)), int64(len(r.data))
	lo, hi := min(k*bs, end), min(k*bs+bs, end) // short at the end of the data
	return r.data[lo:hi], int(bs - hi + lo), true
}

// commit is the last pass over group j, in batch order: it installs every
// slot fill wrote, with its checksum, and drops the group's buffers.
func (s *Store) commit(j *groupJob) (err error) {
	nd, key := len(j.g.Data), slices.Min(j.g.Data)
	for m, i := range j.g.Data {
		if s.run.index(i) >= 0 {
			err = cmp.Or(err, s.install(j.g.DataAddr[m], i, j.bufs[m], j.sums[m]))
		}
	}
	err = cmp.Or(err, s.install(j.g.Parity, key, j.bufs[nd], j.sums[nd]))
	if j.g.HasQ {
		err = cmp.Or(err, s.install(j.g.Q, key, j.bufs[nd+1], j.sums[nd+1]))
	}
	clear(j.bufs)
	return err
}

// makeBatch adds k groups to the batch, their slices carved from one
// allocation per kind.
func (s *Store) makeBatch(k int) {
	w := s.Layout.GroupSize() + 1
	data, addrs := make([]int64, k*w), make([]layout.BlockAddr, k*w)
	bufs, sums := make([][]byte, k*w), make([]uint32, k*w)
	for i := 0; i < k*w; i += w {
		g := layout.Group{Data: data[i : i : i+w], DataAddr: addrs[i : i : i+w]}
		s.batch = append(s.batch, groupJob{g, bufs[i : i+w : i+w], sums[i : i+w : i+w]})
	}
}

// install stores b, whose checksum is sum, at a and enters the block in its
// disk's index under key.
func (s *Store) install(a layout.BlockAddr, key int64, b []byte, sum uint32) error {
	if err := s.Array.Install(a.Disk, a.Block, b, sum); err != nil {
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

// VerifyParity recomputes the parity of block i's group from its data
// members, read last first as a write reads them, and compares it with the
// stored parity block (both P and Q for double-parity layouts), returning an
// error on mismatch — a test/fsck helper.
func (s *Store) VerifyParity(i int64) error {
	var g layout.Group
	s.Layout.GroupAt(s.Layout.Place(i), &g)
	data := make([][]byte, len(g.Data))
	for m := len(g.Data) - 1; m >= 0; m-- {
		data[m] = make([]byte, s.Array.BlockSize())
		if err := s.Array.ReadZeroInto(g.DataAddr[m].Disk, g.DataAddr[m].Block, data[m]); err != nil {
			return err
		}
	}
	want, got := make([]byte, s.Array.BlockSize()), make([]byte, s.Array.BlockSize())
	check := func(name string, a layout.BlockAddr, encode func([]byte, ...[]byte)) error {
		encode(want, data...)
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
	if err := check("parity", g.Parity, XOR); err != nil || !g.HasQ {
		return err
	}
	return check("Q parity", g.Q, QEncode)
}
