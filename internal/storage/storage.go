// Package storage simulates the disk array at byte level: d disks holding
// fixed-size blocks, with failure injection. It gives the fault-tolerance
// schemes something real to reconstruct, so tests can verify recovery
// bit-for-bit rather than by bookkeeping alone.
//
// The array is deliberately simple — a block store with per-disk failure
// state, no timing. Timing lives in diskmodel; placement in layout;
// reconstruction in recovery. Failure *injection* (latent bad blocks,
// transient errors, slow disks) lives in faultinject and reaches the
// array through the per-operation ReadHook; failure *detection* lives in
// health.
//
// A disk is in one of three states:
//
//   - Healthy: reads and writes served normally.
//   - Failed: every read and write is rejected with ErrFailed — a
//     crashed, fail-stop device.
//   - Rebuilding: a hot spare has been swapped in for a failed disk. The
//     spare starts empty and owes every block the failed disk held; the
//     rebuild writes them back one by one, and the disk rejoins once it
//     owes nothing. Present blocks read normally; absent blocks return
//     ErrNotWritten and are NOT zero-filled by ReadZeroInto — an unrebuilt
//     block must never masquerade as zeroes, or a concurrent second
//     failure would silently corrupt reconstructions that XOR it in.
//
// Beyond loud failures the array also models *silent* ones: CorruptBits
// flips bits of a stored block in place, exactly as bit rot would,
// without any error at injection time. Every write records a CRC-32C
// checksum (internal/integrity) and every read re-verifies it, so the
// wrong bytes surface as ErrCorruptBlock on the next read instead of
// flowing silently into streams or XOR reconstructions.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"ftcms/internal/integrity"
)

// ErrFailed is returned when reading or writing any block of a failed
// disk (and by injected hard errors, so detection treats them alike).
var ErrFailed = errors.New("storage: disk failed")

// ErrNotWritten is returned when reading a block that was never written.
// Callers that treat absent blocks as zero-filled should use ReadZeroInto.
var ErrNotWritten = errors.New("storage: block not written")

// ErrBadBlock is returned for a latent sector error: the disk responds
// but this one block is unreadable. Unlike ErrFailed it indicts a block,
// not a device — the cure is reconstructing the block from its parity
// group and rewriting it, not failing the disk.
var ErrBadBlock = errors.New("storage: unreadable block (latent sector error)")

// ErrCorruptBlock is returned when a block's contents fail checksum
// verification: the disk answered, but with the wrong bytes. Like
// ErrBadBlock it indicts a block, not a device — the cure is
// reconstructing the true contents from the parity group and rewriting
// (which re-records the checksum). Sustained corruption on one disk is
// a device-level signal, but that escalation belongs to the health
// detector's per-disk corruption counters, not to this error.
var ErrCorruptBlock = errors.New("storage: corrupt block (checksum mismatch)")

// DiskState is the lifecycle state of one disk.
type DiskState int

// Disk lifecycle states.
const (
	// Healthy disks serve reads and writes.
	Healthy DiskState = iota
	// Failed disks reject every operation with ErrFailed.
	Failed
	// Rebuilding disks are empty spares being refilled by an online
	// rebuild; absent blocks read as ErrNotWritten, never as zeroes.
	Rebuilding
)

// String names the state for logs and error messages.
func (s DiskState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Failed:
		return "failed"
	case Rebuilding:
		return "rebuilding"
	}
	return fmt.Sprintf("DiskState(%d)", int(s))
}

// ReadHook inspects a physical block read before the array serves it. A
// non-nil error is injected in place of the data (the block itself is
// untouched); slowdown scales the read's nominal service time (values
// below 1 are treated as 1) and feeds the health detector's timeout
// accounting. Hooks must not call back into the Array.
type ReadHook func(disk int, block int64) (slowdown float64, err error)

// record is one block of a disk: its bytes and the CRC-32C Write took of
// them, which every read re-checks. Empty data means not written.
type record struct {
	data []byte
	sum  uint32
	// lent marks data as handed out by Lend, so Write and CorruptBits give
	// the record fresh bytes instead.
	lent bool
	// owed marks a block the disk held before its medium was swapped and
	// that has not been written back since.
	owed bool
}

// Array is a simulated array of d disks, each a sequence of fixed-size
// blocks indexed by block number. One goroutine uses it at a time, and it
// holds no lock.
type Array struct {
	d         int
	blockSize int
	// disks[disk][block] is the block's record. A disk's slice reaches its
	// highest block ever written and never shrinks: swapping the medium
	// (Replace) blanks the records in place and keeps their buffers. A
	// record keeps the bytes Install was given: a clip write's are views,
	// capped at one block, of one allocation per chunk of its groups, never
	// grown or copied (recovery.Store.WriteRun; DESIGN §9).
	disks [][]record
	// written and owed count each disk's written and owed blocks.
	written, owed []int
	state         []DiskState
	hook          ReadHook
	misses        []addrError // the slab miss carves read errors from
}

// addrError is a read refused at (disk, block); its text is built when read.
type addrError struct {
	disk  int
	block int64
	err   error
}

func (e *addrError) Error() string {
	return fmt.Sprintf("storage: read disk %d block %d: %v", e.disk, e.block, e.err)
}

func (e *addrError) Unwrap() error { return e.err }

// miss returns the read error err at (disk, block), carved from a slab of
// 64, so a miss allocates nothing of its own.
func (a *Array) miss(disk int, block int64, err error) error {
	if len(a.misses) == cap(a.misses) {
		a.misses = make([]addrError, 0, 64)
	}
	a.misses = append(a.misses, addrError{disk, block, err})
	return &a.misses[len(a.misses)-1]
}

// NewArray creates an array of d disks with the given block size in bytes.
func NewArray(d, blockSize int) (*Array, error) {
	if d < 1 {
		return nil, errors.New("storage: need at least one disk")
	}
	if blockSize < 1 {
		return nil, errors.New("storage: block size must be positive")
	}
	a := &Array{
		d:         d,
		blockSize: blockSize,
		disks:     make([][]record, d),
		written:   make([]int, d),
		owed:      make([]int, d),
		state:     make([]DiskState, d),
	}
	return a, nil
}

// Disks returns the number of disks.
func (a *Array) Disks() int { return a.d }

// BlockSize returns the block size in bytes.
func (a *Array) BlockSize() int { return a.blockSize }

// SetReadHook installs (or, with nil, removes) the fault-injection hook
// consulted on every physical read of a non-failed disk.
func (a *Array) SetReadHook(h ReadHook) {
	a.hook = h
}

func (a *Array) checkAddr(disk int, block int64) error {
	if disk < 0 || disk >= a.d {
		return fmt.Errorf("storage: disk %d out of range [0, %d)", disk, a.d)
	}
	if block < 0 {
		return fmt.Errorf("storage: negative block %d", block)
	}
	return nil
}

// at returns the record of (disk, block), or nil when the block is not
// written. The caller has checked the address.
func (a *Array) at(disk int, block int64) *record {
	if recs := a.disks[disk]; block < int64(len(recs)) && len(recs[block].data) != 0 {
		return &recs[block]
	}
	return nil
}

// Write stores data (exactly blockSize bytes) at (disk, block). Writing
// to a failed disk is rejected: the array models a crashed, not a
// degraded, device. Rebuilding disks accept writes — that is how the
// online rebuild refills the spare. It is Reserve, a copy and Install.
func (a *Array) Write(disk int, block int64, data []byte) error {
	b, err := a.Reserve(disk, block)
	if err == nil && len(data) != a.blockSize {
		err = fmt.Errorf("storage: write of %d bytes, want block size %d", len(data), a.blockSize)
	}
	if err != nil {
		return err
	}
	b = append(b[:0], data...)
	return a.Install(disk, block, b, integrity.Sum(b))
}

// ReadInto copies the block at (disk, block) into dst, which must be
// exactly blockSize bytes. It fails with ErrFailed for failed disks,
// ErrNotWritten for absent blocks, ErrCorruptBlock when the stored bytes
// miss their checksum, and whatever the installed ReadHook injects.
func (a *Array) ReadInto(disk int, block int64, dst []byte) error {
	_, err := a.ReadTimedInto(disk, block, dst)
	return err
}

// ReadZeroInto is ReadInto, except an absent block on a *healthy* disk
// reads as zeroes — the convention parity maintenance uses for short
// groups. On a rebuilding disk an absent block stays ErrNotWritten: it
// has real contents that simply have not been rebuilt yet, and
// zero-filling it would corrupt any reconstruction that XORs it in.
func (a *Array) ReadZeroInto(disk int, block int64, dst []byte) error {
	_, err := a.readInto(disk, block, dst, true)
	return err
}

// ReadTimedInto is ReadInto plus the service-time multiplier the
// fault-injection hook reported for this read (1 when no hook is
// installed or the hook left timing alone). The health detector consumes
// the multiplier as its timeout signal.
func (a *Array) ReadTimedInto(disk int, block int64, dst []byte) (float64, error) {
	return a.readInto(disk, block, dst, false)
}

// readInto is read into a caller's buffer, which must be one block long.
func (a *Array) readInto(disk int, block int64, dst []byte, zero bool) (float64, error) {
	if len(dst) != a.blockSize {
		return 1, fmt.Errorf("storage: read into %d bytes, want block size %d", len(dst), a.blockSize)
	}
	_, slow, err := a.read(disk, block, dst, zero)
	return slow, err
}

// Lend is ReadTimedInto without the copy: it returns the block's own
// verified bytes, read-only. Nothing changes them while anyone holds them:
// a later Write or CorruptBits gives the block fresh bytes instead.
func (a *Array) Lend(disk int, block int64) ([]byte, float64, error) {
	return a.read(disk, block, nil, false)
}

// Peek returns the stored bytes of a block that matches its checksum, else
// nil: no hook, state or mark, so goroutines may Peek while none writes the
// array.
func (a *Array) Peek(disk int, block int64) []byte {
	if a.checkAddr(disk, block) != nil {
		return nil
	}
	if r := a.at(disk, block); r != nil && integrity.Sum(r.data) == r.sum {
		return r.data
	}
	return nil
}

// SumAt returns the checksum Write recorded for a block, 0 for an absent
// one: like Peek it meets no hook, state or mark.
func (a *Array) SumAt(disk int, block int64) uint32 {
	if a.checkAddr(disk, block) == nil {
		if r := a.at(disk, block); r != nil {
			return r.sum
		}
	}
	return 0
}

// LendUnchecked is Lend for a plain read — a written block of a healthy
// disk, no read hook installed — without the checksum: it returns the
// stored bytes and the sum Write recorded, for the caller to compare, and
// marks the block lent. marked says the mark is this loan's, for Unlend to
// take back should the bytes miss their sum. Any other read returns nil.
func (a *Array) LendUnchecked(disk int, block int64) (data []byte, sum uint32, marked bool) {
	if a.hook != nil || a.checkAddr(disk, block) != nil || a.state[disk] != Healthy {
		return nil, 0, false
	}
	r := a.at(disk, block)
	if r == nil {
		return nil, 0, false
	}
	marked, r.lent = !r.lent, true
	return r.data, r.sum, marked
}

// Unlend clears a block's lent mark, as if the read that set it had not
// been: a later Write rewrites the bytes in place.
func (a *Array) Unlend(disk int, block int64) { a.disks[disk][block].lent = false }

// Probe is a read that takes no bytes: it meets the disk's state, the hook
// and the block's presence as ReadTimedInto does, but no checksum.
func (a *Array) Probe(disk int, block int64) (float64, error) {
	_, slow, err := a.read(disk, block, []byte{}, false)
	return slow, err
}

// read is every block read: a copy into dst, with an empty dst a probe, or
// with a nil dst a loan (the one read that marks a block lent); with zero,
// an absent block of a healthy disk is zeroes, with no error built.
func (a *Array) read(disk int, block int64, dst []byte, zero bool) ([]byte, float64, error) {
	if err := a.checkAddr(disk, block); err != nil {
		return nil, 1, err
	}
	if a.state[disk] == Failed {
		return nil, 1, a.miss(disk, block, ErrFailed)
	}
	slow := 1.0
	if h := a.hook; h != nil {
		var err error
		slow, err = h(disk, block)
		if slow < 1 {
			slow = 1
		}
		if err != nil {
			return nil, slow, a.miss(disk, block, err)
		}
	}
	r := a.at(disk, block)
	if r == nil && zero && a.state[disk] == Healthy {
		clear(dst)
		return dst, slow, nil
	}
	if r == nil {
		return nil, slow, a.miss(disk, block, ErrNotWritten)
	}
	if dst != nil && len(dst) == 0 {
		return dst, slow, nil
	}
	if got := integrity.Sum(r.data); got != r.sum {
		// The disk answered with the wrong bytes. Surfacing the error —
		// instead of the data — is the whole point of the checksum
		// layer: corrupt bytes must never reach a stream or be XORed
		// into a reconstruction.
		return nil, slow, fmt.Errorf("storage: read disk %d block %d: %w: sum %08x, want %08x", disk, block, ErrCorruptBlock, got, r.sum)
	}
	if dst != nil {
		return dst[:copy(dst, r.data)], slow, nil
	}
	r.lent = true
	return r.data, slow, nil
}

// Reserve returns the buffer to build a block in, for Install: its slot's
// kept one, a block long, so that a write, parity rewrites and rebuilds among
// them, reuses it; nil when the slot has none or Lend handed it out, for
// fresh bytes. It refuses what Write refuses but the length.
func (a *Array) Reserve(disk int, block int64) ([]byte, error) {
	if err := a.checkAddr(disk, block); err != nil {
		return nil, err
	}
	if a.state[disk] == Failed {
		return nil, fmt.Errorf("storage: write to disk %d: %w", disk, ErrFailed)
	}
	if recs := a.disks[disk]; block < int64(len(recs)) && !recs[block].lent && cap(recs[block].data) >= a.blockSize {
		return recs[block].data[:a.blockSize], nil
	}
	return nil, nil
}

// Install is Write of b, built in the Reserve buffer or grown from it, whose
// checksum is sum: the slot keeps b itself, and the bytes of a lent block
// stay with their holders.
func (a *Array) Install(disk int, block int64, b []byte, sum uint32) error {
	if _, err := a.Reserve(disk, block); err != nil {
		return err
	}
	if len(b) != a.blockSize {
		return fmt.Errorf("storage: install of %d bytes, want block size %d", len(b), a.blockSize)
	}
	for int64(len(a.disks[disk])) <= block {
		a.disks[disk] = append(a.disks[disk], record{})
	}
	r := &a.disks[disk][block]
	if len(r.data) == 0 {
		a.written[disk]++
	}
	if r.owed {
		r.owed = false
		a.owed[disk]--
	}
	r.data, r.sum, r.lent = b, sum, false
	return nil
}

// Written reports whether (disk, block) currently holds a written block.
// It consults neither the read hook nor the failure state — a planning
// probe for rebuild and recoverability enumeration, not a data access.
func (a *Array) Written(disk int, block int64) bool {
	if a.checkAddr(disk, block) != nil {
		return false
	}
	return a.at(disk, block) != nil
}

// Extent returns one past the highest block number ever written on any
// disk — like Written and WrittenBlocks, a planning probe.
func (a *Array) Extent() int64 {
	n := 0
	for _, recs := range a.disks {
		n = max(n, len(recs))
	}
	return int64(n)
}

// WrittenBlocks returns the number of blocks the array holds now.
func (a *Array) WrittenBlocks() int {
	n := 0
	for _, w := range a.written {
		n += w
	}
	return n
}

// Fail marks a disk as failed. Its contents become unreadable until
// Replace swaps fresh medium in. Fail is idempotent: failing an
// already-failed disk is a no-op, and failing a rebuilding disk fails the
// spare (the spare crashed too; the next one owes what it rebuilt).
func (a *Array) Fail(disk int) error {
	if err := a.checkAddr(disk, 0); err != nil {
		return err
	}
	a.state[disk] = Failed
	return nil
}

// Replace swaps a hot spare in for a failed disk: the slot transitions
// Failed → Rebuilding with empty contents, owing every block the disk held
// or still owed. Each slot keeps its buffer for the next Write, and its
// lent mark, so a loan keeps its bytes. The rebuild writes the owed blocks
// back and declares the disk live with Rejoin. Replacing a non-failed
// disk is an error.
func (a *Array) Replace(disk int) error {
	if err := a.checkAddr(disk, 0); err != nil {
		return err
	}
	if a.state[disk] != Failed {
		return fmt.Errorf("storage: replace disk %d: disk is %v, not failed", disk, a.state[disk])
	}
	a.state[disk] = Rebuilding
	for b := range a.disks[disk] {
		r := &a.disks[disk][b]
		r.owed = r.owed || len(r.data) != 0
		r.data = r.data[:0]
	}
	a.owed[disk] += a.written[disk]
	a.written[disk] = 0
	return nil
}

// Rejoin promotes a fully-rebuilt spare to healthy. Rejoining a disk
// that is not rebuilding, or that still owes blocks, is an error.
func (a *Array) Rejoin(disk int) error {
	if err := a.checkAddr(disk, 0); err != nil {
		return err
	}
	if a.state[disk] != Rebuilding {
		return fmt.Errorf("storage: rejoin disk %d: disk is %v, not rebuilding", disk, a.state[disk])
	}
	if n := a.owed[disk]; n > 0 {
		return fmt.Errorf("storage: rejoin disk %d: %d blocks not rebuilt", disk, n)
	}
	a.state[disk] = Healthy
	return nil
}

// NextOwed returns the lowest block at or after from that the disk owes,
// or -1 when it owes none there — like Written, a planning probe.
func (a *Array) NextOwed(disk int, from int64) int64 {
	if a.checkAddr(disk, 0) != nil {
		return -1
	}
	recs := a.disks[disk]
	for b := max(from, 0); b < int64(len(recs)); b++ {
		if recs[b].owed {
			return b
		}
	}
	return -1
}

// OwedBlocks returns how many blocks the disk owes.
func (a *Array) OwedBlocks(disk int) int {
	if a.checkAddr(disk, 0) != nil {
		return 0
	}
	return a.owed[disk]
}

// State returns the disk's lifecycle state (Healthy for out-of-range
// indices, matching Failed's tolerance).
func (a *Array) State(disk int) DiskState {
	if disk < 0 || disk >= a.d {
		return Healthy
	}
	return a.state[disk]
}

// Failed reports whether the disk is failed (a rebuilding disk is not:
// it serves the blocks already rebuilt).
func (a *Array) Failed(disk int) bool {
	return disk >= 0 && disk < a.d && a.state[disk] == Failed
}

// FailedDisks returns the indices of all failed disks.
func (a *Array) FailedDisks() []int {
	var out []int
	for i, st := range a.state {
		if st == Failed {
			out = append(out, i)
		}
	}
	return out
}

// CorruptBits flips the given bit offsets (taken modulo the block's bit
// width, each distinct position once) of the stored block — silent
// corruption: no error is returned at injection time, the checksum record
// is left stale on purpose, and bytes Lend handed out keep what was
// verified. The next read fails with ErrCorruptBlock. Corrupting an absent
// block reports ErrNotWritten and a failed disk ErrFailed, so injectors
// know the flip did not land.
func (a *Array) CorruptBits(disk int, block int64, bits []uint64) error {
	if err := a.checkAddr(disk, block); err != nil {
		return err
	}
	if len(bits) == 0 {
		return errors.New("storage: corrupt with no bits to flip")
	}
	if a.state[disk] == Failed {
		return fmt.Errorf("storage: corrupt disk %d block %d: %w", disk, block, ErrFailed)
	}
	r := a.at(disk, block)
	if r == nil {
		return fmt.Errorf("storage: corrupt disk %d block %d: %w", disk, block, ErrNotWritten)
	}
	if r.lent {
		r.lent, r.data = false, bytes.Clone(r.data)
	}
	w := uint64(a.blockSize) * 8
	for i, b := range bits {
		if b %= w; !slices.ContainsFunc(bits[:i], func(o uint64) bool { return o%w == b }) {
			r.data[b/8] ^= 1 << (b % 8)
		}
	}
	return nil
}

// CorruptRandomBlock flips bits in one written block of the disk,
// chosen deterministically by pick over the disk's written blocks in
// ascending order — the injector's way of hitting "some occupied
// sector" reproducibly from its seeded RNG. Returns the block hit, or
// ErrNotWritten when the disk holds no blocks at all.
func (a *Array) CorruptRandomBlock(disk int, pick uint64, bits []uint64) (int64, error) {
	if err := a.checkAddr(disk, 0); err != nil {
		return 0, err
	}
	n := uint64(a.written[disk])
	if n == 0 {
		return 0, fmt.Errorf("storage: corrupt disk %d: no written blocks: %w", disk, ErrNotWritten)
	}
	block := int64(0)
	for rank := pick % n; ; block++ {
		if len(a.disks[disk][block].data) == 0 {
			continue
		}
		if rank == 0 {
			break
		}
		rank--
	}
	return block, a.CorruptBits(disk, block, bits)
}

// AuditChecksums re-verifies every written block on every non-failed
// disk and returns, in ascending order, the (disk, block) addresses that
// no longer match their recorded checksums. A planning/assertion probe:
// it consults no hook.
func (a *Array) AuditChecksums() [][2]int64 {
	var bad [][2]int64
	for disk, recs := range a.disks {
		if a.state[disk] == Failed {
			continue
		}
		for block := range recs {
			if r := &recs[block]; len(r.data) != 0 && integrity.Sum(r.data) != r.sum {
				bad = append(bad, [2]int64{int64(disk), int64(block)})
			}
		}
	}
	return bad
}
