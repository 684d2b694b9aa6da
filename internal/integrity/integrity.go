// Package integrity provides the per-block checksum layer that closes
// the gap in the paper's loud-failure fault model: disks that return
// *wrong* bytes without an error. Every block written to the array is
// summed with CRC-32C (Castagnoli — hardware-accelerated on amd64/arm64
// via hash/crc32's table-driven kernels); every read is re-summed and
// compared, so silent bit rot surfaces as a checksum mismatch instead
// of propagating into streams or, worse, XOR reconstructions.
//
// The package is deliberately storage-agnostic: a Map keys sums by
// (disk, block) and knows nothing about disk state or parity. The
// storage.Array owns a Map and maintains it on the write path; the
// read path calls Verify and translates ErrMismatch into
// storage.ErrCorruptBlock for the detector and repair machinery.
package integrity

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// ErrMismatch is returned by Verify when a block's contents no longer
// match its recorded checksum.
var ErrMismatch = errors.New("integrity: checksum mismatch")

// castagnoli is the CRC-32C table shared by all sums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum returns the CRC-32C (Castagnoli) checksum of data.
func Sum(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// Map records one checksum per (disk, block) address. Safe for
// concurrent use. The zero value is not usable; call NewMap.
type Map struct {
	mu sync.RWMutex
	// sums is keyed by disk, then block, so that swapping a disk's medium
	// drops its records without visiting any other disk's.
	sums map[int]map[int64]uint32

	// counters for Stats; atomic so Verify — on the hot read path,
	// possibly from several tick shards at once — never takes the write
	// lock.
	recorded   atomic.Int64
	verified   atomic.Int64
	mismatches atomic.Int64
}

// Stats is a snapshot of a Map's counters.
type Stats struct {
	// Recorded counts checksum records (one per write, including
	// overwrites).
	Recorded int64
	// Verified counts successful verifications.
	Verified int64
	// Mismatches counts verifications that failed.
	Mismatches int64
}

// NewMap creates an empty checksum map.
func NewMap() *Map {
	return &Map{sums: make(map[int]map[int64]uint32)}
}

// Record stores the checksum of data for (disk, block), replacing any
// previous record.
func (m *Map) Record(disk int, block int64, data []byte) {
	sum := Sum(data)
	m.mu.Lock()
	blocks := m.sums[disk]
	if blocks == nil {
		blocks = make(map[int64]uint32)
		m.sums[disk] = blocks
	}
	blocks[block] = sum
	m.mu.Unlock()
	m.recorded.Add(1)
}

// Has reports whether a checksum is recorded for (disk, block).
func (m *Map) Has(disk int, block int64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.sums[disk][block]
	return ok
}

// Verify re-sums data and compares it against the record for
// (disk, block). A missing record verifies trivially (nil): the map
// only vouches for blocks it has seen written. On mismatch it returns
// an error wrapping ErrMismatch.
func (m *Map) Verify(disk int, block int64, data []byte) error {
	m.mu.RLock()
	want, ok := m.sums[disk][block]
	m.mu.RUnlock()
	if !ok {
		return nil
	}
	got := Sum(data)
	if got == want {
		m.verified.Add(1)
		return nil
	}
	m.mismatches.Add(1)
	return fmt.Errorf("integrity: disk %d block %d: sum %08x, want %08x: %w",
		disk, block, got, want, ErrMismatch)
}

// Drop forgets the record for (disk, block).
func (m *Map) Drop(disk int, block int64) {
	m.mu.Lock()
	delete(m.sums[disk], block)
	m.mu.Unlock()
}

// DropDisk forgets every record for the disk — called when a spare is
// swapped in (Replace) or a drive is erased (Repair): the new medium
// holds none of the old blocks, and the rebuild re-records sums as it
// refills them.
func (m *Map) DropDisk(disk int) {
	m.mu.Lock()
	delete(m.sums, disk)
	m.mu.Unlock()
}

// Len returns the number of recorded checksums.
func (m *Map) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, blocks := range m.sums {
		n += len(blocks)
	}
	return n
}

// Stats returns a counter snapshot.
func (m *Map) Stats() Stats {
	return Stats{
		Recorded:   m.recorded.Load(),
		Verified:   m.verified.Load(),
		Mismatches: m.mismatches.Load(),
	}
}
