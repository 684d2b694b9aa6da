// Package integrity provides the per-block checksum that closes the gap
// in the paper's loud-failure fault model: disks that return *wrong*
// bytes without an error. Every block written to the array is summed
// with CRC-32C (Castagnoli); every read is re-summed and compared, so
// silent bit rot surfaces as a checksum mismatch instead of propagating
// into streams or, worse, XOR reconstructions.
//
// Sum is hash/crc32's CRC-32C, bit for bit; on amd64 with AVX2 and
// VPCLMULQDQ it folds 256-byte strides by carry-less multiply first.
//
// The sum lives beside the block's bytes in storage.Array's block record;
// this package is the polynomial and the counters.
package integrity

import "hash/crc32"

// castagnoli is the CRC-32C table shared by all sums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is a snapshot of a Counters.
type Stats struct {
	// Recorded counts checksums taken (one per write, including
	// overwrites).
	Recorded int64
	// Verified counts successful verifications.
	Verified int64
	// Mismatches counts verifications that failed.
	Mismatches int64
}

// Counters tallies an array's checksum work and belongs to the array's
// owner, like the array. The zero value is ready to use.
type Counters struct {
	recorded, verified, mismatches int64
}

// Recorded counts one checksum taken on write.
func (c *Counters) Recorded() { c.recorded++ }

// Verified counts one verification by its outcome, which it returns.
func (c *Counters) Verified(ok bool) bool {
	if ok {
		c.verified++
	} else {
		c.mismatches++
	}
	return ok
}

// Stats returns a counter snapshot.
func (c *Counters) Stats() Stats {
	return Stats{Recorded: c.recorded, Verified: c.verified, Mismatches: c.mismatches}
}
