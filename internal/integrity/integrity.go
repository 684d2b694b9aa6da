// Package integrity provides the per-block checksum that closes the gap
// in the paper's loud-failure fault model: disks that return *wrong*
// bytes without an error. Every block written to the array is summed
// with CRC-32C (Castagnoli); every read is re-summed and compared, so
// silent bit rot surfaces as a checksum mismatch instead of propagating
// into streams or, worse, XOR reconstructions.
//
// Sum is hash/crc32's CRC-32C, bit for bit. On amd64 with VPCLMULQDQ it
// folds a block of 256 bytes or more by carry-less multiply, 256 bytes a
// stride: all of it in 512-bit registers where the CPU has AVX-512, its
// leading multiple of 256 bytes in 256-bit ones where it has only AVX2.
//
// The sum lives beside the block's bytes in storage.Array's block record;
// this package is the polynomial.
package integrity

import "hash/crc32"

// castagnoli is the CRC-32C table shared by all sums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)
