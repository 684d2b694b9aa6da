//go:build !amd64

package integrity

import "hash/crc32"

// There is no carry-less-multiply kernel off amd64; the tests read these.
var ymmMissing, zmmMissing = "an amd64 CPU", "an amd64 CPU"
var useYMM, useZMM bool

// Sum returns the CRC-32C (Castagnoli) checksum of data.
func Sum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }
