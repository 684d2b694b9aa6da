package integrity

import (
	"math/bits"
	"testing"
)

// TestFoldConstants derives foldK from the Castagnoli polynomial, and the
// same formula from the IEEE polynomial gives hash/crc32's r2r1 and r4r3.
func TestFoldConstants(t *testing.T) {
	// xnmod returns x^n mod p, p in normal form without its x^32 term.
	xnmod := func(n int, p uint32) uint32 {
		r := uint32(1)
		for ; n > 0; n-- {
			carry := r&(1<<31) != 0
			r <<= 1
			if carry {
				r ^= p
			}
		}
		return r
	}
	fold := func(p uint32, d ...int) []uint64 {
		var k []uint64
		for _, d := range d {
			k = append(k, uint64(bits.Reverse32(xnmod(d+32, p)))<<1, uint64(bits.Reverse32(xnmod(d-32, p)))<<1)
		}
		return k
	}
	if got := fold(0x1EDC6F41, 2048, 256, 128); [6]uint64(got) != foldK {
		t.Errorf("derived %#x, foldK is %#x", got, foldK)
	}
	ieee := []uint64{0x154442bd4, 0x1c6e41596, 0x1751997d0, 0x0ccaa009e}
	if got := fold(0x04C11DB7, 512, 128); [4]uint64(got) != [4]uint64(ieee) {
		t.Errorf("IEEE: derived %#x, hash/crc32 has %#x", got, ieee)
	}
}
