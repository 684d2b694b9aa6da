package integrity

import "hash/crc32"

// foldK holds fold's constants, one (lo, hi) pair per fold distance D
// of 2048, 256 and 128 bits: lo = bitrev32(x^(D+32) mod P) << 1 and
// hi = bitrev32(x^(D-32) mod P) << 1, with P the Castagnoli polynomial.
var foldK = [6]uint64{0xdcb17aa4, 0xb9e02b86, 0x1384aa63a, 0xba4fc28e, 0xf20c0dfe, 0x14cd00bd6}

// ymmMissing and zmmMissing name the first feature fold needs, without and
// with wide, that the CPU or OS lacks, or are empty. useYMM and useZMM pick
// Sum's path, the fastest the CPU has; only tests change them.
var ymmMissing, zmmMissing = missingFeatures()
var useYMM, useZMM = ymmMissing == "", zmmMissing == ""

// Sum returns the CRC-32C (Castagnoli) checksum of data. The 512-bit kernel
// folds all of a block of 256 bytes or more; after the 256-bit one,
// hash/crc32 sums the last len mod 256 bytes.
func Sum(data []byte) uint32 {
	switch n := len(data) &^ 255; {
	case n > 0 && useZMM:
		return fold(data, &foldK, true)
	case n > 0 && useYMM:
		return crc32.Update(fold(data[:n], &foldK, false), castagnoli, data[n:])
	}
	return crc32.Checksum(data, castagnoli)
}

func missingFeatures() (ymmLacks, zmmLacks string) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, ecx7, _ := cpuid(7, 0) // junk past maxLeaf, which is checked first
	var xcr0 uint32
	if ecx1&(1<<27) != 0 { // XGETBV needs OSXSAVE
		xcr0 = xgetbv0()
	}
	for _, f := range []struct {
		ok, wide bool // wide: only fold's 512-bit kernel needs it
		name     string
	}{
		{maxLeaf >= 7, false, "CPUID leaf 7"},
		{ecx1&(1<<1) != 0, false, "PCLMULQDQ"},
		{ecx1&(1<<20) != 0, false, "SSE4.2"},
		{ecx1&(1<<28) != 0, false, "AVX"},
		{xcr0&6 == 6, false, "OSXSAVE with YMM state"},
		{ebx7&(1<<5) != 0, false, "AVX2"},
		{ecx7&(1<<10) != 0, false, "VPCLMULQDQ"},
		{ebx7&(1<<8) != 0, true, "BMI2"},
		{ebx7&(1<<16) != 0, true, "AVX512F"},
		{ebx7&(1<<30) != 0, true, "AVX512BW"},
		{ecx7&(1<<6) != 0, true, "AVX512_VBMI2"},
		{xcr0&0xe6 == 0xe6, true, "opmask and ZMM state"},
	} {
		if !f.ok && zmmLacks == "" {
			zmmLacks = f.name
		}
		if !f.ok && !f.wide && ymmLacks == "" {
			ymmLacks = f.name
		}
	}
	return ymmLacks, zmmLacks
}

//go:noescape
func fold(p []byte, k *[6]uint64, wide bool) uint32

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32
