package integrity

import "hash/crc32"

// foldK holds foldCLMUL's constants, one (lo, hi) pair per fold distance D
// of 2048, 256 and 128 bits: lo = bitrev32(x^(D+32) mod P) << 1 and
// hi = bitrev32(x^(D-32) mod P) << 1, with P the Castagnoli polynomial.
var foldK = [6]uint64{0xdcb17aa4, 0xb9e02b86, 0x1384aa63a, 0xba4fc28e, 0xf20c0dfe, 0x14cd00bd6}

// clmulMissing names the first feature foldCLMUL needs that the CPU or OS
// lacks, or is empty. useCLMUL selects the kernel; only tests flip it.
var clmulMissing = missingCLMUL()
var useCLMUL = clmulMissing == ""

// Sum returns the CRC-32C (Castagnoli) checksum of data.
func Sum(data []byte) uint32 {
	if n := len(data) &^ 255; n > 0 && useCLMUL {
		return crc32.Update(foldCLMUL(data[:n], &foldK), castagnoli, data[n:])
	}
	return crc32.Checksum(data, castagnoli)
}

func missingCLMUL() string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, ecx7, _ := cpuid(7, 0) // junk past maxLeaf, which is checked first
	for _, f := range []struct {
		ok   bool
		name string
	}{
		{maxLeaf >= 7, "CPUID leaf 7"},
		{ecx1&(1<<1) != 0, "PCLMULQDQ"},
		{ecx1&(1<<20) != 0, "SSE4.2"},
		{ecx1&(1<<28) != 0, "AVX"},
		{ecx1&(1<<27) != 0 && xgetbv0()&6 == 6, "OSXSAVE with YMM state"}, // XGETBV needs OSXSAVE
		{ebx7&(1<<5) != 0, "AVX2"},
		{ecx7&(1<<10) != 0, "VPCLMULQDQ"},
	} {
		if !f.ok {
			return f.name
		}
	}
	return ""
}

//go:noescape
func foldCLMUL(p []byte, k *[6]uint64) uint32
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32
