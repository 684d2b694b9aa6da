package recovery

import (
	"crypto/subtle"
	"fmt"
	"unsafe"
)

// The XOR kernel is crypto/subtle.XORBytes, the standard library's
// vector loop (assembly on amd64, arm64, ppc64x and loong64; a word
// loop elsewhere). The wrappers here add the contracts parity needs:
// equal lengths and no overlap at all between dst and a source, where
// XORBytes allows exact aliasing.
//
// Every degraded-mode read, parity rebuild and clip write funnels
// through this kernel.

// XOR sets dst to the byte-wise XOR of all srcs. All slices must share
// dst's length. With zero sources dst is zeroed. dst must not alias
// (overlap) any source — the kernel streams through dst while sources
// are still being read — and aliasing panics rather than corrupting
// parity silently.
func XOR(dst []byte, srcs ...[]byte) {
	for _, s := range srcs {
		aliasCheck(dst, s, "XOR")
	}
	switch len(srcs) {
	case 0:
		clear(dst)
	case 1:
		copy(dst, srcs[0])
	default:
		subtle.XORBytes(dst, srcs[0], srcs[1])
		for _, s := range srcs[2:] {
			subtle.XORBytes(dst, dst, s)
		}
	}
}

// XORInto accumulates src into dst (dst ^= src). The slices must share
// a length and must not alias. It is the streaming form of XOR for
// callers that fold sources in one at a time from a reused scratch
// buffer.
func XORInto(dst, src []byte) {
	aliasCheck(dst, src, "XOR")
	subtle.XORBytes(dst, dst, src)
}

// aliasCheck panics unless src has dst's length and shares none of its
// bytes: the slice kernels stream through dst while sources are still
// being read.
func aliasCheck(dst, src []byte, op string) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("recovery: %s length mismatch: %d vs %d", op, len(src), len(dst)))
	}
	if overlaps(dst, src) {
		panic("recovery: " + op + " dst aliases a source")
	}
}

// overlaps reports whether the two slices share any backing bytes.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0 := uintptr(unsafe.Pointer(&a[0]))
	b0 := uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}
