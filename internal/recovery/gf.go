package recovery

import "unsafe"

// GF(2^8) arithmetic for the Q parity column of the P+Q (RAID-6-style)
// double-parity scheme. The field is the conventional RAID-6 one:
// polynomials over GF(2) modulo x^8 + x^4 + x^3 + x^2 + 1 (0x11d), with
// generator g = 2.
//
// Two representations back two speed classes:
//
//   - exp/log and a full 64 KB multiplication table serve the
//     reconstruction path, where the multiplier constants vary per lost
//     block (one table lookup per byte);
//   - the encode path never multiplies by anything but g, so Q is built
//     by Horner's rule with a word-sliced multiply-by-2 kernel that
//     processes eight field elements per uint64 operation.

// gfPoly is the reduction polynomial x^8+x^4+x^3+x^2+1.
const gfPoly = 0x11d

var (
	// gfExpT[i] = g^i; doubled so products of two logs index without a
	// mod 255.
	gfExpT [510]byte
	// gfLogT[a] = log_g(a) for a != 0.
	gfLogT [256]int
	// gfMulT[a][b] = a·b — the 64 KB full product table.
	gfMulT [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExpT[i] = byte(x)
		gfLogT[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < len(gfExpT); i++ {
		gfExpT[i] = gfExpT[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfMulT[a][b] = gfExpT[gfLogT[a]+gfLogT[b]]
		}
	}
}

// GMul multiplies two field elements.
func GMul(a, b byte) byte { return gfMulT[a][b] }

// GExp returns g^k for k >= 0 — the Q coefficient of the data block at
// group position k.
func GExp(k int) byte { return gfExpT[k%255] }

// GInv returns the multiplicative inverse of a. It panics on 0, which
// has none — a zero divisor in the reconstruction algebra is always a
// programming error, never a data condition.
func GInv(a byte) byte {
	if a == 0 {
		panic("recovery: GF(2^8) inverse of zero")
	}
	return gfExpT[255-gfLogT[a]]
}

// GDiv returns a/b. It panics on b == 0.
func GDiv(a, b byte) byte { return GMul(a, GInv(b)) }

// The word-sliced multiply-by-2: each byte lane of the word doubles
// independently. Shifting left spills each lane's high bit into its
// neighbour, so the lanes are masked to 7 bits first; the spilled high
// bits then select the reduction constant 0x1d per lane via the
// multiply trick (each extracted bit is 0 or 1 in its lane's low
// position, so *0x1d broadcasts the reduction exactly where needed).

const (
	gfHiMask = 0x8080808080808080
	gfLoMask = 0xfefefefefefefefe
)

// gfMul2Word doubles all eight field elements packed in v.
func gfMul2Word(v uint64) uint64 {
	return ((v << 1) & gfLoMask) ^ (((v & gfHiMask) >> 7) * 0x1d)
}

// aligned8 reports whether b starts on an 8-byte boundary.
func aligned8(b []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0
}

// words reinterprets b's first w*8 bytes as w uint64s. Only valid when
// aligned8(b) and len(b) >= w*8.
func words(b []byte, w int) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), w)
}

// gfQStep is one Horner step: dst = g·dst ^ src, element-wise. Equal
// lengths are the caller's contract (QEncode checks once).
func gfQStep(dst, src []byte) {
	if w := len(dst) >> 3; w > 0 && aligned8(dst) && aligned8(src) {
		dw, sw := words(dst, w), words(src, w)
		for i := range dw {
			dw[i] = gfMul2Word(dw[i]) ^ sw[i]
		}
		n := w << 3
		dst, src = dst[n:], src[n:]
	}
	// Misaligned/tail path: bytes through the product table.
	m2 := &gfMulT[2]
	for i := range dst {
		dst[i] = m2[dst[i]] ^ src[i]
	}
}

// mulRow is a convenience for the table row pointer: row c multiplies
// by the constant c.
func mulRow(c byte) *[256]byte { return &gfMulT[c] }
