package recovery

import "fmt"

// The P+Q double-parity codec: every parity group stores, besides the
// XOR parity P = Σ D_k, a Reed-Solomon-lite column
//
//	Q = Σ g^k · D_k        (sums over GF(2^8), k = group position)
//
// with g = 2. P and Q are independent equations in the data blocks, so
// any two lost members of the d+2 (data + P + Q) are solvable — the
// standard RAID-6 erasure code, restricted to the only two syndromes a
// continuous-media server needs.

// QEncode sets dst to the Q parity of srcs: Σ g^k·srcs[k], evaluated by
// Horner's rule so the inner loop is the word-sliced multiply-by-2
// kernel plus an XOR — no table lookups on the bulk path. All slices
// must share dst's length; dst must not alias any source. With zero
// sources dst is zeroed.
func QEncode(dst []byte, srcs ...[]byte) {
	for _, s := range srcs {
		aliasCheck(dst, s, "QEncode")
	}
	clear(dst)
	for i := len(srcs) - 1; i >= 0; i-- {
		gfQStep(dst, srcs[i])
	}
}

// MulAccum accumulates dst ^= c·src element-wise — the arbitrary-
// constant path used when folding one member into a Q syndrome.
func MulAccum(dst, src []byte, c byte) {
	aliasCheck(dst, src, "MulAccum")
	switch c {
	case 0:
		return
	case 1:
		XORInto(dst, src)
		return
	}
	row := mulRow(c)
	for i := range dst {
		dst[i] ^= row[src[i]]
	}
}

// MulConst scales dst in place: dst = c·dst.
func MulConst(dst []byte, c byte) {
	switch c {
	case 1:
		return
	case 0:
		clear(dst)
		return
	}
	row := mulRow(c)
	for i := range dst {
		dst[i] = row[dst[i]]
	}
}

// SolveTwoData recovers two data blocks from their syndromes. On entry
// dx holds the P syndrome P ⊕ Σ_{k∉{x,y}} D_k = D_x ⊕ D_y and dy the Q
// syndrome Q ⊕ Σ_{k∉{x,y}} g^k·D_k = g^x·D_x ⊕ g^y·D_y; x and y are the
// two lost blocks' group positions (x ≠ y). On return dx = D_x and
// dy = D_y. This is the classic two-erasure solve:
//
//	D_x = A·(D_x⊕D_y) ⊕ B·(g^x·D_x ⊕ g^y·D_y)
//	A = g^{y−x} / (g^{y−x} ⊕ 1),   B = g^{−x} / (g^{y−x} ⊕ 1)
func SolveTwoData(dx, dy []byte, x, y int) {
	if x == y {
		panic("recovery: SolveTwoData with x == y")
	}
	if len(dx) != len(dy) {
		panic("recovery: SolveTwoData length mismatch")
	}
	diff := ((y-x)%255 + 255) % 255
	gd := GExp(diff)       // g^{y-x}, never 1 since x != y (mod 255)
	denom := gd ^ 1        // g^{y-x} ⊕ 1, nonzero
	a := GDiv(gd, denom)   // A
	ginvx := GInv(GExp(x)) // g^{-x}
	b := GMul(ginvx, GInv(denom))
	ra, rb := mulRow(a), mulRow(b)
	for i := range dx {
		p, q := dx[i], dy[i]
		d := ra[p] ^ rb[q]
		dx[i] = d
		dy[i] = p ^ d
	}
}

// RecoverPQ fills in the missing members of one P+Q parity group.
// data[k] is the block at group position k; p and q are the parity
// columns. missing lists the lost members by index: 0..len(data)-1 for
// data blocks, len(data) for P, len(data)+1 for Q. The slices at
// missing positions are output buffers (contents ignored on entry); all
// other slices must hold their true contents. A nil q is the
// single-parity group: P is the only column, index len(data)+1 does not
// exist, and a lone erasure is all it covers.
//
// At most as many members may be missing as there are parity columns;
// more returns ErrUnrecoverable.
func RecoverPQ(data [][]byte, p, q []byte, missing []int) error {
	nd := len(data)
	iP, iQ := nd, nd+1
	cols := 2
	if q == nil {
		cols = 1
	}
	if len(missing) == 0 {
		return nil
	}
	if len(missing) > cols {
		return fmt.Errorf("%w: %d members missing, %d parity columns", ErrUnrecoverable, len(missing), cols)
	}
	// Ascending copy, on the stack: this runs once per degraded read.
	var m [2]int
	if copy(m[:], missing) == 2 && m[0] > m[1] {
		m[0], m[1] = m[1], m[0]
	}
	if len(missing) == 2 && m[0] == m[1] {
		return fmt.Errorf("recovery: duplicate missing index %d", m[0])
	}
	for _, idx := range missing {
		if idx < 0 || idx >= nd+cols {
			return fmt.Errorf("recovery: missing index %d outside [0, %d)", idx, nd+cols)
		}
	}
	// others collects the present data blocks, excluding positions x, y,
	// followed by P — on the stack for groups up to 16 wide: this too runs
	// once per degraded read.
	var stack [16][]byte
	others := func(x, y int) [][]byte {
		out := stack[:0]
		for k, d := range data {
			if k != x && k != y {
				out = append(out, d)
			}
		}
		return append(out, p)
	}

	if len(missing) == 1 {
		switch x := m[0]; {
		case x == iP:
			XOR(p, data...)
		case x == iQ:
			QEncode(q, data...)
		default:
			XOR(data[x], others(x, -1)...)
		}
		return nil
	}

	x, y := m[0], m[1] // x < y
	switch {
	case x == iP: // P and Q both lost: recompute from data.
		XOR(p, data...)
		QEncode(q, data...)
	case y == iQ && x < nd: // one data block and Q: data via P, then Q.
		XOR(data[x], others(x, -1)...)
		QEncode(q, data...)
	case y == iP: // one data block and P: data via Q, then P.
		buf := data[x]
		copy(buf, q)
		for k, d := range data {
			if k != x {
				MulAccum(buf, d, GExp(k))
			}
		}
		MulConst(buf, GInv(GExp(x)))
		XOR(p, data...)
	default: // two data blocks: the full two-erasure solve.
		XOR(data[x], others(x, y)...)
		copy(data[y], q)
		for k, d := range data {
			if k != x && k != y {
				MulAccum(data[y], d, GExp(k))
			}
		}
		SolveTwoData(data[x], data[y], x, y)
	}
	return nil
}
