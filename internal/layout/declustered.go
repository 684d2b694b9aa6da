package layout

import (
	"fmt"

	"ftcms/internal/bibd"
	"ftcms/internal/pgt"
)

// Declustered is the PGT-driven placement of §4.1 (Figure 2): data blocks
// go to consecutive disks round-robin; on each disk, blocks cycle through
// the PGT rows, skipping the disk blocks that hold parity for their
// window. Within a (disk, row) block sequence the parity rotation has
// period p, so the windows n ≡ ρP (mod p) hold parity and the rest data.
//
// The placement procedure of Figure 2 is sequential ("the minimum n for
// which disk block j + n·r is not a parity block and has not already been
// allocated"), but because visits to a given (disk, row) pair happen in
// increasing order and parity recurs with period p, it reduces to closed
// form, O(1) per query; the golden tests pin it against the paper's
// 7-disk example table.
//
// The same table and the same arithmetic serve three placements, which
// differ in two switches fixed by the constructor:
//
//   - P+Q double parity (NewDeclusteredPQ) parks a second, Reed-Solomon
//     coded parity block per window at ρQ = ρP + p − 1 (mod p), leaving
//     p−2 data windows per period, so any two failures inside a group
//     stay recoverable while reconstruction load spreads over the whole
//     array exactly as with single parity. Without Q the second residue
//     is p, which no window reaches.
//   - Row-first addressing (NewInterleaved, §5.1) splits the store into r
//     super-clips interleaved into one address space: logical block x is
//     block x div r of super-clip x mod r, which occupies only disk blocks
//     of PGT row x mod r. A clip stored at stride r advances one disk per
//     block like the §4 layout while staying in one row for its whole
//     life — the property the dynamic reservation controller needs.
type Declustered struct {
	// Table is the parity group table driving the placement.
	Table *pgt.Table

	withQ    bool // groups carry a Q column
	rowFirst bool // §5.1 addressing: row = x mod r
}

// NewDeclustered builds the §4.1 layout for d disks and parity group size
// p, constructing the underlying design via bibd.New.
func NewDeclustered(d, p int) (*Declustered, error) { return newPGT(d, p, false, false) }

// NewDeclusteredPQ builds the double-parity layout (p ≥ 3: a group is p−2
// data blocks plus P plus Q).
func NewDeclusteredPQ(d, p int) (*Declustered, error) {
	if p < 3 {
		return nil, fmt.Errorf("layout: declustered-pq needs p >= 3 (p-2 data + P + Q), got p=%d", p)
	}
	return newPGT(d, p, true, false)
}

// NewInterleaved builds the §5.1 super-clip layout of the dynamic
// reservation scheme.
func NewInterleaved(d, p int) (*Declustered, error) { return newPGT(d, p, false, true) }

func newPGT(d, p int, withQ, rowFirst bool) (*Declustered, error) {
	l := &Declustered{withQ: withQ, rowFirst: rowFirst}
	des, err := bibd.New(d, p)
	if err != nil {
		return nil, fmt.Errorf("layout: %s(d=%d, p=%d): %w", l.Name(), d, p, err)
	}
	if l.Table, err = pgt.New(des); err != nil {
		return nil, err
	}
	return l, nil
}

// Name is the scheme key the placement serves, for its constructor's
// errors.
func (l *Declustered) Name() string {
	switch {
	case l.withQ:
		return "declustered-pq"
	case l.rowFirst:
		return "declustered-dynamic"
	}
	return "declustered"
}

// Disks implements Layout.
func (l *Declustered) Disks() int { return l.Table.D }

// GroupSize implements Layout.
func (l *Declustered) GroupSize() int { return l.Table.P }

// Rows returns r, the number of PGT rows (and of §5.1 super-clips).
func (l *Declustered) Rows() int { return l.Table.R }

// split maps logical block x to its disk, its PGT row and its ordinal
// among the data blocks of that (disk, row) sequence. §4.1 walks the
// disks, then the rows: visit x div d has row (x div d) mod r. §5.1 reads
// the row first and walks the disks inside the super-clip.
func (l *Declustered) split(x int64) (disk, row int, t int64) {
	if x < 0 {
		panic("layout: negative logical block")
	}
	d, r := int64(l.Table.D), int64(l.Table.R)
	if l.rowFirst {
		i := x / r
		return int(i % d), int(x % r), i / d
	}
	m := x / d
	return int(x % d), int(m % r), m / r
}

// join is the inverse of split.
func (l *Declustered) join(disk, row int, t int64) int64 {
	d, r := int64(l.Table.D), int64(l.Table.R)
	if l.rowFirst {
		return int64(row) + (int64(disk)+t*d)*r
	}
	return int64(disk) + (int64(row)+t*r)*d
}

// residues returns, ascending, the two residues mod p of the windows that
// hold parity in the (disk, row) sequence, and the data windows left per
// period. Single parity has no second residue: p stands in for it.
func (l *Declustered) residues(disk, row int) (a, b, k int) {
	a, b, k = l.Table.ParityResidue(disk, row), l.Table.P, l.Table.P-1
	if l.withQ {
		b, k = l.Table.ParityResidueQ(disk, row), k-1
		if a > b {
			a, b = b, a
		}
	}
	return a, b, k
}

// dataWindow returns the window of the t-th data block in a sequence of
// period p with k data windows per period, skipping residues a < b.
func dataWindow(t int64, a, b, k, p int) int64 {
	v := int(t % int64(k))
	if v >= a {
		v++
	}
	if v >= b {
		v++
	}
	return t/int64(k)*int64(p) + int64(v)
}

// dataIndexOf inverts dataWindow: the ordinal of window n among the
// sequence's data windows, or -1 when n holds parity.
func dataIndexOf(n int64, a, b, k, p int) int64 {
	v := int(n % int64(p))
	if v == a || v == b {
		return -1
	}
	u := v
	if v > a {
		u--
	}
	if v > b {
		u--
	}
	return n/int64(p)*int64(k) + int64(u)
}

// Place implements Layout using the closed form of the Figure 2
// procedure: the block lands in the t-th non-parity window of its
// (disk, row) sequence, and window n of row j is disk block n·r + j.
func (l *Declustered) Place(x int64) BlockAddr {
	disk, row, t := l.split(x)
	a, b, k := l.residues(disk, row)
	n := dataWindow(t, a, b, k, l.Table.P)
	return BlockAddr{Disk: disk, Block: n*int64(l.Table.R) + int64(row)}
}

// LogicalAt implements Layout.
func (l *Declustered) LogicalAt(addr BlockAddr) int64 {
	checkDiskRange(addr.Disk, l.Table.D)
	r := int64(l.Table.R)
	row := int(addr.Block % r)
	a, b, k := l.residues(addr.Disk, row)
	t := dataIndexOf(addr.Block/r, a, b, k, l.Table.P)
	if t < 0 {
		return -1
	}
	return l.join(addr.Disk, row, t)
}

// RowOf returns the PGT row (the super-clip, under §5.1 addressing) that
// logical data block x maps to.
func (l *Declustered) RowOf(x int64) int {
	_, row, _ := l.split(x)
	return row
}

// GroupAt implements Layout: the group that owns addr is the window-n
// occurrence of the set in addr's table cell, one member per disk of the
// set at that disk's row of the window. Set membership, rows and the
// parity rotation are precomputed lookups. The data members come in
// ascending set-disk order (their positions fix the Q coefficients) and
// under §5.1 addressing generally belong to different super-clips.
func (l *Declustered) GroupAt(addr BlockAddr, g *Group) int {
	t := l.Table
	checkDiskRange(addr.Disk, t.D)
	r := int64(t.R)
	n := addr.Block / r
	s := t.Set(int(addr.Block%r), addr.Disk)
	pd, qd := t.ParityDisk(s, int(n)), -1
	if l.withQ {
		qd = t.ParityDiskQ(s, int(n))
	}
	*g = Group{Data: g.Data[:0], DataAddr: g.DataAddr[:0], HasQ: l.withQ}
	for _, m := range t.Disks(s) {
		a := BlockAddr{Disk: m, Block: n*r + int64(t.RowOf(s, m))}
		switch m {
		case pd:
			g.Parity = a
		case qd:
			g.Q = a
		default:
			g.Data = append(g.Data, l.LogicalAt(a))
			g.DataAddr = append(g.DataAddr, a)
		}
	}
	return g.member(addr)
}
