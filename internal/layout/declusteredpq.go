package layout

import (
	"fmt"

	"ftcms/internal/bibd"
	"ftcms/internal/pgt"
)

// DeclusteredPQ is the P+Q double-parity variant of the declustered
// placement: the same BIBD-driven parity group table, but each group
// stores two independent parity columns — the XOR parity P and a
// Reed-Solomon-coded Q — so any two concurrent failures inside a group
// remain recoverable. This is the t-design-style generalization of §4:
// reconstruction load stays spread over the whole array exactly as with
// single parity, only the per-group redundancy doubles.
//
// Placement arithmetic mirrors Declustered: within each (disk, row)
// block sequence the parity rotation has period p, but now two windows
// per period hold parity (ρP and its trailing neighbour ρQ = ρP + p − 1
// mod p), leaving p−2 data windows. All queries stay closed-form O(1).
type DeclusteredPQ struct {
	// Table is the parity group table driving the placement.
	Table *pgt.Table
}

// NewDeclusteredPQ builds the double-parity declustered layout for d
// disks and parity group size p (p ≥ 3: a group is p−2 data blocks plus
// P plus Q).
func NewDeclusteredPQ(d, p int) (*DeclusteredPQ, error) {
	if p < 3 {
		return nil, fmt.Errorf("layout: declustered-pq needs p >= 3 (p-2 data + P + Q), got p=%d", p)
	}
	des, err := bibd.New(d, p)
	if err != nil {
		return nil, fmt.Errorf("layout: declustered-pq(d=%d, p=%d): %w", d, p, err)
	}
	t, err := pgt.New(des)
	if err != nil {
		return nil, err
	}
	return &DeclusteredPQ{Table: t}, nil
}

// Name implements Layout.
func (l *DeclusteredPQ) Name() string { return "declustered-pq" }

// Disks implements Layout.
func (l *DeclusteredPQ) Disks() int { return l.Table.D }

// GroupSize implements Layout.
func (l *DeclusteredPQ) GroupSize() int { return l.Table.P }

// Rows returns r, the number of PGT rows.
func (l *DeclusteredPQ) Rows() int { return l.Table.R }

// dataWindow2 returns the window of the t-th data block in a (disk,
// row) sequence that parks parity in windows ≡ r1 and ≡ r2 (mod p):
// p−2 data windows per period, skipping both parity residues.
func dataWindow2(t int64, r1, r2, p int) int64 {
	a, b := r1, r2
	if a > b {
		a, b = b, a
	}
	m := t / int64(p-2)
	v := int(t % int64(p-2))
	if v >= a {
		v++
	}
	if v >= b {
		v++
	}
	return m*int64(p) + int64(v)
}

// dataIndexOf2 inverts dataWindow2: the ordinal of window n among the
// sequence's data windows, or -1 when n holds P or Q parity.
func dataIndexOf2(n int64, r1, r2, p int) int64 {
	a, b := r1, r2
	if a > b {
		a, b = b, a
	}
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
	return (n/int64(p))*int64(p-2) + int64(u)
}

// Place implements Layout with the same closed form as Declustered,
// skipping two parity residues per period instead of one.
func (l *DeclusteredPQ) Place(i int64) BlockAddr {
	if i < 0 {
		panic("layout: negative logical block")
	}
	d := int64(l.Table.D)
	r := int64(l.Table.R)
	disk := int(i % d)
	m := i / d
	j := int(m % r)
	t := m / r
	rp := l.Table.ParityResidue(disk, j)
	rq := l.Table.ParityResidueQ(disk, j)
	n := dataWindow2(t, rp, rq, l.Table.P)
	return BlockAddr{Disk: disk, Block: n*r + int64(j)}
}

// LogicalAt implements Layout.
func (l *DeclusteredPQ) LogicalAt(addr BlockAddr) int64 {
	checkDiskRange(addr.Disk, l.Table.D)
	r := int64(l.Table.R)
	j := int(addr.Block % r)
	n := addr.Block / r
	rp := l.Table.ParityResidue(addr.Disk, j)
	rq := l.Table.ParityResidueQ(addr.Disk, j)
	t := dataIndexOf2(n, rp, rq, l.Table.P)
	if t < 0 {
		return -1
	}
	m := int64(j) + t*r
	return int64(addr.Disk) + m*int64(l.Table.D)
}

// KindAt implements Layout: both parity columns report Parity.
func (l *DeclusteredPQ) KindAt(addr BlockAddr) Kind {
	if l.LogicalAt(addr) < 0 {
		return Parity
	}
	return Data
}

// RowOf returns the PGT row that logical data block i maps to.
func (l *DeclusteredPQ) RowOf(i int64) int {
	m := i / int64(l.Table.D)
	return int(m % int64(l.Table.R))
}

// GroupOf implements Layout.
func (l *DeclusteredPQ) GroupOf(i int64) Group {
	g := newGroup(l.GroupSize())
	l.GroupAt(l.Place(i), &g)
	return g
}

// GroupAt implements Layout: the data members come in ascending set-disk
// order (their positions fix the Q coefficients), P and Q follow this
// window's rotation.
func (l *DeclusteredPQ) GroupAt(addr BlockAddr, g *Group) int {
	return tableGroupAt(l.Table, l, true, addr, g)
}
