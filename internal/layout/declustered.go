package layout

import (
	"fmt"

	"ftcms/internal/bibd"
	"ftcms/internal/pgt"
)

// Declustered is the declustered-parity placement of §4.1 (Figure 2): all
// clips are concatenated into one stream whose data blocks go to
// consecutive disks round-robin; on each disk, blocks cycle through the
// PGT rows, skipping disk blocks that hold parity for their window.
//
// The placement procedure of Figure 2 is sequential ("the minimum n for
// which disk block j + n·r is not a parity block and has not already been
// allocated"), but because visits to a given (disk, row) pair happen in
// increasing order and parity blocks recur with period p within a
// (disk, row) block sequence, it reduces to closed form; the golden tests
// pin it against the paper's 7-disk example table.
type Declustered struct {
	// Table is the parity group table driving the placement.
	Table *pgt.Table
}

// NewDeclustered builds the declustered layout for d disks and parity
// group size p, constructing the underlying design via bibd.New.
func NewDeclustered(d, p int) (*Declustered, error) {
	des, err := bibd.New(d, p)
	if err != nil {
		return nil, fmt.Errorf("layout: declustered(d=%d, p=%d): %w", d, p, err)
	}
	t, err := pgt.New(des)
	if err != nil {
		return nil, err
	}
	return &Declustered{Table: t}, nil
}

// Name implements Layout.
func (l *Declustered) Name() string { return "declustered" }

// Disks implements Layout.
func (l *Declustered) Disks() int { return l.Table.D }

// GroupSize implements Layout.
func (l *Declustered) GroupSize() int { return l.Table.P }

// Rows returns r, the number of PGT rows.
func (l *Declustered) Rows() int { return l.Table.R }

// parityResidue returns ρ such that on (disk, row), windows n ≡ ρ (mod p)
// hold parity: the rotation picks disk for window n iff
// disks[(p−1−n%p) mod p] == disk. The table precomputes it per cell.
func (l *Declustered) parityResidue(disk, row int) int {
	return l.Table.ParityResidue(disk, row)
}

// dataWindow returns the window of the t-th data (non-parity) block in the
// (disk, row) sequence, skipping windows ≡ ρ (mod p).
func dataWindow(t int64, rho, p int) int64 {
	m := t / int64(p-1)
	u := int(t % int64(p-1))
	v := u
	if u >= rho {
		v = u + 1
	}
	return m*int64(p) + int64(v)
}

// dataIndexOf inverts dataWindow: the ordinal of window n among data
// windows of the (disk, row) sequence, or -1 when n is a parity window.
func dataIndexOf(n int64, rho, p int) int64 {
	v := int(n % int64(p))
	if v == rho {
		return -1
	}
	u := v
	if v > rho {
		u = v - 1
	}
	return (n/int64(p))*int64(p-1) + int64(u)
}

// Place implements Layout using the closed form of the Figure 2 procedure:
// logical block i goes to disk i mod d; its visit ordinal m = i div d has
// row j = m mod r and per-row ordinal t = m div r; the block lands in the
// t-th non-parity window of the (disk, row) sequence.
func (l *Declustered) Place(i int64) BlockAddr {
	if i < 0 {
		panic("layout: negative logical block")
	}
	d := int64(l.Table.D)
	r := int64(l.Table.R)
	disk := int(i % d)
	m := i / d
	j := int(m % r)
	t := m / r
	rho := l.parityResidue(disk, j)
	n := dataWindow(t, rho, l.Table.P)
	return BlockAddr{Disk: disk, Block: n*r + int64(j)}
}

// LogicalAt implements Layout.
func (l *Declustered) LogicalAt(addr BlockAddr) int64 {
	checkDiskRange(addr.Disk, l.Table.D)
	r := int64(l.Table.R)
	j := int(addr.Block % r)
	n := addr.Block / r
	rho := l.parityResidue(addr.Disk, j)
	t := dataIndexOf(n, rho, l.Table.P)
	if t < 0 {
		return -1
	}
	m := int64(j) + t*r
	return int64(addr.Disk) + m*int64(l.Table.D)
}

// KindAt implements Layout.
func (l *Declustered) KindAt(addr BlockAddr) Kind {
	if l.LogicalAt(addr) < 0 {
		return Parity
	}
	return Data
}

// RowOf returns the PGT row that logical data block i maps to.
func (l *Declustered) RowOf(i int64) int {
	m := i / int64(l.Table.D)
	return int(m % int64(l.Table.R))
}

// GroupOf implements Layout.
func (l *Declustered) GroupOf(i int64) Group {
	g := newGroup(l.GroupSize())
	l.GroupAt(l.Place(i), &g)
	return g
}

// GroupAt implements Layout.
func (l *Declustered) GroupAt(addr BlockAddr, g *Group) int {
	return tableGroupAt(l.Table, l, false, addr, g)
}

// tableGroupAt is GroupAt for the PGT-driven placements: the group that
// owns addr is the window-n occurrence of the set in addr's table cell,
// one member per disk of the set at that disk's row of the window. Set
// membership, rows and the parity rotation are precomputed lookups; l
// decodes the data members' logical indices, and withQ selects the P+Q
// rotation, which parks a second parity block per window.
func tableGroupAt(t *pgt.Table, l Layout, withQ bool, addr BlockAddr, g *Group) int {
	checkDiskRange(addr.Disk, t.D)
	r := int64(t.R)
	n := addr.Block / r
	s := t.Set(int(addr.Block%r), addr.Disk)
	pd, qd := t.ParityDisk(s, int(n)), -1
	if withQ {
		qd = t.ParityDiskQ(s, int(n))
	}
	*g = Group{Data: g.Data[:0], DataAddr: g.DataAddr[:0], HasQ: withQ}
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

// SuperClipped is the §5.1 variant used by the dynamic reservation scheme:
// the same PGT-driven placement, but the store is split into r independent
// super-clips; super-clip k only occupies disk blocks mapped to PGT row k,
// so a clip stays in one row for its whole life.
type SuperClipped struct {
	// Table is the parity group table driving the placement.
	Table *pgt.Table
}

// NewSuperClipped builds the super-clip layout for d disks and group size
// p.
func NewSuperClipped(d, p int) (*SuperClipped, error) {
	des, err := bibd.New(d, p)
	if err != nil {
		return nil, fmt.Errorf("layout: superclipped(d=%d, p=%d): %w", d, p, err)
	}
	t, err := pgt.New(des)
	if err != nil {
		return nil, err
	}
	return &SuperClipped{Table: t}, nil
}

// Name identifies the scheme.
func (l *SuperClipped) Name() string { return "declustered-dynamic" }

// Disks returns d.
func (l *SuperClipped) Disks() int { return l.Table.D }

// GroupSize returns p.
func (l *SuperClipped) GroupSize() int { return l.Table.P }

// Rows returns r, the number of super-clips.
func (l *SuperClipped) Rows() int { return l.Table.R }

// Place returns the address of block i of super-clip row: disk i mod d, in
// the (i div d)-th non-parity window of the (disk, row) sequence.
func (l *SuperClipped) Place(row int, i int64) BlockAddr {
	if row < 0 || row >= l.Table.R {
		panic(fmt.Sprintf("layout: super-clip row %d out of range [0, %d)", row, l.Table.R))
	}
	if i < 0 {
		panic("layout: negative logical block")
	}
	d := int64(l.Table.D)
	disk := int(i % d)
	t := i / d
	rho := l.Table.ParityResidue(disk, row)
	n := dataWindow(t, rho, l.Table.P)
	return BlockAddr{Disk: disk, Block: n*int64(l.Table.R) + int64(row)}
}

// LogicalAt returns (row, index) of the data block at addr, or (-1, -1)
// for parity.
func (l *SuperClipped) LogicalAt(addr BlockAddr) (row int, i int64) {
	checkDiskRange(addr.Disk, l.Table.D)
	r := int64(l.Table.R)
	row = int(addr.Block % r)
	n := addr.Block / r
	rho := l.Table.ParityResidue(addr.Disk, row)
	t := dataIndexOf(n, rho, l.Table.P)
	if t < 0 {
		return -1, -1
	}
	return row, int64(addr.Disk) + t*int64(l.Table.D)
}
