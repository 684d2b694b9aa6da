package layout

import "fmt"

// Interleaved adapts the super-clipped placement (§5.1) to the Layout
// interface by interleaving the r super-clips into one logical address
// space: logical block x lives in super-clip x mod r at index x div r.
//
// A clip stored in super-clip k therefore occupies logical blocks
// k, k+r, k+2r, … — a stride-r sequence — and advances one disk per
// block exactly like the §4 layout, while staying in PGT row k for its
// whole life (the property the dynamic reservation controller needs).
type Interleaved struct {
	// S is the underlying super-clipped placement.
	S *SuperClipped
}

// NewInterleaved builds the layout for d disks and parity group size p.
func NewInterleaved(d, p int) (*Interleaved, error) {
	s, err := NewSuperClipped(d, p)
	if err != nil {
		return nil, err
	}
	return &Interleaved{S: s}, nil
}

// Name implements Layout.
func (l *Interleaved) Name() string { return "declustered-dynamic" }

// Disks implements Layout.
func (l *Interleaved) Disks() int { return l.S.Table.D }

// GroupSize implements Layout.
func (l *Interleaved) GroupSize() int { return l.S.Table.P }

// Rows returns r, the number of super-clips.
func (l *Interleaved) Rows() int { return l.S.Rows() }

// split maps a logical index to (row, index-within-super-clip).
func (l *Interleaved) split(x int64) (row int, i int64) {
	if x < 0 {
		panic("layout: negative logical block")
	}
	r := int64(l.S.Rows())
	return int(x % r), x / r
}

// join is the inverse of split.
func (l *Interleaved) join(row int, i int64) int64 {
	return int64(row) + i*int64(l.S.Rows())
}

// Place implements Layout.
func (l *Interleaved) Place(x int64) BlockAddr {
	row, i := l.split(x)
	return l.S.Place(row, i)
}

// LogicalAt implements Layout.
func (l *Interleaved) LogicalAt(addr BlockAddr) int64 {
	row, i := l.S.LogicalAt(addr)
	if i < 0 {
		return -1
	}
	return l.join(row, i)
}

// KindAt implements Layout.
func (l *Interleaved) KindAt(addr BlockAddr) Kind {
	if l.LogicalAt(addr) < 0 {
		return Parity
	}
	return Data
}

// GroupOf implements Layout.
func (l *Interleaved) GroupOf(x int64) Group {
	g := newGroup(l.GroupSize())
	l.GroupAt(l.Place(x), &g)
	return g
}

// GroupAt implements Layout. Group members generally belong to different
// super-clips (§5.1), which the interleaved address space represents
// naturally.
func (l *Interleaved) GroupAt(addr BlockAddr, g *Group) int {
	return tableGroupAt(l.S.Table, l, false, addr, g)
}

// RowOf returns the super-clip (PGT row) of logical block x.
func (l *Interleaved) RowOf(x int64) int {
	row, _ := l.split(x)
	return row
}

// String aids debugging.
func (l *Interleaved) String() string {
	return fmt.Sprintf("interleaved(d=%d, p=%d, r=%d)", l.Disks(), l.GroupSize(), l.Rows())
}
