package layout

import (
	"testing"
	"testing/quick"
)

func TestInterleavedBasics(t *testing.T) {
	l, err := NewInterleaved(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.Disks() != 7 || l.GroupSize() != 3 || l.Rows() != 3 {
		t.Fatalf("geometry d=%d p=%d r=%d", l.Disks(), l.GroupSize(), l.Rows())
	}
	if l.Name() != "declustered-dynamic" {
		t.Errorf("Name = %q", l.Name())
	}
	if _, err := NewInterleaved(10, 3); err == nil {
		t.Error("accepted geometry with no design")
	}
}

// TestInterleavedRowStructure: logical block x belongs to super-clip
// x mod r, and consecutive blocks of one super-clip land on consecutive
// disks.
func TestInterleavedRowStructure(t *testing.T) {
	l, err := NewInterleaved(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x < 300; x++ {
		if got := l.RowOf(x); got != int(x%3) {
			t.Fatalf("RowOf(%d) = %d", x, got)
		}
	}
	for row := 0; row < 3; row++ {
		prev := l.Place(int64(row))
		for i := int64(1); i < 60; i++ {
			cur := l.Place(int64(row) + i*3)
			if cur.Disk != (prev.Disk+1)%7 {
				t.Fatalf("row %d: blocks %d,%d on disks %d,%d", row, i-1, i, prev.Disk, cur.Disk)
			}
			prev = cur
		}
	}
}

// TestInterleavedRoundTrip: Place/LogicalAt are inverses; addresses never
// collide across super-clips.
func TestInterleavedRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ d, p int }{{7, 3}, {32, 8}, {32, 16}, {13, 4}} {
		l, err := NewInterleaved(cfg.d, cfg.p)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[BlockAddr]int64{}
		for x := int64(0); x < 1500; x++ {
			addr := l.Place(x)
			if prev, dup := seen[addr]; dup {
				t.Fatalf("(%d,%d): %d and %d collide at %v", cfg.d, cfg.p, prev, x, addr)
			}
			seen[addr] = x
			if back := l.LogicalAt(addr); back != x {
				t.Fatalf("(%d,%d): LogicalAt(Place(%d)) = %d", cfg.d, cfg.p, x, back)
			}
		}
	}
}

// TestInterleavedGroups: groups contain the queried block, occupy p
// distinct disks, and agree from every member.
func TestInterleavedGroups(t *testing.T) {
	l, err := NewInterleaved(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x < 400; x++ {
		g := groupOf(l, x)
		if len(g.Data) != 2 {
			t.Fatalf("group of %d has %d members", x, len(g.Data))
		}
		self := false
		disks := map[int]bool{g.Parity.Disk: true}
		for k, li := range g.Data {
			if li == x {
				self = true
			}
			if disks[g.DataAddr[k].Disk] {
				t.Fatalf("group of %d repeats a disk", x)
			}
			disks[g.DataAddr[k].Disk] = true
			g2 := groupOf(l, li)
			if g2.Parity != g.Parity {
				t.Fatalf("groups of %d and %d disagree", x, li)
			}
		}
		if !self {
			t.Fatalf("group of %d missing self", x)
		}
		if l.LogicalAt(g.Parity) >= 0 {
			t.Fatalf("parity of %d decodes as data", x)
		}
	}
}

func TestInterleavedPanics(t *testing.T) {
	l, err := NewInterleaved(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, func() { l.Place(-1) })
	mustPanic(t, func() { l.LogicalAt(BlockAddr{Disk: 7}) })
}

// TestLayoutsRoundTripProperty: quick-checked Place/LogicalAt inversion
// across all arithmetic layouts.
func TestLayoutsRoundTripProperty(t *testing.T) {
	clus, err := NewClustered(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewFlatUniform(12, 4, 12000)
	if err != nil {
		t.Fatal(err)
	}
	lays := []Layout{clus, flat}
	for _, fl := range pgtFlavours {
		l, err := fl.new(13, 4)
		if err != nil {
			t.Fatal(err)
		}
		lays = append(lays, l)
	}
	f := func(raw uint32) bool {
		x := int64(raw % 10000)
		for _, l := range lays {
			if l.LogicalAt(l.Place(x)) != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLayoutsGroupDisjointProperty: for each layout, two blocks in the
// same group never share a disk, and the parity disk differs from all
// data disks.
func TestLayoutsGroupDisjointProperty(t *testing.T) {
	decl, _ := NewDeclustered(13, 4)
	inter, _ := NewInterleaved(13, 4)
	clus, _ := NewClustered(12, 4)
	flat, _ := NewFlatUniform(12, 4, 12000)
	lays := []Layout{decl, inter, clus, flat}
	f := func(raw uint32) bool {
		x := int64(raw % 10000)
		for _, l := range lays {
			g := groupOf(l, x)
			disks := map[int]bool{g.Parity.Disk: true}
			for _, a := range g.DataAddr {
				if disks[a.Disk] {
					return false
				}
				disks[a.Disk] = true
			}
			if len(g.Data) != l.GroupSize()-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
