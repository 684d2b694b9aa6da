package layout

import "testing"

// FuzzDeclusteredRoundTrip: Place/LogicalAt stay inverse for arbitrary
// block indices in all three flavours of the PGT placement across several
// geometries, including the approximate designs of the paper's evaluation.
func FuzzDeclusteredRoundTrip(f *testing.F) {
	f.Add(uint16(0))
	f.Add(uint16(41))
	f.Add(uint16(65535))
	var layouts []*Declustered
	for _, fl := range pgtFlavours {
		for _, g := range [][2]int{{7, 3}, {13, 4}, {32, 8}, {32, 2}, {32, 32}} {
			if g[1] < fl.minP {
				continue
			}
			l, err := fl.new(g[0], g[1])
			if err != nil {
				f.Fatal(err)
			}
			layouts = append(layouts, l)
		}
	}
	f.Fuzz(func(t *testing.T, raw uint16) {
		x := int64(raw)
		for _, l := range layouts {
			d, p := l.Disks(), l.GroupSize()
			addr := l.Place(x)
			if back := l.LogicalAt(addr); back != x {
				t.Fatalf("%s(%d,%d): LogicalAt(Place(%d)) = %d", l.Name(), d, p, x, back)
			}
			g := groupOf(l, x)
			if want := p - parityColumns(g); len(g.Data) != want {
				t.Fatalf("%s(%d,%d): %d data members, want %d", l.Name(), d, p, len(g.Data), want)
			}
			if k := g.member(addr); k < 0 || g.Data[k] != x {
				t.Fatalf("%s(%d,%d): block %d is member %d of its group %+v", l.Name(), d, p, x, k, g)
			}
		}
	})
}

// parityColumns is 2 for a P+Q group, else 1.
func parityColumns(g Group) int {
	if g.HasQ {
		return 2
	}
	return 1
}

// FuzzClusteredInverse: arbitrary addresses decode consistently — every
// address is either parity or decodes to a block that places back to it.
func FuzzClusteredInverse(f *testing.F) {
	l, err := NewClustered(8, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), uint16(0))
	f.Add(uint8(7), uint16(9999))
	f.Fuzz(func(t *testing.T, diskRaw uint8, blockRaw uint16) {
		addr := BlockAddr{Disk: int(diskRaw) % 8, Block: int64(blockRaw)}
		x := l.LogicalAt(addr)
		if x < 0 {
			if !l.IsParityDisk(addr.Disk) {
				t.Fatalf("data-disk address %v decoded as parity", addr)
			}
			return
		}
		if l.Place(x) != addr {
			t.Fatalf("Place(LogicalAt(%v)) = %v", addr, l.Place(x))
		}
	})
}
