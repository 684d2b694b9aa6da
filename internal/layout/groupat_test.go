package layout

import (
	"reflect"
	"testing"
)

// everyLayout builds one instance of each placement.
func everyLayout(t *testing.T) []Layout {
	t.Helper()
	var out []Layout
	add := func(l Layout, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	d, err := NewDeclustered(13, 4)
	add(d, err)
	pq, err := NewDeclusteredPQ(13, 4)
	add(pq, err)
	il, err := NewInterleaved(7, 3)
	add(il, err)
	c, err := NewClustered(8, 4)
	add(c, err)
	f, err := NewFlatUniform(9, 4, 900)
	add(f, err)
	return out
}

// groupOf returns the parity group of logical data block i.
func groupOf(l Layout, i int64) Group {
	var g Group
	l.GroupAt(l.Place(i), &g)
	return g
}

// TestGroupAtOwnsEveryMember: from the address of any member — data, P or
// Q — GroupAt recovers the very group the data block's own address names
// and that member's index in it, and a warm Group is filled without
// allocating.
func TestGroupAtOwnsEveryMember(t *testing.T) {
	for _, l := range everyLayout(t) {
		var g Group
		for i := int64(0); i < 600; i++ {
			want := groupOf(l, i)
			members := append([]BlockAddr(nil), want.DataAddr...)
			members = append(members, want.Parity)
			if want.HasQ {
				members = append(members, want.Q)
			}
			for idx, a := range members {
				if got := l.GroupAt(a, &g); got != idx || !reflect.DeepEqual(g, want) {
					t.Fatalf("%T: GroupAt(%v) = %d, %+v; want %d, %+v", l, a, got, g, idx, want)
				}
			}
			if k := l.GroupAt(l.Place(i), &g); g.Data[k] != i {
				t.Fatalf("%T: block %d sits at member %d of %+v", l, i, k, g)
			}
		}
		a := groupOf(l, 77).Parity
		if n := testing.AllocsPerRun(100, func() { l.GroupAt(a, &g) }); n != 0 {
			t.Errorf("%T: GroupAt into a warm Group allocates %v objects", l, n)
		}
	}
}

// TestFlatGroupAtPastLastParity: the flat placement is the one with
// addresses no group owns — the tail of each disk's parity region.
func TestFlatGroupAtPastLastParity(t *testing.T) {
	l, err := NewFlatUniform(9, 4, 900)
	if err != nil {
		t.Fatal(err)
	}
	var g Group
	for disk := 0; disk < 9; disk++ {
		owned := int64(0)
		for b := l.levels(); l.GroupAt(BlockAddr{Disk: disk, Block: b}, &g) >= 0; b++ {
			if g.Parity != (BlockAddr{Disk: disk, Block: b}) {
				t.Fatalf("disk %d block %d: group's parity is at %v", disk, b, g.Parity)
			}
			owned++
		}
		// 3 clusters × 100 levels of parity spread evenly over 9 disks.
		if owned < 30 || owned > 36 {
			t.Errorf("disk %d owns %d parity blocks", disk, owned)
		}
	}
}
