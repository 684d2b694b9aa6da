package layout

import "testing"

func TestClusteredBasics(t *testing.T) {
	l, err := NewClustered(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.Disks() != 32 || l.GroupSize() != 4 || l.Clusters() != 8 || l.DataDisks() != 24 {
		t.Fatalf("geometry wrong: d=%d p=%d clusters=%d data=%d", l.Disks(), l.GroupSize(), l.Clusters(), l.DataDisks())
	}
	// Parity disks are 3, 7, 11, ..., 31.
	for c := 0; c < 8; c++ {
		pd := l.ParityDiskOf(c)
		if pd != c*4+3 {
			t.Errorf("ParityDiskOf(%d) = %d", c, pd)
		}
		if !l.IsParityDisk(pd) {
			t.Errorf("IsParityDisk(%d) = false", pd)
		}
		if l.IsParityDisk(pd - 1) {
			t.Errorf("IsParityDisk(%d) = true", pd-1)
		}
	}
}

func TestClusteredConstructors(t *testing.T) {
	if _, err := NewClustered(10, 4); err == nil {
		t.Error("p must divide d")
	}
	if _, err := NewClustered(4, 1); err == nil {
		t.Error("p must be >= 2")
	}
	if _, err := NewClustered(2, 4); err == nil {
		t.Error("d must be >= p")
	}
}

func TestClusteredRoundTrip(t *testing.T) {
	l, err := NewClustered(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[BlockAddr]bool{}
	for i := int64(0); i < 600; i++ {
		addr := l.Place(i)
		if seen[addr] {
			t.Fatalf("address %v reused", addr)
		}
		seen[addr] = true
		if l.IsParityDisk(addr.Disk) {
			t.Fatalf("data block %d placed on parity disk %d", i, addr.Disk)
		}
		if back := l.LogicalAt(addr); back != i {
			t.Fatalf("LogicalAt(Place(%d)) = %d", i, back)
		}
	}
	// Parity disk addresses decode as parity.
	if l.LogicalAt(BlockAddr{Disk: 3, Block: 5}) != -1 {
		t.Error("parity disk block decoded as data")
	}
	if l.LogicalAt(BlockAddr{Disk: 7, Block: 0}) >= 0 {
		t.Error("second parity disk block decoded as data")
	}
}

// TestClusteredPlacementShape: with d=8, p=4, data disks are 0,1,2 and
// 4,5,6; the stream visits them in order.
func TestClusteredPlacementShape(t *testing.T) {
	l, err := NewClustered(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantDisks := []int{0, 1, 2, 4, 5, 6, 0, 1, 2, 4, 5, 6}
	for i, want := range wantDisks {
		addr := l.Place(int64(i))
		if addr.Disk != want {
			t.Errorf("block %d on disk %d, want %d", i, addr.Disk, want)
		}
		if addr.Block != int64(i/6) {
			t.Errorf("block %d at level %d, want %d", i, addr.Block, i/6)
		}
	}
}

func TestClusteredGroups(t *testing.T) {
	l, err := NewClustered(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Group of block 0: blocks 0,1,2 on disks 0,1,2 level 0, parity disk 3.
	g := groupOf(l, 0)
	if len(g.Data) != 3 || g.Data[0] != 0 || g.Data[1] != 1 || g.Data[2] != 2 {
		t.Fatalf("group of 0: %v", g.Data)
	}
	if g.Parity != (BlockAddr{Disk: 3, Block: 0}) {
		t.Fatalf("parity of group 0 at %v", g.Parity)
	}
	// Group of block 4: blocks 3,4,5 in cluster 1, parity disk 7.
	g = groupOf(l, 4)
	if g.Data[0] != 3 || g.Data[2] != 5 || g.Parity.Disk != 7 {
		t.Fatalf("group of 4: %v parity %v", g.Data, g.Parity)
	}
	// Consistency across members and levels.
	for i := int64(0); i < 300; i++ {
		g := groupOf(l, i)
		if len(g.Data) != 3 {
			t.Fatalf("group of %d has %d members", i, len(g.Data))
		}
		for _, li := range g.Data {
			g2 := groupOf(l, li)
			if g2.Parity != g.Parity {
				t.Fatalf("members %d and %d disagree on parity", i, li)
			}
		}
		if c := l.Place(i).Disk / 4; g.Parity.Disk != l.ParityDiskOf(c) {
			t.Fatalf("parity of block %d not on its cluster's parity disk", i)
		}
	}
}

func TestClusteredPanics(t *testing.T) {
	l, err := NewClustered(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, func() { l.Place(-1) })
	mustPanic(t, func() { l.LogicalAt(BlockAddr{Disk: 9}) })
}

// TestClusteredMinimalP2: p=2 means 1 data disk + 1 parity disk per
// cluster (mirroring).
func TestClusteredMinimalP2(t *testing.T) {
	l, err := NewClustered(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.DataDisks() != 2 {
		t.Fatalf("DataDisks = %d, want 2", l.DataDisks())
	}
	g := groupOf(l, 0)
	if len(g.Data) != 1 || g.Parity.Disk != 1 {
		t.Fatalf("p=2 group: %v parity %v", g.Data, g.Parity)
	}
}
