package layout

import "testing"

// pqGeometries covers an exact λ=1 design (the order-3 projective
// plane) and an approximate rotational one.
var pqGeometries = [][2]int{{13, 4}, {8, 4}, {9, 3}, {7, 3}}

func TestDeclusteredPQRoundTrip(t *testing.T) {
	for _, g := range pqGeometries {
		l, err := NewDeclusteredPQ(g[0], g[1])
		if err != nil {
			t.Fatalf("NewDeclusteredPQ(%d, %d): %v", g[0], g[1], err)
		}
		for i := int64(0); i < 600; i++ {
			addr := l.Place(i)
			if got := l.LogicalAt(addr); got != i {
				t.Fatalf("(%d,%d): LogicalAt(Place(%d)) = %d", g[0], g[1], i, got)
			}
		}
	}
}

// TestDeclusteredPQNoCollisions checks that over a prefix of the store,
// data, P and Q addresses never collide — two parity columns per group
// must claim disjoint disk blocks.
func TestDeclusteredPQNoCollisions(t *testing.T) {
	for _, g := range pqGeometries {
		l, err := NewDeclusteredPQ(g[0], g[1])
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[BlockAddr]string)
		claim := func(a BlockAddr, what string) {
			if prev, dup := seen[a]; dup && prev != what {
				t.Fatalf("(%d,%d): %v claimed as both %s and %s", g[0], g[1], a, prev, what)
			}
			seen[a] = what
		}
		for i := int64(0); i < 400; i++ {
			grp := groupOf(l, i)
			if !grp.HasQ {
				t.Fatal("group without HasQ")
			}
			if grp.Parity == grp.Q {
				t.Fatalf("(%d,%d): P and Q share %v", g[0], g[1], grp.Parity)
			}
			if grp.Parity.Disk == grp.Q.Disk {
				t.Fatalf("(%d,%d): P and Q on same disk %d", g[0], g[1], grp.Parity.Disk)
			}
			claim(grp.Parity, "parity")
			claim(grp.Q, "q")
			for k, li := range grp.Data {
				claim(grp.DataAddr[k], "data")
				if back := l.LogicalAt(grp.DataAddr[k]); back != li {
					t.Fatalf("group member decode: got %d want %d", back, li)
				}
			}
		}
	}
}

// TestDeclusteredPQGroupInvariants: every group has p−2 data members,
// one disk per member, and block i is a member of its own group.
func TestDeclusteredPQGroupInvariants(t *testing.T) {
	for _, g := range pqGeometries {
		d, p := g[0], g[1]
		l, err := NewDeclusteredPQ(d, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 400; i++ {
			grp := groupOf(l, i)
			if len(grp.Data) != p-2 || len(grp.DataAddr) != p-2 {
				t.Fatalf("(%d,%d): group of %d has %d data members, want %d", d, p, i, len(grp.Data), p-2)
			}
			disks := map[int]bool{grp.Parity.Disk: true, grp.Q.Disk: true}
			self := false
			for k, li := range grp.Data {
				if disks[grp.DataAddr[k].Disk] {
					t.Fatalf("(%d,%d): duplicate member disk %d", d, p, grp.DataAddr[k].Disk)
				}
				disks[grp.DataAddr[k].Disk] = true
				if li == i {
					self = true
				}
			}
			if !self {
				t.Fatalf("(%d,%d): block %d missing from its own group", d, p, i)
			}
			if l.LogicalAt(grp.Parity) >= 0 || l.LogicalAt(grp.Q) >= 0 {
				t.Fatalf("(%d,%d): parity block decodes as data", d, p)
			}
		}
	}
}

// TestDeclusteredPQParityShare: over whole rotation periods, every disk
// of a set carries P exactly once and Q exactly once per period, so
// parity load spreads evenly — the declustering property the scheme
// keeps under double parity.
func TestDeclusteredPQParityShare(t *testing.T) {
	l, err := NewDeclusteredPQ(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	tab := l.Table
	p := tab.P
	for s := 0; s < 4; s++ {
		pCount := make(map[int]int)
		qCount := make(map[int]int)
		for n := 0; n < p; n++ {
			pd, qd := tab.ParityDisk(s, n), tab.ParityDiskQ(s, n)
			if pd == qd {
				t.Fatalf("set %d window %d: P and Q both on disk %d", s, n, pd)
			}
			pCount[pd]++
			qCount[qd]++
		}
		for _, m := range tab.Disks(s) {
			if pCount[m] != 1 || qCount[m] != 1 {
				t.Fatalf("set %d: disk %d carries P %d times, Q %d times per period", s, m, pCount[m], qCount[m])
			}
		}
	}
}

func TestDeclusteredPQErrors(t *testing.T) {
	if _, err := NewDeclusteredPQ(7, 2); err == nil {
		t.Fatal("p=2 accepted: a P+Q group needs at least one data block")
	}
	if _, err := NewDeclusteredPQ(1, 3); err == nil {
		t.Fatal("degenerate geometry accepted")
	}
}
