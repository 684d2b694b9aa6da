package layout

import (
	"testing"
)

// paperPlacement is the Figure 2 result table from the paper for d=7, p=3:
// rows are disk blocks 0..8, columns disks 0..6. Dnn is logical data block
// nn; -1 marks a parity block.
var paperPlacement = [9][7]int64{
	{0, 1, 2, -1, -1, -1, -1},
	{7, 8, 9, 10, 11, -1, -1},
	{14, 15, 16, 17, 18, 19, -1},
	{21, -1, -1, 3, 4, 5, 6},
	{28, 29, 30, -1, -1, 12, 13},
	{35, 36, -1, 38, -1, -1, 20},
	{-1, 22, 23, 24, 25, 26, 27},
	{-1, -1, -1, 31, 32, 33, 34},
	{-1, -1, 37, -1, 39, 40, 41},
}

func fanoLayout(t *testing.T) *Declustered {
	t.Helper()
	l, err := NewDeclustered(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFigure2GoldenPlacement pins Place and LogicalAt against the paper's
// worked example (E2).
func TestFigure2GoldenPlacement(t *testing.T) {
	l := fanoLayout(t)
	for blk := 0; blk < 9; blk++ {
		for disk := 0; disk < 7; disk++ {
			want := paperPlacement[blk][disk]
			addr := BlockAddr{Disk: disk, Block: int64(blk)}
			got := l.LogicalAt(addr)
			if got != want {
				t.Errorf("LogicalAt(%v) = %d, want %d", addr, got, want)
			}
			if want >= 0 {
				if p := l.Place(want); p != addr {
					t.Errorf("Place(D%d) = %v, want %v", want, p, addr)
				}
			}
		}
	}
}

// TestFigure2GroupP0P1 pins the paper's claims: "P0 is the parity block
// for data blocks D0 and D1, while P1 is the parity block for data blocks
// D8 and D2."
func TestFigure2GroupP0P1(t *testing.T) {
	l := fanoLayout(t)
	g0 := groupOf(l, 0)
	if len(g0.Data) != 2 || g0.Data[0] != 0 || g0.Data[1] != 1 {
		t.Errorf("group of D0 = %v, want [0 1]", g0.Data)
	}
	if g0.Parity != (BlockAddr{Disk: 3, Block: 0}) {
		t.Errorf("P0 at %v, want disk 3 block 0", g0.Parity)
	}
	g1 := groupOf(l, 2)
	wantData := map[int64]bool{2: true, 8: true}
	if len(g1.Data) != 2 || !wantData[g1.Data[0]] || !wantData[g1.Data[1]] {
		t.Errorf("group of D2 = %v, want {2, 8}", g1.Data)
	}
	if g1.Parity != (BlockAddr{Disk: 4, Block: 0}) {
		t.Errorf("P1 at %v, want disk 4 block 0", g1.Parity)
	}
}

// TestDeclusteredRoundTrip: Place and LogicalAt are inverses over a long
// prefix, and no two logical blocks collide.
func TestDeclusteredRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ d, p int }{{7, 3}, {13, 4}, {9, 3}, {32, 4}, {32, 8}, {32, 16}, {32, 2}, {32, 32}} {
		l, err := NewDeclustered(cfg.d, cfg.p)
		if err != nil {
			t.Fatalf("NewDeclustered(%d,%d): %v", cfg.d, cfg.p, err)
		}
		seen := map[BlockAddr]int64{}
		for i := int64(0); i < 2000; i++ {
			addr := l.Place(i)
			if prev, dup := seen[addr]; dup {
				t.Fatalf("(%d,%d): blocks %d and %d both placed at %v", cfg.d, cfg.p, prev, i, addr)
			}
			seen[addr] = i
			if back := l.LogicalAt(addr); back != i {
				t.Fatalf("(%d,%d): LogicalAt(Place(%d)) = %d", cfg.d, cfg.p, i, back)
			}
		}
	}
}

// TestDeclusteredGroupInvariants: every group has p−1 data blocks on p−1
// distinct disks plus parity on a p-th distinct disk, and group membership
// is consistent from every member.
func TestDeclusteredGroupInvariants(t *testing.T) {
	for _, cfg := range []struct{ d, p int }{{7, 3}, {13, 4}, {32, 8}} {
		l, err := NewDeclustered(cfg.d, cfg.p)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 500; i++ {
			g := groupOf(l, i)
			if len(g.Data) != cfg.p-1 {
				t.Fatalf("(%d,%d): group of %d has %d data blocks, want %d", cfg.d, cfg.p, i, len(g.Data), cfg.p-1)
			}
			disks := map[int]bool{g.Parity.Disk: true}
			foundSelf := false
			for k, li := range g.Data {
				if li == i {
					foundSelf = true
				}
				a := g.DataAddr[k]
				if disks[a.Disk] {
					t.Fatalf("(%d,%d): group of %d repeats disk %d", cfg.d, cfg.p, i, a.Disk)
				}
				disks[a.Disk] = true
				if l.LogicalAt(a) != li {
					t.Fatalf("(%d,%d): group member addr/index mismatch", cfg.d, cfg.p)
				}
				// Consistency: the group seen from the member matches.
				g2 := groupOf(l, li)
				if g2.Parity != g.Parity {
					t.Fatalf("(%d,%d): group of %d and %d disagree on parity", cfg.d, cfg.p, i, li)
				}
			}
			if !foundSelf {
				t.Fatalf("(%d,%d): group of %d does not contain it", cfg.d, cfg.p, i)
			}
			if l.LogicalAt(g.Parity) >= 0 {
				t.Fatalf("(%d,%d): parity addr of %d holds data", cfg.d, cfg.p, i)
			}
		}
	}
}

// TestDeclusteredRowOf: the row of block i is (i div d) mod r, and
// consecutive blocks that stay within a stripe share a row (§4.2 property
// 2 precondition).
func TestDeclusteredRowOf(t *testing.T) {
	l := fanoLayout(t)
	for i := int64(0); i < 100; i++ {
		want := int((i / 7) % 3)
		if got := l.RowOf(i); got != want {
			t.Fatalf("RowOf(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestDeclusteredParityShare: over any window span, each disk carries an
// equal share of parity blocks in the long run (parity rotation balance).
func TestDeclusteredParityShare(t *testing.T) {
	l := fanoLayout(t)
	// Over r·p = 9 disk blocks per disk, each disk holds exactly r parity
	// blocks (one per row, rotation period p).
	for disk := 0; disk < 7; disk++ {
		count := 0
		for blk := int64(0); blk < 9; blk++ {
			if l.LogicalAt(BlockAddr{Disk: disk, Block: blk}) < 0 {
				count++
			}
		}
		if count != 3 {
			t.Errorf("disk %d holds %d parity blocks in 9, want 3", disk, count)
		}
	}
}

func TestDeclusteredErrors(t *testing.T) {
	if _, err := NewDeclustered(10, 3); err == nil {
		t.Error("NewDeclustered(10,3) should fail: no design")
	}
	l := fanoLayout(t)
	mustPanic(t, func() { l.Place(-1) })
	mustPanic(t, func() { l.LogicalAt(BlockAddr{Disk: 7, Block: 0}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// --- §5.1 super-clips: the row-first address space x = row + i·r ---

// TestSuperClippedRoundTrip: block i of super-clip row is logical block
// row + i·r; it round-trips, lives only in row-k disk blocks, and no
// address is shared across super-clips.
func TestSuperClippedRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ d, p int }{{7, 3}, {32, 8}, {32, 16}} {
		l, err := NewInterleaved(cfg.d, cfg.p)
		if err != nil {
			t.Fatal(err)
		}
		r := int64(l.Rows())
		seen := map[BlockAddr]bool{}
		for row := int64(0); row < r; row++ {
			for i := int64(0); i < 300; i++ {
				x := row + i*r
				addr := l.Place(x)
				if seen[addr] {
					t.Fatalf("(%d,%d): address %v reused across super-clips", cfg.d, cfg.p, addr)
				}
				seen[addr] = true
				if back := l.LogicalAt(addr); back != x {
					t.Fatalf("(%d,%d): LogicalAt(Place(row %d, %d)) = %d, want %d", cfg.d, cfg.p, row, i, back, x)
				}
				if addr.Block%r != row || l.RowOf(x) != int(row) {
					t.Fatalf("(%d,%d): super-clip %d block landed in row %d (RowOf %d)", cfg.d, cfg.p, row, addr.Block%r, l.RowOf(x))
				}
			}
		}
	}
}

// TestSuperClippedConsecutiveDisks: successive blocks of a super-clip land
// on consecutive disks (round-robin), which the §5 rotation argument needs.
func TestSuperClippedConsecutiveDisks(t *testing.T) {
	l, err := NewInterleaved(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := int64(l.Rows())
	for i := int64(0); i < 200; i++ {
		a := l.Place(1 + i*r)
		b := l.Place(1 + (i+1)*r)
		if b.Disk != (a.Disk+1)%32 {
			t.Fatalf("block %d on disk %d, block %d on disk %d: not consecutive", i, a.Disk, i+1, b.Disk)
		}
	}
}
