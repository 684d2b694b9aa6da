package layout

import "testing"

// figure3 pins the paper's Figure 3: d=9 disks, cluster size 3, parity
// group size 4, 54 data blocks D0..D53 and parity blocks P0..P17 where Pi
// protects D3i, D3i+1, D3i+2. Rows are disk blocks 0..7, columns disks
// 0..8; values >= 0 are data blocks, -(i+1) encodes parity block Pi.
var figure3 = [8][9]int64{
	{0, 1, 2, 3, 4, 5, 6, 7, 8},
	{9, 10, 11, 12, 13, 14, 15, 16, 17},
	{18, 19, 20, 21, 22, 23, 24, 25, 26},
	{27, 28, 29, 30, 31, 32, 33, 34, 35},
	{36, 37, 38, 39, 40, 41, 42, 43, 44},
	{45, 46, 47, 48, 49, 50, 51, 52, 53},
	{-11, -14, -17, -1, -4, -7, -10, -13, -16},
	{-3, -6, -9, -12, -15, -18, -2, -5, -8},
}

func flatFigure3(t *testing.T) *FlatUniform {
	t.Helper()
	l, err := NewFlatUniform(9, 4, 54)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFigure3GoldenData checks the data region placement (E3).
func TestFigure3GoldenData(t *testing.T) {
	l := flatFigure3(t)
	for blk := 0; blk < 6; blk++ {
		for disk := 0; disk < 9; disk++ {
			want := figure3[blk][disk]
			addr := BlockAddr{Disk: disk, Block: int64(blk)}
			if got := l.LogicalAt(addr); got != want {
				t.Errorf("LogicalAt(%v) = %d, want %d", addr, got, want)
			}
			if p := l.Place(want); p != addr {
				t.Errorf("Place(D%d) = %v, want %v", want, p, addr)
			}
		}
	}
}

// TestFigure3GoldenParity checks every parity position of Figure 3: Pi
// lives where the figure says, via GroupOf of its first data block.
func TestFigure3GoldenParity(t *testing.T) {
	l := flatFigure3(t)
	// Build want map: parity index -> address.
	want := map[int64]BlockAddr{}
	for blk := 6; blk < 8; blk++ {
		for disk := 0; disk < 9; disk++ {
			code := figure3[blk][disk]
			if code >= 0 {
				t.Fatalf("non-parity in parity region at disk %d blk %d", disk, blk)
			}
			want[-code-1] = BlockAddr{Disk: disk, Block: int64(blk)}
		}
	}
	for pi := int64(0); pi < 18; pi++ {
		g := l.GroupOf(3 * pi)
		if g.Parity != want[pi] {
			t.Errorf("P%d at %v, want %v", pi, g.Parity, want[pi])
		}
		// Group members are D3i, D3i+1, D3i+2.
		for k := 0; k < 3; k++ {
			if g.Data[k] != 3*pi+int64(k) {
				t.Errorf("P%d protects %v, want [%d %d %d]", pi, g.Data, 3*pi, 3*pi+1, 3*pi+2)
				break
			}
		}
	}
}

// TestFlatParityAddressesDistinct: no two groups share a parity address.
func TestFlatParityAddressesDistinct(t *testing.T) {
	l := flatFigure3(t)
	seen := map[BlockAddr]int64{}
	for pi := int64(0); pi < 18; pi++ {
		g := l.GroupOf(3 * pi)
		if prev, dup := seen[g.Parity]; dup {
			t.Fatalf("groups %d and %d share parity address %v", prev, pi, g.Parity)
		}
		seen[g.Parity] = pi
	}
}

// TestFlatParityNotInOwnCluster: a group's parity never lands on a disk of
// its own cluster (otherwise one disk failure could take both a data block
// and its parity).
func TestFlatParityNotInOwnCluster(t *testing.T) {
	for _, cfg := range []struct {
		d, p   int
		blocks int64
	}{{9, 4, 540}, {30, 4, 3000}, {28, 8, 2800}, {30, 16, 3000}, {32, 2, 320}} {
		l, err := NewFlatUniform(cfg.d, cfg.p, cfg.blocks)
		if err != nil {
			t.Fatalf("NewFlatUniform(%d,%d): %v", cfg.d, cfg.p, err)
		}
		for i := int64(0); i < cfg.blocks; i += int64(cfg.p - 1) {
			g := l.GroupOf(i)
			cluster := l.Place(i).Disk / (cfg.p - 1)
			pc := g.Parity.Disk / (cfg.p - 1)
			if pc == cluster {
				t.Fatalf("(%d,%d): group of %d has parity disk %d inside its own cluster", cfg.d, cfg.p, i, g.Parity.Disk)
			}
		}
	}
}

// TestFlatParityUniform: parity blocks rotate over all d−(p−1) candidate
// disks uniformly (the scheme's point versus [BGM95]'s adjacent-cluster
// placement).
func TestFlatParityUniform(t *testing.T) {
	l, err := NewFlatUniform(9, 4, 54*6)
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	total := 0
	for i := int64(0); i < 54*6; i += 3 {
		g := l.GroupOf(i)
		count[g.Parity.Disk]++
		total++
	}
	want := total / 9
	for disk := 0; disk < 9; disk++ {
		if count[disk] != want {
			t.Errorf("disk %d holds %d parity blocks, want %d", disk, count[disk], want)
		}
	}
}

func TestFlatRoundTrip(t *testing.T) {
	l, err := NewFlatUniform(28, 8, 2800)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2800; i++ {
		addr := l.Place(i)
		if back := l.LogicalAt(addr); back != i {
			t.Fatalf("LogicalAt(Place(%d)) = %d", i, back)
		}
	}
}

func TestFlatErrors(t *testing.T) {
	if _, err := NewFlatUniform(9, 5, 54); err == nil {
		t.Error("p−1 must divide d")
	}
	if _, err := NewFlatUniform(9, 1, 54); err == nil {
		t.Error("p >= 2 required")
	}
	if _, err := NewFlatUniform(9, 4, 0); err == nil {
		t.Error("dataBlocks must be positive")
	}
	if _, err := NewFlatUniform(3, 4, 54); err == nil {
		t.Error("d >= p required")
	}
	l := flatFigure3(t)
	mustPanic(t, func() { l.Place(-1) })
	mustPanic(t, func() { l.Place(54) }) // beyond capacity
}

func TestFlatRoundsUpToStripe(t *testing.T) {
	l, err := NewFlatUniform(9, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	l.Place(53) // the stripe's last block, past the 50 asked for
	mustPanic(t, func() { l.Place(54) })
}

func TestFlatParityTargetClass(t *testing.T) {
	l := flatFigure3(t)
	// d−(p−1) = 6 classes; level g class = g mod 6.
	for g := int64(0); g < 12; g++ {
		if got := l.ParityTargetClass(g); got != int(g%6) {
			t.Fatalf("ParityTargetClass(%d) = %d", g, got)
		}
	}
	// Same class => same parity disk offset: groups of cluster 0 at levels
	// 0 and 6 share a parity disk.
	g0 := l.GroupOf(0)
	l2, err := NewFlatUniform(9, 4, 54*2)
	if err != nil {
		t.Fatal(err)
	}
	g6 := l2.GroupOf(6 * 9) // cluster 0, level 6
	if g0.Parity.Disk != g6.Parity.Disk {
		t.Fatalf("levels 0 and 6 of cluster 0 use parity disks %d and %d, want equal", g0.Parity.Disk, g6.Parity.Disk)
	}
}
