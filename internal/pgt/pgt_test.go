package pgt

import (
	"fmt"
	"testing"

	"ftcms/internal/bibd"
)

func fano(t *testing.T) *Table {
	t.Helper()
	d, err := bibd.New(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestExample1PGT reproduces the paper's PGT for the (7,3,1) design (E2):
//
//	row0: S0 S0 S1 S0 S1 S2 S3
//	row1: S4 S1 S2 S2 S3 S4 S5
//	row2: S6 S5 S6 S3 S4 S5 S6
func TestExample1PGT(t *testing.T) {
	tab := fano(t)
	if tab.D != 7 || tab.R != 3 || tab.P != 3 {
		t.Fatalf("dimensions: d=%d r=%d p=%d, want 7/3/3", tab.D, tab.R, tab.P)
	}
	want := [3][7]int{
		{0, 0, 1, 0, 1, 2, 3},
		{4, 1, 2, 2, 3, 4, 5},
		{6, 5, 6, 3, 4, 5, 6},
	}
	for row := 0; row < 3; row++ {
		for col := 0; col < 7; col++ {
			if got := tab.Set(row, col); got != want[row][col] {
				t.Errorf("PGT[%d][%d] = S%d, want S%d", row, col, got, want[row][col])
			}
		}
	}
}

func TestRowOf(t *testing.T) {
	tab := fano(t)
	// S1 = {1,2,4}: column 1 row 1, column 2 row 0, column 4 row 0.
	cases := []struct{ s, disk, want int }{
		{1, 1, 1}, {1, 2, 0}, {1, 4, 0},
		{0, 0, 0}, {0, 1, 0}, {0, 3, 0},
		{6, 0, 2}, {6, 2, 2}, {6, 6, 2},
		{0, 2, -1}, {1, 0, -1}, // non-members
	}
	for _, c := range cases {
		if got := tab.RowOf(c.s, c.disk); got != c.want {
			t.Errorf("RowOf(S%d, disk%d) = %d, want %d", c.s, c.disk, got, c.want)
		}
	}
}

// TestExample1ParityRotation pins the paper's worked rotation: "In the
// three successive parity groups mapped to set S0 (on disk blocks 0, 3 and
// 6 respectively), parity blocks are stored on disks 3, 1 and 0."
func TestExample1ParityRotation(t *testing.T) {
	tab := fano(t)
	wantDisks := []int{3, 1, 0}
	for n, want := range wantDisks {
		if got := tab.ParityDisk(0, n); got != want {
			t.Errorf("ParityDisk(S0, window %d) = %d, want %d", n, got, want)
		}
	}
	// Window 3 wraps back to the first rotation position.
	if got := tab.ParityDisk(0, 3); got != 3 {
		t.Errorf("ParityDisk(S0, window 3) = %d, want 3", got)
	}
}

// TestExample1ParityBlockMap verifies every parity-block position of the
// first 9 disk blocks against the paper's mapping table.
func TestExample1ParityBlockMap(t *testing.T) {
	tab := fano(t)
	// From the paper's table (rows = disk blocks 0..8, cols = disks 0..6):
	// parity positions per disk.
	wantParity := map[int][]int{
		0: {6, 7, 8},
		1: {3, 7, 8},
		2: {3, 5, 7},
		3: {0, 4, 8},
		4: {0, 4, 5},
		5: {0, 1, 5},
		6: {0, 1, 2},
	}
	for disk := 0; disk < 7; disk++ {
		var got []int
		for blk := 0; blk < 9; blk++ {
			// Block blk of a disk is in window blk/r, in the set of cell
			// (blk mod r, disk).
			if tab.ParityDisk(tab.Set(blk%tab.R, disk), blk/tab.R) == disk {
				got = append(got, blk)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(wantParity[disk]) {
			t.Errorf("disk %d parity blocks = %v, want %v", disk, got, wantParity[disk])
		}
	}
}

// TestCheckPropertiesExact: λ=1 designs give pairwise column overlap 1.
func TestCheckPropertiesExact(t *testing.T) {
	for _, cfg := range []struct{ v, k int }{{7, 3}, {13, 4}, {9, 3}, {8, 2}} {
		d, err := bibd.New(cfg.v, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		overlap, err := tab.CheckProperties()
		if err != nil {
			t.Fatalf("(%d,%d): %v", cfg.v, cfg.k, err)
		}
		if overlap != 1 {
			t.Errorf("(%d,%d) max column overlap = %d, want 1", cfg.v, cfg.k, overlap)
		}
	}
}

// TestCheckPropertiesApproximate: rotational designs keep columns valid
// and report the true (possibly >1) overlap.
func TestCheckPropertiesApproximate(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		d, err := bibd.New(32, k)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := New(d)
		if err != nil {
			t.Fatalf("New(32,%d): %v", k, err)
		}
		overlap, err := tab.CheckProperties()
		if err != nil {
			t.Fatalf("(32,%d): %v", k, err)
		}
		if overlap < 1 || overlap > 2 {
			t.Errorf("(32,%d) overlap = %d, want 1 or 2", k, overlap)
		}
		if tab.R != 31/(k-1) {
			t.Errorf("(32,%d) r = %d, want %d", k, tab.R, 31/(k-1))
		}
	}
}

// TestDeltasFano checks Δ row structure on the Fano PGT: reserving on the
// Δ offsets must cover, for every column j, every other disk of the row's
// set at j.
func TestDeltasFano(t *testing.T) {
	tab := fano(t)
	for row := 0; row < tab.R; row++ {
		deltas := tab.Deltas(row)
		has := map[int]bool{}
		for _, delta := range deltas {
			if delta <= 0 || delta >= tab.D {
				t.Fatalf("row %d: offset %d out of range", row, delta)
			}
			has[delta] = true
		}
		for j := 0; j < tab.D; j++ {
			s := tab.Set(row, j)
			for _, m := range tab.Disks(s) {
				if m == j {
					continue
				}
				delta := ((m-j)%tab.D + tab.D) % tab.D
				if !has[delta] {
					t.Errorf("row %d: offset %d (disk %d from col %d) missing from Δ", row, delta, m, j)
				}
			}
		}
	}
}

// TestDeltasCyclicDesign: for the cyclic Fano design, the sets are
// translates of {0,1,3}, so Δ should be exactly the nonzero differences of
// the base block: {1,2,3} ∪ {7−1,7−2,7−3} = {1,2,3,4,5,6} minus... in fact
// differences of {0,1,3} mod 7 cover all of 1..6 (it is a planar difference
// set), so every row's Δ = {1,...,6}.
func TestDeltasCyclicDesign(t *testing.T) {
	tab := fano(t)
	for row := 0; row < 3; row++ {
		deltas := tab.Deltas(row)
		if len(deltas) != 6 {
			t.Errorf("row %d: |Δ| = %d, want 6 (planar difference set covers all offsets)", row, len(deltas))
		}
	}
}

func TestNewRejectsBadDesigns(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) should error")
	}
	// Non-uniform replication: object 0 in two sets, others in one.
	bad := &bibd.Design{V: 4, K: 2, Sets: [][]int{{0, 1}, {0, 2}, {0, 3}}}
	if _, err := New(bad); err == nil {
		t.Error("New should reject non-uniform replication")
	}
}

// TestTrivialDesignPGT: the trivial design has one row (r = 1), so every
// block is window-numbered by itself and every disk's blocks map to set 0.
func TestTrivialDesignPGT(t *testing.T) {
	d, err := bibd.Trivial(4)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if tab.R != 1 {
		t.Fatalf("r = %d, want 1", tab.R)
	}
	for col := 0; col < 4; col++ {
		if got := tab.Set(0, col); got != 0 {
			t.Fatalf("Set(0, %d) = S%d, want S0", col, got)
		}
	}
	// Parity rotates across all 4 disks over 4 windows: backwards from
	// disk 3.
	seen := map[int]bool{}
	for n := 0; n < 4; n++ {
		seen[tab.ParityDisk(0, n)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("parity rotation covers %d disks, want 4", len(seen))
	}
}
