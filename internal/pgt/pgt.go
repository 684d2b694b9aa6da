// Package pgt implements the parity group table (PGT) of Özden et al.
// (SIGMOD 1996, §4.1) and the Δ offset sets of the dynamic reservation
// scheme (§5.1).
//
// The PGT rewrites a (d, p, 1) block design as a table with one column per
// disk and r rows: column i lists, in ascending set order, the r design
// sets that contain disk i. Disk blocks then map to sets positionally —
// block j of disk i maps to the set in cell (j mod r, i) — and within each
// window of r consecutive disk blocks, the blocks mapped to one set form a
// parity group. Parity placement rotates within a set across successive
// windows so parity load spreads over every disk of the set; the rotation
// order here reproduces the paper's worked example (parity for the three
// successive S0 = {0,1,3} groups lands on disks 3, 1, 0).
package pgt

import (
	"errors"
	"fmt"

	"ftcms/internal/bibd"
)

// Table is a parity group table over d disks with r rows.
type Table struct {
	// D is the number of disks (columns).
	D int
	// R is the number of rows.
	R int
	// P is the parity group size.
	P int
	// Design is the underlying block design.
	Design *bibd.Design

	cell [][]int // cell[row][col] = set index
	// rowIn[s*D + disk] = row where set s appears in column disk, or -1.
	rowIn []int
	// rho[row*D + col] = parity residue ρ of the (col, row) block
	// sequence: windows n ≡ ρ (mod p) hold parity there. Precomputed so
	// placement arithmetic is pure table reads.
	rho []int
	// rhoQ[row*D + col] = the same residue for the Q column of a P+Q
	// double-parity layout: Q trails P by one position in the backwards
	// rotation, so ρQ = (ρP + p − 1) mod p. Precomputed unconditionally;
	// single-parity layouts simply never read it.
	rhoQ []int
}

// New builds the PGT for a design. The design's per-object replication
// must be uniform (true for every design bibd constructs).
func New(d *bibd.Design) (*Table, error) {
	if d == nil || d.V < 2 {
		return nil, errors.New("pgt: nil or degenerate design")
	}
	st, err := bibd.Verify(d)
	if err != nil {
		return nil, fmt.Errorf("pgt: invalid design: %w", err)
	}
	if st.RMin != st.RMax {
		return nil, fmt.Errorf("pgt: design replication not uniform: [%d, %d]", st.RMin, st.RMax)
	}
	r := st.RMin
	t := &Table{D: d.V, R: r, P: d.K, Design: d}
	t.cell = make([][]int, r)
	for i := range t.cell {
		t.cell[i] = make([]int, t.D)
	}
	t.rowIn = make([]int, len(d.Sets)*t.D)
	for i := range t.rowIn {
		t.rowIn[i] = -1
	}
	for col := 0; col < t.D; col++ {
		sets := d.SetsContaining(col) // ascending set index
		if len(sets) != r {
			return nil, fmt.Errorf("pgt: disk %d occurs in %d sets, want %d", col, len(sets), r)
		}
		for row, s := range sets {
			t.cell[row][col] = s
			t.rowIn[s*t.D+col] = row
		}
	}
	t.rho = make([]int, r*t.D)
	t.rhoQ = make([]int, r*t.D)
	for row := 0; row < r; row++ {
		for col := 0; col < t.D; col++ {
			disks := d.Sets[t.cell[row][col]]
			p := len(disks)
			idx := 0
			for i, m := range disks {
				if m == col {
					idx = i
					break
				}
			}
			t.rho[row*t.D+col] = (p - 1 - idx) % p
			t.rhoQ[row*t.D+col] = (t.rho[row*t.D+col] + p - 1) % p
		}
	}
	return t, nil
}

// ParityResidue returns ρ for (disk, row): within the block sequence of
// that PGT cell, windows n ≡ ρ (mod p) hold parity (the backwards
// rotation of ParityDisk lands on disk exactly at those windows).
func (t *Table) ParityResidue(disk, row int) int { return t.rho[row*t.D+disk] }

// ParityResidueQ returns ρQ for (disk, row): within that cell's block
// sequence, windows n ≡ ρQ (mod p) hold the Q parity of a P+Q layout.
func (t *Table) ParityResidueQ(disk, row int) int { return t.rhoQ[row*t.D+disk] }

// Set returns the set index in cell (row, col).
func (t *Table) Set(row, col int) int { return t.cell[row][col] }

// RowOf returns the row in which set s appears in column disk, or -1 when
// the set does not contain the disk.
func (t *Table) RowOf(s, disk int) int { return t.rowIn[s*t.D+disk] }

// Disks returns the disks of set s in ascending order (the design stores
// sets sorted).
func (t *Table) Disks(s int) []int { return t.Design.Sets[s] }

// ParityDisk returns the disk holding the parity block for the occurrence
// of set s in window n. Parity rotates backwards through the set's disks —
// windows 0, 1, 2 of a 3-disk set place parity on its 3rd, 2nd, 1st disk —
// matching the paper's Example 1 (disks 3, 1, 0 for S0 = {0,1,3}).
func (t *Table) ParityDisk(s, n int) int {
	disks := t.Design.Sets[s]
	p := len(disks)
	return disks[(p-1-n%p+p)%p]
}

// ParityDiskQ returns the disk holding the Q parity block for the
// occurrence of set s in window n under a P+Q layout: one position
// behind P in the same backwards rotation, so every disk of the set
// serves as Q target exactly once per p windows and P ≠ Q always.
func (t *Table) ParityDiskQ(s, n int) int {
	disks := t.Design.Sets[s]
	p := len(disks)
	return disks[(2*p-2-n%p)%p]
}

// Deltas returns Δᵢ for row i (§5.1): the set of column offsets δ such
// that some set appearing in row i of some column j also appears in column
// j+δ (of any row). When a clip of super-clip SCᵢ is being serviced on
// disk j, contingency bandwidth must be reserved on disks (j+δ) mod d for
// every δ ∈ Δᵢ. Offsets are normalized to (0, d).
func (t *Table) Deltas(row int) []int {
	present := make([]bool, t.D)
	for j := 0; j < t.D; j++ {
		s := t.cell[row][j]
		for _, m := range t.Design.Sets[s] {
			if m == j {
				continue
			}
			delta := ((m-j)%t.D + t.D) % t.D
			present[delta] = true
		}
	}
	var out []int
	for delta := 1; delta < t.D; delta++ {
		if present[delta] {
			out = append(out, delta)
		}
	}
	return out
}

// CheckProperties verifies the two structural properties §4.2 relies on,
// for exact λ=1 designs:
//
//  1. any two columns share at most one set (so parity groups for blocks
//     of one disk mapped to different rows meet only at that disk);
//  2. every cell is filled and every set of a column appears in exactly
//     one row of it.
//
// For approximate designs property 1 may fail; the returned overlap is the
// maximum number of sets any two columns share, which bounds the failure
// load multiplier.
func (t *Table) CheckProperties() (maxOverlap int, err error) {
	for a := 0; a < t.D; a++ {
		seen := make(map[int]bool, t.R)
		for row := 0; row < t.R; row++ {
			s := t.cell[row][a]
			if seen[s] {
				return 0, fmt.Errorf("pgt: set %d appears twice in column %d", s, a)
			}
			seen[s] = true
			if t.rowIn[s*t.D+a] != row {
				return 0, fmt.Errorf("pgt: rowIn inconsistent at set %d column %d", s, a)
			}
		}
		for b := a + 1; b < t.D; b++ {
			overlap := 0
			for row := 0; row < t.R; row++ {
				if t.RowOf(t.cell[row][a], b) >= 0 {
					overlap++
				}
			}
			if overlap > maxOverlap {
				maxOverlap = overlap
			}
		}
	}
	return maxOverlap, nil
}
