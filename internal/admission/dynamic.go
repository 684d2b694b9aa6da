package admission

import (
	"errors"
	"fmt"

	"ftcms/internal/pgt"
)

// Dynamic implements the dynamic reservation scheme of §5: no contingency
// bandwidth is pre-reserved; instead, a clip of super-clip SC_l reading
// disk j implicitly reserves one contingency block on every disk (j+δ)
// mod d with δ ∈ Δ_l — the disks holding the other members of its current
// block's parity group. The admission condition (§5.2) is: for every disk
// i, serviceCount(i) + max over (j, l) of contᵢ(j, l) <= q, where
// contᵢ(j, l) counts row-l clips on disk j that reserve on i.
//
// Because all clips advance one disk per round, contᵢ(j, l) at any future
// round is a rotation of the current counts, so the condition holds
// forever once it holds at admission.
//
// The condition is maintained incrementally: admitting or releasing a
// row-l clip at phase c changes the service count only at phase c and
// the contingency terms only at phases c+δ, δ ∈ Δ_l. The controller
// keeps per-phase service totals, a histogram of contributing
// contᵢ(j, l) values, and their running max, so Admit and Release cost
// O(|Δ_l|) instead of rescanning all d phases × r rows.
type Dynamic struct {
	t *pgt.Table
	q int
	// count[l][c]: clips of super-clip row l with disk phase c in Z_d.
	count [][]int
	// deltas[l] lists Δ_l, ascending, normalized to (0, d).
	deltas [][]int

	// svc[c] = Σ_l count[l][c], the service count of phase c.
	svc []int
	// hist[ci][v] = number of contributing (l, cj) pairs — those with
	// (ci−cj) mod d ∈ Δ_l — whose count[l][cj] currently equals v.
	hist [][]int
	// maxv[ci] = max contributing count at phase ci = maxCont(ci).
	maxv []int
}

// NewDynamic builds the controller over the PGT with per-disk round
// capacity q.
func NewDynamic(t *pgt.Table, q int) (*Dynamic, error) {
	if t == nil {
		return nil, errors.New("admission: nil PGT")
	}
	if q < 1 {
		return nil, fmt.Errorf("admission: q=%d must be positive", q)
	}
	dy := &Dynamic{t: t, q: q}
	dy.count = make([][]int, t.R)
	dy.deltas = make([][]int, t.R)
	pairs := 0
	for l := 0; l < t.R; l++ {
		dy.count[l] = make([]int, t.D)
		dy.deltas[l] = t.Deltas(l)
		pairs += len(dy.deltas[l])
	}
	dy.svc = make([]int, t.D)
	dy.maxv = make([]int, t.D)
	dy.hist = make([][]int, t.D)
	for ci := range dy.hist {
		// Counts never exceed q (the condition caps each phase's service
		// count at q); +2 leaves headroom for transient probes.
		dy.hist[ci] = make([]int, q+2)
		dy.hist[ci][0] = pairs
	}
	return dy, nil
}

// bump adjusts the incremental state for count[l][c0] moving from old to
// old+dir (dir = ±1): the service count at c0 and, at every phase c0+δ
// with δ ∈ Δ_l, the histogram and running max of contributing counts.
func (dy *Dynamic) bump(l, c0, old, dir int) {
	dy.svc[c0] += dir
	d := dy.t.D
	for _, delta := range dy.deltas[l] {
		ci := (c0 + delta) % d
		h := dy.hist[ci]
		h[old]--
		h[old+dir]++
		switch {
		case dir > 0 && old+1 > dy.maxv[ci]:
			dy.maxv[ci] = old + 1
		case dir < 0 && old == dy.maxv[ci] && h[old] == 0:
			v := dy.maxv[ci]
			for v > 0 && h[v] == 0 {
				v--
			}
			dy.maxv[ci] = v
		}
	}
}

// phase maps (start disk, round) to the invariant disk phase.
func (dy *Dynamic) phase(now int64, startDisk int) int {
	if startDisk < 0 || startDisk >= dy.t.D {
		panic(fmt.Sprintf("admission: start disk %d out of range [0, %d)", startDisk, dy.t.D))
	}
	d := int64(dy.t.D)
	return int(((int64(startDisk)-now)%d + d) % d)
}

// serviceCount returns the clips reading disk phase c (all rows).
func (dy *Dynamic) serviceCount(c int) int { return dy.svc[c] }

// maxCont returns max over (j, l) with (cᵢ−j) ∈ Δ_l of count[l][j], all in
// phase space for disk phase ci — an O(1) read of the maintained max.
func (dy *Dynamic) maxCont(ci int) int { return dy.maxv[ci] }

// CanAdmit reports whether a clip of super-clip row starting at startDisk
// can be admitted at round now without ever violating the §5.2 condition.
// The condition already holds at every phase for the admitted population
// (admission invariant), and one more row-`row` clip at phase c changes
// the service count only at c and the contingency max only at phases
// c+δ, δ ∈ Δ_row — so only those |Δ_row|+1 phases need checking.
func (dy *Dynamic) CanAdmit(now int64, startDisk, row int) bool {
	if row < 0 || row >= dy.t.R {
		panic(fmt.Sprintf("admission: row %d out of range [0, %d)", row, dy.t.R))
	}
	c := dy.phase(now, startDisk)
	if dy.svc[c]+1+dy.maxv[c] > dy.q {
		return false
	}
	nc := dy.count[row][c] + 1
	d := dy.t.D
	for _, delta := range dy.deltas[row] {
		ci := (c + delta) % d
		m := dy.maxv[ci]
		if nc > m {
			m = nc
		}
		if dy.svc[ci]+m > dy.q {
			return false
		}
	}
	return true
}

// Admit admits the clip if the condition allows.
func (dy *Dynamic) Admit(now int64, startDisk, row int) (Ticket, bool) {
	if !dy.CanAdmit(now, startDisk, row) {
		return Ticket{}, false
	}
	c := dy.phase(now, startDisk)
	dy.bump(row, c, dy.count[row][c], +1)
	dy.count[row][c]++
	return Ticket{phase: c, row: row}, true
}

// Release frees an admitted clip's capacity.
func (dy *Dynamic) Release(t Ticket) {
	if t.row < 0 || t.row >= dy.t.R || t.phase < 0 || t.phase >= dy.t.D || dy.count[t.row][t.phase] == 0 {
		panic("admission: release of unknown or double-released ticket")
	}
	dy.bump(t.row, t.phase, dy.count[t.row][t.phase], -1)
	dy.count[t.row][t.phase]--
}

// WorstCaseFailureLoad returns, for disk i at round now, the §5.2 bound
// serviceCount(i) + max contᵢ(j,l): the blocks disk i would serve in the
// worst single-disk failure. Always <= q for admitted populations.
func (dy *Dynamic) WorstCaseFailureLoad(now int64, i int) int {
	c := dy.phase(now, i)
	return dy.serviceCount(c) + dy.maxCont(c)
}

// Audit implements Controller: serviceCount plus worst-case contingency
// within q on every disk.
func (dy *Dynamic) Audit(now int64) error {
	for i := 0; i < dy.t.D; i++ {
		if l := dy.WorstCaseFailureLoad(now, i); l > dy.q {
			return fmt.Errorf("admission: disk %d worst-case failure load %d > q=%d", i, l, dy.q)
		}
	}
	return nil
}
