// Package admission implements the admission-control algorithms of Özden
// et al. (SIGMOD 1996) for all five fault-tolerant schemes.
//
// All controllers exploit the same rotation structure: every active clip
// reads one block per round from consecutive disks, so the whole
// population of clips shifts by one disk per round, in lockstep. A clip's
// position is therefore determined by an invariant *phase* — its start
// position minus its admission round — and per-position occupancy counts
// never merge or split as rounds advance; they just rotate. That is
// exactly why the paper's admission conditions only need to be checked
// once, at admission time (§4.2 properties 1 and 2), and it lets every
// controller here run in O(1) or O(d·r) per admission with no per-round
// bookkeeping at all.
//
// Concretely, a clip admitted at round T0 with start position e0 (a mixed
// radix pair: disk, plus a row/class that increments when the disk index
// wraps) occupies position (e0 − T0 + T) mod N at round T. Controllers
// count clips per phase class c = (e0 − T0) mod N.
//
// The admission controllers:
//
//   - Static — the §4.2 declustered scheme (cap q−f per disk, f per
//     (disk, PGT row)) and the §6.2 flat pre-fetching scheme (cap q−f per
//     disk, f per (disk, parity-target class)), which share arithmetic
//     with the class modulus M = r or d−(p−1) respectively; with f = 0 it
//     is the plain cap q per unit of the clustered schemes (§6.1 and
//     non-clustered per data disk, streaming RAID per cluster);
//   - Dynamic — the §5 dynamic reservation scheme (per-disk service count
//     plus the worst contᵢ(j,l) must stay within q);
//   - Queue — a starvation-free FIFO pending list with optional bounded
//     bypass.
package admission

import (
	"errors"
	"fmt"
)

// Ticket identifies an admitted clip so it can be released. Tickets are
// controller-specific; passing a ticket to a different controller is a
// programming error.
type Ticket struct {
	// phase is the clip's invariant phase class.
	phase int
	// row is used by Dynamic (the super-clip row); -1 otherwise.
	row int
}

// Controller is what the per-scheme admission controllers share: *Static
// and *Dynamic.
type Controller interface {
	Admit(now int64, unit, class int) (Ticket, bool)
	Release(t Ticket)
	// Audit checks the admitted population against the controller's own
	// invariant for round now, returning nil when no disk (or cluster) can
	// be asked for more than q blocks in any round — the paper's rate
	// guarantee. A non-nil error is a bookkeeping bug, never a legal state.
	Audit(now int64) error
}

// Static enforces the two-level condition shared by the declustered
// (§4.2) and flat pre-fetching (§6.2) schemes:
//
//	(a) clips per unit             <= q − f
//	(b) clips per (unit, class)    <= f
//
// where class is the PGT row (declustered) or the parity-target residue
// level mod (d−(p−1)) (flat). Both unit and class advance in lockstep
// with rounds, so occupancy is tracked per phase in Z_{d·m}. With f = 0
// nothing is reserved and (b) lifts to q, leaving the cap q per unit that
// the clustered schemes admit by (§6.1, §7.3, §7.4).
//
// A unit is what one stream reads a block from each round: a disk under
// the declustered and flat schemes; the k-th data disk, parity disks
// skipped, under pre-fetching with parity disks and under non-clustered;
// a cluster under streaming RAID, which reads a whole group a round.
type Static struct {
	d, m, q, f int
	cellCap    int   // (b)'s cap: f, or q when f = 0
	cell       []int // per phase class in Z_{d·m}
	disk       []int // per disk phase class in Z_d
}

// NewStatic builds the controller for d disks, m classes (PGT rows or
// parity-target classes), round capacity q and contingency reservation f;
// f = 0 caps each disk (unit) at q and nothing else.
func NewStatic(d, m, q, f int) (*Static, error) {
	if d < 1 || m < 1 {
		return nil, errors.New("admission: need d >= 1 and m >= 1")
	}
	if f < 0 || q <= f {
		return nil, fmt.Errorf("admission: need 0 <= f < q, got q=%d f=%d", q, f)
	}
	cellCap := f
	if f == 0 {
		cellCap = q
	}
	return &Static{
		d: d, m: m, q: q, f: f, cellCap: cellCap,
		cell: make([]int, d*m),
		disk: make([]int, d),
	}, nil
}

// phaseOf maps (start disk, start class, admission round) to the
// invariant phase pair.
func (s *Static) phaseOf(now int64, startDisk, startClass int) (cell, disk int) {
	if startDisk < 0 || startDisk >= s.d {
		panic(fmt.Sprintf("admission: start disk %d out of range [0, %d)", startDisk, s.d))
	}
	if startClass < 0 || startClass >= s.m {
		panic(fmt.Sprintf("admission: start class %d out of range [0, %d)", startClass, s.m))
	}
	n := int64(s.d * s.m)
	e0 := int64(startClass*s.d + startDisk)
	cell = int((((e0 - now) % n) + n) % n)
	dd := int64(s.d)
	disk = int(((int64(startDisk)-now)%dd + dd) % dd)
	return cell, disk
}

// Admit admits the clip, returning the release ticket. ok is false when
// the caps reject it.
func (s *Static) Admit(now int64, startDisk, startClass int) (Ticket, bool) {
	cell, disk := s.phaseOf(now, startDisk, startClass)
	if s.disk[disk] >= s.q-s.f || s.cell[cell] >= s.cellCap {
		return Ticket{}, false
	}
	s.cell[cell]++
	s.disk[disk]++
	return Ticket{phase: cell, row: -1}, true
}

// Release frees an admitted clip's capacity.
func (s *Static) Release(t Ticket) {
	if t.phase < 0 || t.phase >= len(s.cell) || s.cell[t.phase] == 0 {
		panic("admission: release of unknown or double-released ticket")
	}
	s.cell[t.phase]--
	s.disk[t.phase%s.d]--
}

// DiskLoad returns the number of clips reading disk i during round now.
func (s *Static) DiskLoad(now int64, i int) int {
	dd := int64(s.d)
	return s.disk[int(((int64(i)-now)%dd+dd)%dd)]
}

// CellLoad returns the number of clips reading a block of class on disk i
// during round now.
func (s *Static) CellLoad(now int64, i, class int) int {
	cell, _ := s.phaseOf(now, i, class)
	return s.cell[cell]
}

// Audit implements Controller: per-unit load within q−f and per-(unit,
// class) load within f (within q when f = 0).
func (s *Static) Audit(now int64) error {
	for i := 0; i < s.d; i++ {
		if l := s.DiskLoad(now, i); l > s.q-s.f {
			return fmt.Errorf("admission: unit %d booked %d streams > q-f=%d", i, l, s.q-s.f)
		}
		for c := 0; c < s.m; c++ {
			if l := s.CellLoad(now, i, c); l > s.cellCap {
				return fmt.Errorf("admission: unit %d class %d booked %d streams > cap %d", i, c, l, s.cellCap)
			}
		}
	}
	return nil
}
