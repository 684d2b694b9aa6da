// Package sched implements the round mechanics of §3: per-disk service
// accounting within a round, C-SCAN ordering of the round's block fetches,
// and the round clock. The admission layer guarantees that no disk is ever
// asked for more than q blocks in a round; this package is where that
// guarantee is enforced and audited at the data path.
package sched

import (
	"errors"
	"fmt"
	"sort"

	"ftcms/internal/diskmodel"
	"ftcms/internal/layout"
	"ftcms/internal/units"
)

// Engine tracks rounds and per-disk block budgets.
type Engine struct {
	d, q  int
	disk  diskmodel.Parameters
	block units.Bits

	round int64
	reads []int
	// Overflows counts charges beyond a disk's q budget across the run —
	// each one is a deadline miss at the data path.
	Overflows int64
}

// NewEngine creates the round engine for d disks with per-round budget q
// and block size b.
func NewEngine(d, q int, disk diskmodel.Parameters, block units.Bits) (*Engine, error) {
	if d < 1 {
		return nil, errors.New("sched: need at least one disk")
	}
	if q < 1 {
		return nil, fmt.Errorf("sched: q=%d must be positive", q)
	}
	if block <= 0 {
		return nil, errors.New("sched: block size must be positive")
	}
	if !disk.SatisfiesEquation1(q, block) {
		return nil, fmt.Errorf("sched: q=%d blocks of %v violate Equation 1", q, block)
	}
	return &Engine{d: d, q: q, disk: disk, block: block, reads: make([]int, d)}, nil
}

// Round returns the current round number.
func (e *Engine) Round() int64 { return e.round }

// RoundDuration returns the wall-clock length of one round, b/r_p.
func (e *Engine) RoundDuration() units.Duration { return e.disk.RoundDuration(e.block) }

// Budget returns q.
func (e *Engine) Budget() int { return e.q }

// BeginRound advances the round clock and clears the per-disk ledgers.
func (e *Engine) BeginRound() {
	e.round++
	for i := range e.reads {
		e.reads[i] = 0
	}
}

// Charge records one block read on a disk during the current round. It
// reports false — and counts an overflow — when the disk's q budget is
// already exhausted; the caller decides whether to proceed anyway (a
// late, deadline-missing read) or drop.
func (e *Engine) Charge(disk int) bool {
	if disk < 0 || disk >= e.d {
		panic(fmt.Sprintf("sched: disk %d out of range [0, %d)", disk, e.d))
	}
	e.reads[disk]++
	if e.reads[disk] > e.q {
		e.Overflows++
		return false
	}
	return true
}

// AddDisk widens the engine by one disk with a zero ledger for the
// current round, preserving the round clock and overflow count. The
// re-layout path calls it at the instant the wider layout table flips
// in, so budget auditing is continuous across the geometry change.
func (e *Engine) AddDisk() {
	e.d++
	e.reads = append(e.reads, 0)
}

// Disks returns the number of disks the engine budgets for.
func (e *Engine) Disks() int { return e.d }

// Load returns the blocks charged to a disk this round.
func (e *Engine) Load(disk int) int { return e.reads[disk] }

// PeakLoad returns the highest per-disk load this round.
func (e *Engine) PeakLoad() int {
	peak := 0
	for _, r := range e.reads {
		if r > peak {
			peak = r
		}
	}
	return peak
}

// ServiceTime returns the worst-case time the round's heaviest disk needs
// (the left side of Equation 1 at the current peak load).
func (e *Engine) ServiceTime() units.Duration {
	return e.disk.RoundBudgetUsed(e.PeakLoad(), e.block)
}

// CSCANOrder sorts a disk's fetches for one round into a single ascending
// elevator sweep by block number, in place, mirroring the C-SCAN policy
// the paper assumes (§3, [SG94]).
func CSCANOrder(fetches []layout.BlockAddr) {
	sort.Slice(fetches, func(i, j int) bool {
		if fetches[i].Disk != fetches[j].Disk {
			return fetches[i].Disk < fetches[j].Disk
		}
		return fetches[i].Block < fetches[j].Block
	})
}
