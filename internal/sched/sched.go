// Package sched implements the round mechanics of §3: per-disk service
// accounting within a round and the round clock. The admission layer
// guarantees that no disk is ever asked for more than q blocks in a
// round; this package is where that guarantee is enforced and audited at
// the data path. The C-SCAN order of a disk's fetches within a round is
// diskmodel.CSCANOrder.
package sched

import (
	"errors"
	"fmt"

	"ftcms/internal/diskmodel"
	"ftcms/internal/units"
)

// Engine tracks rounds and per-disk block budgets.
type Engine struct {
	d, q int

	round int64
	reads []int
	// Overflows counts charges beyond a disk's q budget across the run —
	// each one is a deadline miss at the data path.
	Overflows int64
}

// NewEngine creates the round engine for d disks with per-round budget q
// and block size b. Whether q blocks of size b keep playback continuous
// depends on the scheme's round (scheme.Continuous), so the caller that
// knows the scheme checks it: core.New does.
func NewEngine(d, q int, _ diskmodel.Parameters, block units.Bits) (*Engine, error) {
	if d < 1 {
		return nil, errors.New("sched: need at least one disk")
	}
	if q < 1 {
		return nil, fmt.Errorf("sched: q=%d must be positive", q)
	}
	if block <= 0 {
		return nil, errors.New("sched: block size must be positive")
	}
	return &Engine{d: d, q: q, reads: make([]int, d)}, nil
}

// Round returns the current round number.
func (e *Engine) Round() int64 { return e.round }

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

// Refund takes back one Charge that did not overflow: the reads the
// rebuild planned for entries its commit does not install.
func (e *Engine) Refund(disk int) { e.reads[disk]-- }

// AddDisk widens the engine by one disk with a zero ledger for the
// current round, preserving the round clock and overflow count. The
// re-layout path calls it at the instant the wider layout table flips
// in, so budget auditing is continuous across the geometry change.
func (e *Engine) AddDisk() {
	e.d++
	e.reads = append(e.reads, 0)
}

// Load returns the blocks charged to a disk this round.
func (e *Engine) Load(disk int) int { return e.reads[disk] }
