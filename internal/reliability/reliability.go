// Package reliability quantifies the availability argument that motivates
// the paper (§1): a single disk's mean time to failure (MTTF) of about
// 300,000 hours collapses to weeks for an array ("a server with, say, 200
// disks has an MTTF of 1500 hours or about 60 days"), and parity
// protection restores it by surviving any single failure that is repaired
// before a second one lands.
//
// The models are the standard exponential-failure Markov analyses used in
// the RAID literature the paper builds on [PGK88, CLG+94]:
//
//   - array MTTF without redundancy: MTTF_disk / d;
//   - mean time to data loss (MTTDL) with single-failure tolerance and
//     repair: after a first failure, data is lost only if a *critical*
//     second disk (one sharing a parity group with the failed disk)
//     fails during the repair window.
//
// The critical-disk count is where the schemes differ: a dedicated
// cluster confines it to p−1 disks, the flat and declustered layouts
// expose d−1 — the classic declustering trade-off: faster rebuild and
// smoother degraded load in exchange for a wider second-failure target.
package reliability

import (
	"errors"
	"fmt"

	"ftcms/internal/units"
)

// Hours is a duration in hours, the customary unit for MTTF figures.
type Hours float64

// PaperDiskMTTF is the paper's §1 figure for one disk: 300,000 hours.
const PaperDiskMTTF Hours = 300_000

// ArrayMTTF returns the mean time to the first failure anywhere in an
// array of d disks with independent exponential lifetimes: MTTF/d. The
// paper's example: 300,000 h over 200 disks → 1500 h.
func ArrayMTTF(disk Hours, d int) (Hours, error) {
	if disk <= 0 {
		return 0, errors.New("reliability: MTTF must be positive")
	}
	if d < 1 {
		return 0, errors.New("reliability: need at least one disk")
	}
	return disk / Hours(d), nil
}

// MTTDL returns the mean time to data loss for a single-failure-tolerant
// array: d disks, repair time MTTR, and `critical` disks whose failure
// during a repair window loses data (the disks sharing a parity group
// with the one under repair).
//
// Standard two-state Markov result:
//
//	MTTDL ≈ MTTF² / (d · critical · MTTR)
//
// valid for MTTR ≪ MTTF (always true for real disks).
func MTTDL(disk Hours, d, critical int, mttr Hours) (Hours, error) {
	if disk <= 0 || mttr <= 0 {
		return 0, errors.New("reliability: MTTF and MTTR must be positive")
	}
	if d < 2 {
		return 0, errors.New("reliability: need at least two disks")
	}
	if critical < 1 || critical > d-1 {
		return 0, fmt.Errorf("reliability: critical disks %d outside [1, %d]", critical, d-1)
	}
	return disk * disk / (Hours(d) * Hours(critical) * mttr), nil
}

// MTTDLDouble returns the mean time to data loss for a
// double-failure-tolerant (P+Q) array: data is lost only when a third
// disk critical to an already doubly-degraded group fails before either
// repair completes. The three-state Markov chain gives
//
//	MTTDL ≈ MTTF³ / (d · c1 · c2 · MTTR²)
//
// where c1 is the number of disks whose failure (after the first)
// leaves some group singly redundant and c2 the number whose failure
// then loses data — both d−1 for a declustered P+Q placement. Valid
// for MTTR ≪ MTTF.
func MTTDLDouble(disk Hours, d, c1, c2 int, mttr Hours) (Hours, error) {
	if disk <= 0 || mttr <= 0 {
		return 0, errors.New("reliability: MTTF and MTTR must be positive")
	}
	if d < 3 {
		return 0, errors.New("reliability: double-failure tolerance needs at least three disks")
	}
	if c1 < 1 || c1 > d-1 || c2 < 1 || c2 > d-1 {
		return 0, fmt.Errorf("reliability: critical counts c1=%d c2=%d outside [1, %d]", c1, c2, d-1)
	}
	return disk * disk * disk / (Hours(d) * Hours(c1) * Hours(c2) * mttr * mttr), nil
}

// MTTDLReplication returns the mean time to data loss for full
// mirroring: d primaries each with one replica; data is lost when a
// disk's mirror partner fails during its repair window. Exactly one
// disk is critical per failure:
//
//	MTTDL ≈ MTTF² / (d · MTTR)
func MTTDLReplication(disk Hours, d int, mttr Hours) (Hours, error) {
	if disk <= 0 || mttr <= 0 {
		return 0, errors.New("reliability: MTTF and MTTR must be positive")
	}
	if d < 1 {
		return 0, errors.New("reliability: need at least one disk")
	}
	return disk * disk / (Hours(d) * mttr), nil
}

// Tradeoff is one row of the redundancy-selection table: what a scheme
// costs in storage and what it buys in expected time to data loss.
type Tradeoff struct {
	Scheme   string
	Overhead float64 // fraction of raw capacity spent on redundancy
	MTTR     Hours   // repair window assumed by the MTTDL model
	MTTDL    Hours
}

// CompareRedundancy builds the MTTDL-vs-overhead table the optimizer
// prints: single-parity declustering, P+Q declustering, and full
// replication, all on the same d-disk, group-size-p geometry with the
// same per-disk MTTF and repair window.
func CompareRedundancy(disk Hours, d, p int, mttr Hours) ([]Tradeoff, error) {
	if d < 3 || p < 3 || p > d {
		return nil, fmt.Errorf("reliability: bad geometry d=%d p=%d (need 3 <= p <= d)", d, p)
	}
	single, err := MTTDL(disk, d, d-1, mttr)
	if err != nil {
		return nil, err
	}
	double, err := MTTDLDouble(disk, d, d-1, d-1, mttr)
	if err != nil {
		return nil, err
	}
	mirror, err := MTTDLReplication(disk, d, mttr)
	if err != nil {
		return nil, err
	}
	return []Tradeoff{
		{Scheme: "declustered", Overhead: 1 / float64(p), MTTR: mttr, MTTDL: single},
		{Scheme: "declustered-pq", Overhead: 2 / float64(p), MTTR: mttr, MTTDL: double},
		{Scheme: "replication", Overhead: 0.5, MTTR: mttr, MTTDL: mirror},
	}, nil
}

// CriticalDisks returns how many surviving disks can cause data loss if
// they fail while one failed disk rebuilds, when its parity groups span
// spread of the d disks: p−1 cluster mates when groups stay inside a
// p-disk cluster, all d−1 others for the flat and declustered layouts.
// Under P+Q a critical failure only drops a group to single redundancy;
// see MTTDLDouble for the data-loss chain.
func CriticalDisks(d, spread int) (int, error) {
	if spread < 2 || spread > d {
		return 0, fmt.Errorf("reliability: parity groups spanning %d of %d disks", spread, d)
	}
	return spread - 1, nil
}

// RebuildTime estimates how long rebuilding a replaced disk takes when
// every surviving disk contributes `f` spare block-reads per round (the
// contingency bandwidth of §4) and the failed disk held `blocks` blocks.
//
// A group of p carries cols parity columns, and a single erasure is
// closed by one of them, so each lost block needs p−cols reads (p−1 for
// single parity, p−2 for P+Q). Declustering spreads them over all d−1
// survivors, so the bottleneck is the reconstruction read rate:
//
//	rounds ≈ blocks · (p−cols) / ((d−1) · f)
//
// and rebuild time = rounds · roundDuration. Clustered layouts confine
// the reads to p−1 survivors (set d = p for them).
func RebuildTime(blocks int64, p, cols, d, f int, roundDur units.Duration) (units.Duration, error) {
	if blocks < 0 || roundDur <= 0 {
		return 0, errors.New("reliability: bad rebuild parameters")
	}
	if cols < 1 || p <= cols || d < p || f < 1 {
		return 0, fmt.Errorf("reliability: bad geometry p=%d cols=%d d=%d f=%d", p, cols, d, f)
	}
	reads := blocks * int64(p-cols)
	perRound := int64(d-1) * int64(f)
	rounds := (reads + perRound - 1) / perRound
	return units.Duration(rounds) * roundDur, nil
}
