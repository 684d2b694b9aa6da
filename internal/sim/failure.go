package sim

import (
	"fmt"
	"slices"
	"sort"

	"ftcms/internal/admission"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

// orderedTrace validates a failure script over n units (disks of an
// array, nodes of a cluster) and returns a copy ordered by time.
func orderedTrace(trace []FailureEvent, unit string, n int) ([]FailureEvent, error) {
	for _, ev := range trace {
		if ev.Disk < 0 || ev.Disk >= n {
			return nil, fmt.Errorf("sim: trace %s %d out of range [0, %d)", unit, ev.Disk, n)
		}
		if ev.At < 0 {
			return nil, fmt.Errorf("sim: trace event at negative time %v", ev.At)
		}
	}
	trace = slices.Clone(trace)
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].At < trace[j].At })
	return trace, nil
}

// rebuildTarget is the number of reconstruction reads a full online
// rebuild of one disk needs (whole-group slots for streaming RAID, where
// the cluster read that serves a group also yields the lost block).
func (e *engine) rebuildTarget() int64 {
	blocksOnDisk := int64(e.cfg.Disk.Capacity / e.op.Block)
	if e.cfg.Scheme.GroupFetch() {
		return blocksOnDisk
	}
	return blocksOnDisk * int64(e.cfg.P-1)
}

// independent reports whether two failed disks are in disjoint parity
// domains — both then degrade to ordinary single failures. The clustered
// schemes confine every parity group to one cluster; the declustered and
// flat layouts spread groups across all disks, so any pair overlaps.
func (e *engine) independent(x, y int) bool {
	return e.cfg.Scheme.Clustered() && x/e.cfg.P != y/e.cfg.P
}

// diskLoader is the per-unit load query of the static and dynamic
// controllers; a unit is a disk, a data disk or a cluster.
type diskLoader interface {
	DiskLoad(now int64, disk int) int
}

// dueLoad is the number of blocks due from disk x this round — the load
// that is lost outright while x is the younger disk of a dependent double
// failure (its groups cannot reconstruct).
func (e *engine) dueLoad(now int64, x int) int64 {
	p := e.cfg.P
	switch e.cfg.Scheme {
	case scheme.Declustered, scheme.DeclusteredDynamic, scheme.PrefetchFlat:
		return int64(e.ctrl.(diskLoader).DiskLoad(now, x))
	case scheme.PrefetchParityDisk, scheme.NonClustered:
		if x%p == p-1 {
			return 0 // parity disk: no data blocks due
		}
		return int64(e.ctrl.(diskLoader).DiskLoad(now, x/p*(p-1)+x%p))
	case scheme.StreamingRAID:
		// Every active group read of the cluster loses its block: the
		// group is short two members.
		return int64(e.ctrl.(diskLoader).DiskLoad(now, x/p))
	}
	return 0
}

// failureStep activates scripted failures due this round and accounts
// every outstanding one. The oldest failure of each dependent set is
// accounted per-scheme (reconstruction load, deadline misses, rebuild
// spare); each younger dependent failure loses its due blocks outright
// and its rebuild stalls until it becomes the oldest.
func (e *engine) failureStep(now int64) {
	for e.nextEvent < len(e.trace) {
		ev := e.trace[e.nextEvent]
		round := int64(float64(ev.At) / float64(e.roundDur))
		if round > now {
			break
		}
		e.nextEvent++
		alreadyFailed := false
		for _, f := range e.failures {
			if f.disk == ev.Disk {
				alreadyFailed = true
				break
			}
		}
		if alreadyFailed {
			continue
		}
		f := &failureState{disk: ev.Disk, failRound: now, rebuild: ev.Rebuild}
		if ev.Rebuild {
			f.remaining = e.rebuildTarget()
			e.rebuildsReq++
		}
		e.failures = append(e.failures, f)
	}

	for idx := 0; idx < len(e.failures); {
		f := e.failures[idx]
		shadowed := false
		for _, older := range e.failures[:idx] {
			if !e.independent(older.disk, f.disk) {
				shadowed = true
				break
			}
		}
		if shadowed {
			e.res.LostBlocks += e.dueLoad(now, f.disk)
			idx++
			continue
		}
		spare := e.accountFailure(now, f.disk, now == f.failRound)
		if f.rebuild {
			f.remaining -= spare
			if f.remaining <= 0 {
				e.res.RebuildsDone++
				if e.res.RebuildTime == 0 {
					e.res.RebuildTime = units.Duration(now-f.failRound+1) * e.roundDur
				}
				e.failures = append(e.failures[:idx], e.failures[idx+1:]...)
				continue
			}
		}
		idx++
	}
}

// accountFailure charges every surviving disk with the reconstruction
// reads its scheme generates for the failed disk during this round,
// accumulates deadline misses (blocks beyond q in the round) and, for the
// non-clustered scheme, transition losses, and returns the round's spare
// rebuild capacity: the idle block-reads the contributing disks could
// donate to an online rebuild (whole-group slots for streaming RAID).
//
// The per-scheme logic mirrors the paper:
//
//   - declustered (§4): every block due from the failed disk pulls the
//     remaining p−1 members of its parity group from the disks of its PGT
//     row's set; the static-f admission bound keeps the extras within the
//     reserved contingency (exactly for λ=1 designs, within the verified
//     column-overlap factor for approximate ones);
//   - dynamic (§5): same reads; the reservation condition bounds them;
//   - prefetch with parity disks (§6.1): only the cluster's parity disk is
//     hit, with one parity read per clip on the failed disk;
//   - prefetch flat (§6.2): one parity read per clip, on the parity-target
//     disk of the clip's current class — at most f per target by the
//     admission bound;
//   - streaming RAID: nothing extra — the parity block replaces the data
//     block inside the same cluster-wide group read;
//   - non-clustered: the failed cluster switches to whole-group reads, so
//     every surviving disk of the cluster serves every clip of the
//     cluster; any excess over q is a deadline miss, and at the failure
//     round itself the blocks already due from the failed disk are lost.
func (e *engine) accountFailure(now int64, x int, transition bool) (spare int64) {
	d, p := e.cfg.D, e.cfg.P
	q := e.op.Q

	switch e.cfg.Scheme {
	case scheme.Declustered, scheme.DeclusteredDynamic:
		extra := make([]int, d)
		for l := 0; l < e.table.R; l++ {
			var n int
			if e.cfg.Scheme.Dynamic() {
				n = e.ctrl.(*admission.Dynamic).RowDiskLoad(now, x, l)
			} else {
				n = e.ctrl.(*admission.Static).CellLoad(now, x, l)
			}
			if n == 0 {
				continue
			}
			set := e.table.Set(l, x)
			for _, m := range e.table.Disks(set) {
				if m != x {
					extra[m] += n
				}
			}
		}
		for i := 0; i < d; i++ {
			if i == x {
				continue
			}
			if over := e.ctrl.(diskLoader).DiskLoad(now, i) + extra[i] - q; over > 0 {
				e.res.DeadlineMisses += int64(over)
			} else {
				spare += int64(-over)
			}
		}

	case scheme.PrefetchFlat:
		st := e.ctrl.(*admission.Static)
		m := d - (p - 1)
		extra := make([]int, d)
		for c := 0; c < m; c++ {
			n := st.CellLoad(now, x, c)
			if n == 0 {
				continue
			}
			extra[e.flatParityTarget(x, c)] += n
		}
		for i := 0; i < d; i++ {
			if i == x {
				continue
			}
			if over := st.DiskLoad(now, i) + extra[i] - q; over > 0 {
				e.res.DeadlineMisses += int64(over)
			} else {
				spare += int64(-over)
			}
		}

	case scheme.PrefetchParityDisk:
		s := e.ctrl.(*admission.Static)
		cluster := x / p
		if x%p == p-1 {
			// Parity disk failed: data reads unaffected; rebuild reads
			// come from the cluster's data disks' idle capacity.
			for w := 0; w < p-1; w++ {
				if idle := q - s.DiskLoad(now, cluster*(p-1)+w); idle > 0 {
					spare += int64(idle)
				}
			}
			return spare
		}
		n := s.DiskLoad(now, cluster*(p-1)+x%p)
		// The parity disk serves only these reconstruction reads.
		if over := n - q; over > 0 {
			e.res.DeadlineMisses += int64(over)
		} else {
			spare += int64(-over)
		}
		for w := 0; w < p-1; w++ {
			if w == x%p {
				continue
			}
			if idle := q - s.DiskLoad(now, cluster*(p-1)+w); idle > 0 {
				spare += int64(idle)
			}
		}

	case scheme.StreamingRAID:
		// The group read simply substitutes the parity block for the lost
		// data block: no extra load, no misses, by construction. Idle
		// group slots of the failed disk's cluster drive the rebuild.
		s := e.ctrl.(*admission.Static)
		if idle := q - s.DiskLoad(now, x/p); idle > 0 {
			spare += int64(idle)
		}

	case scheme.NonClustered:
		s := e.ctrl.(*admission.Static)
		cluster := x / p
		if x%p == p-1 {
			// Parity disk failed: data unaffected; rebuild from the
			// cluster data disks' idle capacity.
			for w := 0; w < p-1; w++ {
				if idle := q - s.DiskLoad(now, cluster*(p-1)+w); idle > 0 {
					spare += int64(idle)
				}
			}
			return spare
		}
		clipsInCluster := 0
		for w := 0; w < p-1; w++ {
			clipsInCluster += s.DiskLoad(now, cluster*(p-1)+w)
		}
		if transition {
			// Blocks due from the failed disk this round were neither
			// buffered nor reconstructible in time (§2: "blocks for
			// certain clips may be lost").
			e.res.LostBlocks += int64(s.DiskLoad(now, cluster*(p-1)+x%p))
		}
		// Degraded mode: each surviving disk of the cluster (p−2 data +
		// 1 parity) serves every clip of the cluster.
		for w := 0; w < p; w++ {
			disk := cluster*p + w
			if disk == x {
				continue
			}
			if over := clipsInCluster - q; over > 0 {
				e.res.DeadlineMisses += int64(over)
			} else {
				spare += int64(-over)
			}
		}
	}
	return spare
}

// flatParityTarget returns the disk holding parity for the class-c groups
// whose data lives on disk x: when p−1 divides d this is the exact §6.2
// geometry (the (c mod (d−(p−1)))-th disk after x's cluster); otherwise
// the clusters wrap and the target is approximated by the same rotation
// anchored at x itself, which preserves the spread the admission bound
// relies on.
func (e *engine) flatParityTarget(x, c int) int {
	d, p := e.cfg.D, e.cfg.P
	if d%(p-1) == 0 {
		cluster := x / (p - 1)
		return (cluster*(p-1) + (p - 1) + c) % d
	}
	return (x + 1 + c) % d
}
