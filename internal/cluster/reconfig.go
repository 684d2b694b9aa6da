package cluster

import (
	"fmt"
	"slices"

	"ftcms/internal/core"
)

// This file is the cluster's online-reconfiguration engine: view
// transitions (join, drain, remove, per-node disk addition) and
// the background migration that makes them safe. All repair traffic —
// clip re-replication off draining or failed nodes — moves block by
// block over the nodes' idle-capacity import/export surface
// (core.ReadClipBlockIdleInto / ImportClipBlockIdle), so it is charged
// against the same per-disk round budgets as streams, rebuild and
// scrub, audited by the same Overflows counter, and paused whenever
// any serving array is rebuilding or degraded (contingency bandwidth
// outranks elasticity). Admission is re-audited on every serving node
// at every view bump: a stream admitted under view v is never
// hiccuped by the transition to v+1.

// migrateJob is one in-flight clip re-replication: copy every payload
// block of clip from node src to node dst, then publish the new
// replica. At most one job per clip exists at a time (clipRecord.migrating).
type migrateJob struct {
	clip     string
	src, dst int
	// next is the block cursor; total the payload block count (set when
	// the import begins). buf holds one block read off src and not yet
	// accepted by dst — bufValid marks the holdover so a destination
	// stall never re-reads (and re-charges) the source.
	next, total int64
	buf         []byte
	bufValid    bool
	begun       bool
}

// ViewVersion returns the membership view's version: it advances by
// exactly one on every join, drain, retirement, removal and AddDisk
// flip, and never on a failure or rejoin.
func (c *Cluster) ViewVersion() int64 { return c.version }

// bump publishes a membership or width change as the next view version
// and re-audits admission on every serving node, so no transition can
// leave a stream without the bandwidth it was promised.
func (c *Cluster) bump() error {
	c.version++
	for _, n := range c.nodes {
		if !n.serving() {
			continue
		}
		if err := n.srv.CheckAdmission(); err != nil {
			return fmt.Errorf("cluster: view %d: node %d admission audit: %w", c.version, n.id, err)
		}
	}
	return nil
}

// member returns node i, or an error naming the valid range.
func (c *Cluster) member(i int) (*node, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("cluster: node %d out of range [0, %d)", i, len(c.nodes))
	}
	return c.nodes[i], nil
}

// JoinNode adds a freshly built node to the cluster. The node starts
// empty, active and placeable; the repair planner does not move
// existing clips onto it (placement rebalancing is the operator's
// AddClipReplicated call), but drain/remove repairs and new clips use
// it immediately.
func (c *Cluster) JoinNode(nc core.Config) (int, error) {
	srv, err := core.New(nc)
	if err != nil {
		return -1, fmt.Errorf("cluster: join: %w", err)
	}
	id := len(c.nodes)
	c.nodes = append(c.nodes, &node{id: id, srv: srv, disks: srv.Disks()})
	c.detector.Grow(1)
	c.planDirty = true
	return id, c.bump()
}

// DrainNode starts a graceful leave: the node keeps serving its
// current streams but takes no new placements; the migration engine
// re-replicates every clip whose active replica count would drop and
// moves the node's streams to active replicas as admission allows.
// The node retires automatically once it is empty and every clip is
// safe. Idempotent on an already-draining node (no view bump).
func (c *Cluster) DrainNode(i int) error {
	n, err := c.member(i)
	switch {
	case err != nil:
		return err
	case n.state == nodeRetired:
		return fmt.Errorf("cluster: node %d already retired", i)
	case n.down:
		return fmt.Errorf("cluster: node %d is down; RejoinNode it first or RemoveNode it", i)
	case n.state == nodeDraining:
		return nil
	}
	n.state = nodeDraining
	c.planDirty = true
	return c.bump()
}

// RemoveNode takes a node out immediately — the abrupt counterpart of
// DrainNode, reusing the failover path: streams of replicated clips
// move to surviving replicas (or park for admission retry), streams
// of unreplicated clips terminate with ErrStreamLost. The node is
// deregistered from failure detection and never probed, rejoined or
// re-declared failed.
func (c *Cluster) RemoveNode(i int) error {
	n, err := c.member(i)
	if err != nil {
		return err
	}
	if n.state == nodeRetired {
		return fmt.Errorf("cluster: node %d already retired", i)
	}
	c.retire(n)
	c.evacuate(i)
	// Jobs reading from or importing into the node are dead; abort them
	// and let the planner route around the loss.
	c.jobs = slices.DeleteFunc(c.jobs, func(j *migrateJob) bool {
		if j.src == i || j.dst == i {
			c.abortJob(j)
			return true
		}
		return false
	})
	return c.bump()
}

// retire takes n out of the cluster for good: off failure detection (a
// late probe can never re-declare it failed) and out of every placement.
// The caller bumps the view once the transition is complete.
func (c *Cluster) retire(n *node) {
	n.state = nodeRetired
	c.detector.Deregister(n.id)
	c.scrubPlacement(n.id)
	c.planDirty = true
}

// AddDisk starts growing node i's array by one disk (see
// core.Server.AddDisk: shadow array, idle-capacity copy, transactional
// flip). The view bumps when the node's re-layout flips, observed by
// the per-round geometry poll.
func (c *Cluster) AddDisk(i int) error {
	n, err := c.member(i)
	if err != nil {
		return err
	}
	if !n.placeable() {
		return fmt.Errorf("cluster: node %d not active; disks grow only on active nodes", i)
	}
	return n.srv.AddDisk()
}

// reconfigStep runs at the end of every Tick: poll node geometries
// into the view, then — only when reconfiguration is actually in
// flight — plan repairs, advance migration jobs, move streams off
// draining nodes and retire completed drains. The quiescent path
// (nothing draining, no jobs, plan clean) is allocation-free so the
// steady-state cluster tick stays flat.
func (c *Cluster) reconfigStep() error {
	if err := c.pollGeometry(); err != nil {
		return err
	}
	if c.quiescent() {
		return nil
	}
	if c.planDirty {
		c.planRepairs()
	}
	if !c.migrationPaused() {
		c.stepJobs()
	}
	c.moveDrainingStreams()
	return c.checkRetirements()
}

// quiescent reports that no reconfiguration work is pending.
func (c *Cluster) quiescent() bool {
	return len(c.jobs) == 0 && !c.planDirty && !slices.ContainsFunc(c.nodes, (*node).draining)
}

// pollGeometry records AddDisk flips in the view. A node's Disks()
// changes exactly when its re-layout flips; the view bumps then, and
// admission is re-audited under the new geometry.
func (c *Cluster) pollGeometry() error {
	for _, n := range c.nodes {
		if !n.serving() || n.srv.Disks() == n.disks {
			continue
		}
		n.disks = n.srv.Disks()
		if err := c.bump(); err != nil {
			return err
		}
	}
	return nil
}

// migrationPaused reports whether repair traffic must hold: any
// serving array that is rebuilding or degraded owns the cluster's
// spare bandwidth, exactly as rebuild outranks scrub inside one array.
func (c *Cluster) migrationPaused() bool {
	for _, n := range c.nodes {
		if n.serving() && n.srv.Mode() != core.ModeHealthy {
			return true
		}
	}
	return false
}

// planRepairs derives the migration job set from the current
// membership: every clip whose replica count on *active* nodes fell
// below its desired count (capped by the active node count) gets one
// re-replication job — source preferring an active replica over a
// draining one, destination the active node with the most free bytes
// that doesn't already hold the clip. Deterministic: clips in sorted
// order, ties to the lower node id.
func (c *Cluster) planRepairs() {
	c.planDirty = false
	placeable := c.placeableNodes()
	if placeable == 0 {
		return
	}
	for _, name := range c.Clips() {
		rec := c.clips[name]
		if rec.migrating {
			continue
		}
		if want, have := c.replicaNeed(rec, placeable); have >= want {
			continue
		}
		reps := rec.reps
		k := slices.IndexFunc(reps, func(id int) bool { return c.nodes[id].placeable() })
		if k < 0 {
			k = slices.IndexFunc(reps, func(id int) bool { return c.nodes[id].draining() })
		}
		if k < 0 {
			continue // no readable replica right now; replan on rejoin
		}
		src := c.nodes[reps[k]]
		var dst *node
		var dstFree int64
		for _, n := range c.nodes {
			if !n.placeable() || n.srv.Relayouting() {
				continue
			}
			if n.srv.BlockSize() != src.srv.BlockSize() {
				continue // block-granular copy needs matching geometry
			}
			if slices.Contains(reps, n.id) {
				continue
			}
			free := n.srv.FreeBlocks() * n.srv.BlockSize().Bytes()
			if dst == nil || free > dstFree {
				dst, dstFree = n, free
			}
		}
		if dst == nil {
			continue // nowhere to put a new replica; replan on membership change
		}
		c.jobs = append(c.jobs, &migrateJob{clip: name, src: src.id, dst: dst.id})
		rec.migrating = true
		c.jobsPlanned++
	}
}

// stepJobs advances every job as far as this round's idle capacity
// allows. Finished and aborted jobs drop out of the list.
func (c *Cluster) stepJobs() {
	if len(c.jobs) == 0 {
		return
	}
	keep := c.jobs[:0]
	for _, j := range c.jobs {
		if !c.stepJob(j) {
			keep = append(keep, j)
		}
	}
	c.jobs = keep
}

// stepJob advances one job; true means the job is finished or aborted
// and leaves the list. A false return with no progress is a stall —
// some disk's idle slots for this round ran out — retried next round.
func (c *Cluster) stepJob(j *migrateJob) bool {
	src, dst := c.nodes[j.src], c.nodes[j.dst]
	if !src.serving() || !dst.placeable() {
		// An endpoint died (or got drained/removed) mid-copy; the planner
		// re-derives a route from whatever replicas survive.
		c.abortJob(j)
		return true
	}
	if !j.begun {
		if dst.srv.Relayouting() {
			return false // imports are refused during a re-layout; wait it out
		}
		if err := dst.srv.BeginClipImport(j.clip, c.clips[j.clip].size); err != nil {
			c.abortJob(j)
			return true
		}
		j.total = src.srv.ClipDataBlocks(j.clip)
		j.buf = make([]byte, int(dst.srv.BlockSize().Bytes()))
		j.begun = true
	}
	for j.next < j.total {
		if !j.bufValid {
			ok, err := src.srv.ReadClipBlockIdleInto(j.clip, j.next, j.buf)
			if err != nil {
				c.abortJob(j)
				return true
			}
			if !ok {
				return false // source out of idle capacity this round
			}
			j.bufValid = true
		}
		ok, err := dst.srv.ImportClipBlockIdle(j.clip, j.next, j.buf)
		if err != nil {
			c.abortJob(j)
			return true
		}
		if !ok {
			return false // destination stalled; buf held over, no re-read
		}
		j.bufValid = false
		j.next++
		c.migratedBlocks++
	}
	done, err := dst.srv.CommitClipImport(j.clip)
	if err != nil {
		c.abortJob(j)
		return true
	}
	if !done {
		return false // padding sweep ran out of idle slots; commit retries
	}
	rec := c.clips[j.clip]
	rec.reps = append(rec.reps, j.dst)
	rec.migrating = false
	c.jobsDone++
	c.planDirty = true
	return true
}

// abortJob abandons a job, reclaiming the destination's partial import
// whether or not the destination still serves (one that is down may
// rejoin, and a stale import would refuse every later job to it), and
// marks the plan dirty so the planner routes around whatever broke.
func (c *Cluster) abortJob(j *migrateJob) {
	if j.begun {
		_ = c.nodes[j.dst].srv.AbortClipImport(j.clip)
	}
	c.clips[j.clip].migrating = false
	c.planDirty = true
}

// moveDrainingStreams gracefully moves streams off draining nodes:
// open on an active replica at the exact delivered byte first, only
// then close the old stream — the stream is never parked. When no
// active replica admits it the stream simply stays on the drainer (it
// keeps serving) and the move retries next round.
func (c *Cluster) moveDrainingStreams() {
	for _, st := range c.streamsWhere(func(st *Stream) bool { return c.nodes[st.node].draining() }) {
		if st.offset >= st.size {
			continue // fully delivered to the reader; it finishes in place
		}
		for _, n := range c.candidates(c.clips[st.clip].reps, st.node) {
			if !n.placeable() {
				continue
			}
			// A replica that refuses is full (or unusable) right now.
			if cs, err := n.srv.OpenStreamAt(st.clip, st.offset); err == nil {
				st.st.Close()
				st.node, st.st = n.id, cs
				c.migratedStreams++
				break
			}
		}
	}
}

// checkRetirements retires every draining node whose drain is
// complete: no streams, no migration jobs touching it, and every clip
// it holds safely replicated on active nodes.
func (c *Cluster) checkRetirements() error {
	for _, n := range c.nodes {
		if !n.draining() || !c.drainComplete(n.id) {
			continue
		}
		c.retire(n)
		if err := c.bump(); err != nil {
			return err
		}
	}
	return nil
}

// drainComplete reports whether node i may retire.
func (c *Cluster) drainComplete(i int) bool {
	if slices.ContainsFunc(c.streams, func(st *Stream) bool { return st.node == i && st.st != nil }) {
		return false
	}
	if slices.ContainsFunc(c.jobs, func(j *migrateJob) bool { return j.src == i || j.dst == i }) {
		return false
	}
	placeable := c.placeableNodes()
	for _, rec := range c.clips {
		if !slices.Contains(rec.reps, i) {
			continue
		}
		// Never retire the last readable copy, even when no active node
		// can take a replica right now.
		if want, have := c.replicaNeed(rec, placeable); have < max(want, 1) {
			return false
		}
	}
	return true
}

// placeableNodes counts the nodes that take placements.
func (c *Cluster) placeableNodes() int {
	k := 0
	for _, n := range c.nodes {
		if n.placeable() {
			k++
		}
	}
	return k
}

// replicaNeed returns how many of the clip's replicas should sit on
// placeable nodes — its desired count, capped by the placeable nodes
// there are — and how many do.
func (c *Cluster) replicaNeed(rec *clipRecord, placeable int) (want, have int) {
	for _, id := range rec.reps {
		if c.nodes[id].placeable() {
			have++
		}
	}
	return min(rec.desired, placeable), have
}

// scrubPlacement removes node i from every clip's replica list.
func (c *Cluster) scrubPlacement(i int) {
	for _, rec := range c.clips {
		rec.reps = slices.DeleteFunc(rec.reps, func(id int) bool { return id == i })
	}
}
