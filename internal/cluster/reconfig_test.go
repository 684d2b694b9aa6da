package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"ftcms/internal/core"
	"ftcms/internal/health"
)

// node6Config is a 6-disk declustered array — the geometry whose
// AddDisk target (d=7, p=3) has a BIBD construction. The default
// 7-disk nodeConfig cannot grow (no BIBD at v=8, k=3).
func node6Config() core.Config {
	cfg := nodeConfig()
	cfg.D = 6
	return cfg
}

// TestChaosReconfiguration is the elastic-reconfiguration acceptance
// test: with replication 2 across 3 nodes, a fourth node joins, one
// replica holder starts draining, and another replica holder
// fail-stops while the drain's re-replication is still in flight.
// Every stream of a replicated clip must run to byte-exact completion
// (zero ErrStreamLost), the drain must retire its node, the view
// version must bump on every transition, admission must audit clean on
// every serving node every round, and no node's round budget may ever
// overflow — migration traffic is provably confined to idle capacity.
func TestChaosReconfiguration(t *testing.T) {
	c := testCluster(t, 3, 2)

	clips := map[string][]byte{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("rep%d", i)
		clips[name] = clipBytes(int64(200+i), 45_000+i*7_000)
		if err := c.AddClip(name, clips[name]); err != nil {
			t.Fatal(err)
		}
	}

	type play struct {
		st   *Stream
		want []byte
		off  int64
		done bool
	}
	var plays []*play
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("rep%d", i)
		st, err := c.OpenStream(name)
		if err != nil {
			t.Fatal(err)
		}
		plays = append(plays, &play{st: st, want: clips[name]})
	}

	audit := func() {
		t.Helper()
		for i := 0; i < c.NodeCount(); i++ {
			if !c.nodes[i].serving() {
				continue
			}
			if err := c.NodeServer(i).CheckAdmission(); err != nil {
				t.Fatalf("round %d: node %d over-committed: %v", c.round, i, err)
			}
			if ov := c.NodeServer(i).Stats().Overflows; ov != 0 {
				t.Fatalf("round %d: node %d overdrew its round budget (%d overflows)", c.round, i, ov)
			}
		}
	}
	drain := func(p *play) {
		t.Helper()
		if p.done {
			return
		}
		done, err := readAvailable(t, p.st, p.want, &p.off)
		if err != nil {
			t.Fatalf("round %d: clip %s at offset %d: %v", c.round, p.st.clip, p.off, err)
		}
		if done {
			if p.off != int64(len(p.want)) {
				t.Fatalf("clip %s: EOF at %d of %d", p.st.clip, p.off, len(p.want))
			}
			p.done = true
		}
	}

	v0 := c.ViewVersion()
	for r := 0; r < 3; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		audit()
		for _, p := range plays {
			drain(p)
		}
	}

	// A fourth node joins mid-playback.
	id, err := c.JoinNode(nodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("JoinNode id = %d, want 3", id)
	}
	v1 := c.ViewVersion()
	if v1 <= v0 {
		t.Fatalf("join did not bump the view: %d -> %d", v0, v1)
	}

	// Drain a node that is actively serving a stream.
	victim := servedBy(plays[0].st)
	if err := c.DrainNode(victim); err != nil {
		t.Fatal(err)
	}
	v2 := c.ViewVersion()
	if v2 <= v1 {
		t.Fatalf("drain did not bump the view: %d -> %d", v1, v2)
	}
	// Double drain is idempotent: no error, no extra version bump.
	if err := c.DrainNode(victim); err != nil {
		t.Fatalf("second DrainNode: %v", err)
	}
	if got := c.ViewVersion(); got != v2 {
		t.Fatalf("idempotent drain bumped the view: %d -> %d", v2, got)
	}

	// Let the drain's re-replication get going, then fail-stop another
	// original replica holder while the join is still absorbing copies.
	for r := 0; r < 3; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		audit()
		for _, p := range plays {
			drain(p)
		}
	}
	dead := -1
	for i := 0; i < 3; i++ {
		if i != victim {
			dead = i
			break
		}
	}
	if err := c.FailNode(dead); err != nil {
		t.Fatal(err)
	}
	t.Logf("node %d joined, node %d draining, node %d killed at round %d", id, victim, dead, c.round)

	// Everything must converge: streams byte-exact, drain retired.
	retired := func() bool { return slices.Contains(c.Stats().Retired, victim) }
	for r := 0; r < 1500; r++ {
		allDone := true
		for _, p := range plays {
			if !p.done {
				allDone = false
			}
		}
		if allDone && retired() {
			break
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		audit()
		for _, p := range plays {
			drain(p)
			if !p.done && servedBy(p.st) == dead {
				t.Fatalf("round %d: clip %s still served by dead node %d", c.round, p.st.clip, dead)
			}
		}
	}
	for _, p := range plays {
		if !p.done {
			t.Fatalf("clip %s never completed (offset %d of %d, node %d)",
				p.st.clip, p.off, len(p.want), servedBy(p.st))
		}
		if p.st.err != nil {
			t.Fatalf("replicated clip %s terminated: %v", p.st.clip, p.st.err)
		}
	}

	stats := c.Stats()
	if !slices.Contains(stats.Retired, victim) {
		t.Fatalf("drained node %d never retired (draining=%v retired=%v jobs=%d)",
			victim, stats.Draining, stats.Retired, stats.MigrateJobs)
	}
	if stats.Terminated != 0 {
		t.Fatalf("Terminated = %d, want 0 (all clips replicated)", stats.Terminated)
	}
	if stats.MigratedBlocks == 0 {
		t.Fatal("no blocks migrated; the drain cannot have re-replicated anything")
	}
	if stats.ViewVersion <= v2 {
		t.Fatalf("retirement did not bump the view: %d -> %d", v2, stats.ViewVersion)
	}
	// Every clip that survives must have its replicas only on serving
	// nodes — the retired node is out of all placements.
	for _, name := range c.Clips() {
		for _, rep := range c.Replicas(name) {
			if rep == victim {
				t.Fatalf("clip %s still placed on retired node %d", name, victim)
			}
		}
	}

	// The retired node is deregistered from failure detection: even a
	// storm of stale probe errors can never re-declare it failed (the
	// ghost-probe regression this subsystem exists to prevent).
	for k := 0; k < 50; k++ {
		if st := c.detector.Observe(victim, 50.0, errors.New("ghost probe")); st != health.OK {
			t.Fatalf("ghost probe %d scored retired node %d: %v", k, victim, st)
		}
	}
	after := c.Stats()
	if !slices.Contains(after.Retired, victim) {
		t.Fatalf("ghost probes changed retired node %d's state: %+v", victim, after)
	}
	if slices.Contains(after.FailedNodes, victim) {
		t.Fatalf("ghost probes re-declared retired node %d failed", victim)
	}
}

// RemoveNode is the abrupt leave: streams fail over immediately via
// the node-failure path, the node retires in one transition, and it
// can neither rejoin nor be removed twice.
func TestClusterRemoveNodeImmediate(t *testing.T) {
	c := testCluster(t, 3, 2)
	data := clipBytes(77, 60_000)
	if err := c.AddClip("movie", data); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream("movie")
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for r := 0; r < 4; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, err := readAvailable(t, st, data, &off); err != nil {
			t.Fatal(err)
		}
	}
	victim := servedBy(st)
	v0 := c.ViewVersion()
	if err := c.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	if got := c.ViewVersion(); got != v0+1 {
		t.Fatalf("remove bumped view %d -> %d, want +1", v0, got)
	}
	if st := c.detector.Observe(victim, 50.0, errors.New("ghost probe")); st != health.OK {
		t.Fatalf("a probe of the removed node scored it %v: still registered with the detector", st)
	}
	if err := c.RemoveNode(victim); err == nil {
		t.Fatal("double remove succeeded")
	}
	if err := c.RejoinNode(victim); err == nil {
		t.Fatal("removed node rejoined")
	}
	done := false
	for r := 0; r < 600 && !done; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		d, err := readAvailable(t, st, data, &off)
		if err != nil {
			t.Fatal(err)
		}
		done = d
	}
	if !done || off != int64(len(data)) {
		t.Fatalf("stream did not complete after remove: %d of %d bytes", off, len(data))
	}
	if st.err != nil {
		t.Fatalf("replicated stream lost on remove: %v", st.err)
	}
	if got := c.Stats(); !slices.Contains(got.Retired, victim) {
		t.Fatalf("removed node %d not retired: %+v", victim, got.Retired)
	}
}

// Cluster-level AddDisk: the node re-lays out online, the stream plays
// byte-exactly across the flip, and the view's geometry entry bumps
// exactly when the wider array goes live.
func TestClusterAddDiskRelayout(t *testing.T) {
	cfg := Config{Replication: 1, Nodes: []core.Config{node6Config(), node6Config()}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := clipBytes(88, 100_000)
	if err := c.AddClip("movie", data); err != nil {
		t.Fatal(err)
	}
	target := c.Replicas("movie")[0]
	st, err := c.OpenStream("movie")
	if err != nil {
		t.Fatal(err)
	}
	v0 := c.ViewVersion()
	if err := c.AddDisk(target); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDisk(99); err == nil {
		t.Fatal("AddDisk out of range succeeded")
	}
	var off int64
	flipped := int64(-1)
	done := false
	for r := 0; r < 10_000; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.NodeCount(); i++ {
			if err := c.NodeServer(i).CheckAdmission(); err != nil {
				t.Fatalf("round %d: node %d: %v", c.round, i, err)
			}
			if ov := c.NodeServer(i).Stats().Overflows; ov != 0 {
				t.Fatalf("round %d: node %d budget overdrawn", c.round, i)
			}
		}
		if flipped < 0 && c.NodeServer(target).Disks() == 7 {
			flipped = c.round
			if got := c.ViewVersion(); got != v0+1 {
				t.Fatalf("round %d: flip left view %d, want %d", flipped, got, v0+1)
			}
		}
		d, rerr := readAvailable(t, st, data, &off)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if d {
			done = true
		}
		if done && flipped >= 0 {
			break
		}
	}
	if flipped < 0 {
		t.Fatal("re-layout never flipped into the view")
	}
	if !done || off != int64(len(data)) {
		t.Fatalf("stream did not complete across the flip: %d of %d bytes", off, len(data))
	}
	if got := c.ViewVersion(); got != v0+1 {
		t.Fatalf("disk addition bumped the view %d -> %d, want exactly +1", v0, got)
	}
	if got := c.NodeServer(target).Disks(); got != 7 {
		t.Fatalf("node %d Disks = %d, want 7", target, got)
	}
	// The grown capacity is real: a fresh clip stores and plays.
	late := clipBytes(9, 40_000)
	if err := c.AddClip("late", late); err != nil {
		t.Fatal(err)
	}
	lst, err := c.OpenStream("late")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	buf := make([]byte, 64<<10)
	for r := 0; r < 600 && int64(len(got)) < int64(len(late)); r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for {
			n, rerr := lst.Read(buf)
			got = append(got, buf[:n]...)
			if n == 0 || rerr != nil {
				break
			}
		}
	}
	if !bytes.Equal(got, late) {
		t.Fatalf("post-flip clip differs: %d of %d bytes", len(got), len(late))
	}
}

// A joined node is immediately placeable: wider replication that the
// original membership could not satisfy succeeds after the join.
func TestJoinNodeExtendsPlacement(t *testing.T) {
	c := testCluster(t, 3, 2)
	if err := c.AddClipReplicated("wide", clipBytes(5, 20_000), 4); err == nil {
		t.Fatal("replication 4 on 3 nodes succeeded")
	}
	if _, err := c.JoinNode(nodeConfig()); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeCount(); got != 4 {
		t.Fatalf("NodeCount = %d, want 4", got)
	}
	if err := c.AddClipReplicated("wide", clipBytes(5, 20_000), 4); err != nil {
		t.Fatalf("replication 4 after join: %v", err)
	}
	if reps := c.Replicas("wide"); len(reps) != 4 {
		t.Fatalf("replicas = %v, want 4 nodes", reps)
	}
}

// Draining a failed or retired node is refused; drain intent recorded
// in the view survives a mid-drain failure and resumes on rejoin.
func TestDrainSurvivesFailure(t *testing.T) {
	c := testCluster(t, 3, 2)
	if err := c.AddClip("movie", clipBytes(6, 30_000)); err != nil {
		t.Fatal(err)
	}
	victim := c.Replicas("movie")[0]
	if err := c.DrainNode(victim); err != nil {
		t.Fatal(err)
	}
	v := c.ViewVersion()
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.DrainNode(victim); err == nil {
		t.Fatal("draining a failed node succeeded")
	}
	if err := c.RejoinNode(victim); err != nil {
		t.Fatal(err)
	}
	if got := c.ViewVersion(); got != v {
		t.Fatalf("failure and rejoin moved the view %d -> %d; liveness is not versioned", v, got)
	}
	for _, err := range []error{c.DrainNode(3), c.RemoveNode(-1), c.RejoinNode(3), c.FailNode(-1), c.AddDisk(3)} {
		if err == nil {
			t.Fatal("out-of-range node id accepted")
		}
	}
	st := c.Stats()
	if !slices.Contains(st.Draining, victim) {
		t.Fatalf("drain intent lost across failure: draining=%v", st.Draining)
	}
	// The drain completes after rejoin: run the cluster until the node
	// retires.
	for r := 0; r < 1500 && !slices.Contains(c.Stats().Retired, victim); r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Contains(c.Stats().Retired, victim) {
		t.Fatalf("rejoined drain never retired: %+v", c.Stats())
	}
	if err := c.DrainNode(victim); err == nil {
		t.Fatal("draining a retired node succeeded")
	}
}

// TestMigrationDestinationFailsAndRejoins: a destination that fails
// mid-copy loses its partial import with the aborted job, so after it
// rejoins, the planner's next job to it begins afresh and completes. A
// stale import left behind refuses every later BeginClipImport, and the
// planner re-plans a doomed job every round.
func TestMigrationDestinationFailsAndRejoins(t *testing.T) {
	c := testCluster(t, 3, 2)
	if err := c.AddClip("movie", clipBytes(7, 200*8192)); err != nil {
		t.Fatal(err)
	}
	reps := c.Replicas("movie")
	victim := reps[0]
	if err := c.DrainNode(victim); err != nil {
		t.Fatal(err)
	}
	dst := 3 - reps[0] - reps[1] // the one node without a replica
	for r := 0; c.MigratedBlocks() < 62; r++ {
		if r == 100 {
			t.Fatalf("migration copied %d blocks in %d rounds", c.MigratedBlocks(), r)
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.MigrateDone != 0 || st.MigrateJobs != 1 {
		t.Fatalf("after %d copied blocks: %+v, want one job in flight", c.MigratedBlocks(), st)
	}
	if err := c.FailNode(dst); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := c.RejoinNode(dst); err != nil {
		t.Fatal(err)
	}
	want := []int{reps[1], dst}
	slices.Sort(want)
	for r := 0; r < 3000; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	got := slices.Clone(c.Replicas("movie"))
	slices.Sort(got)
	if st := c.Stats(); st.MigrateTotal != 2 || st.MigrateDone != 1 || !slices.Equal(got, want) {
		t.Fatalf("%d jobs planned, %d done, replicas %v; want 2, 1, %v", st.MigrateTotal, st.MigrateDone, got, want)
	}
}

// TestRepairPlanAvoidsDegradedNode: the repair planner ranks destinations
// as placement does, by free bytes discounted by failed disks. A drain
// planned while the freest other node runs degraded, with no spare, puts
// the new replica on the healthy node: migration waits out the degraded
// array but never re-plans, so a raw free-bytes pick would fix the copy
// on the degraded node.
func TestRepairPlanAvoidsDegradedNode(t *testing.T) {
	c := testCluster(t, 4, 2)
	if err := c.AddClip("movie", clipBytes(8, 100_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddClipReplicated("filler", clipBytes(9, 80_000), 1); err != nil {
		t.Fatal(err)
	}
	reps := c.Replicas("movie")
	if !slices.Equal(reps, []int{0, 1}) || !slices.Equal(c.Replicas("filler"), []int{2}) {
		t.Fatalf("placement movie=%v filler=%v, want [0 1] and [2]", reps, c.Replicas("filler"))
	}
	// Node 3 holds the most free bytes, but one of its seven disks is out.
	if err := c.NodeServer(3).FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := c.DrainNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(); err != nil { // plans the re-replication
		t.Fatal(err)
	}
	if err := c.NodeServer(3).RepairDisk(0); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 1500 && !slices.Contains(c.Stats().Retired, 0); r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Replicas("movie"); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("movie on %v after the drain, want [1 2]: the new replica belongs on the healthy node", got)
	}
}
