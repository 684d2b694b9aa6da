package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/health"
	"ftcms/internal/units"
)

// fastDisk is a disk model with negligible seek costs so tests stream
// many rounds quickly (same shape as the cmcluster test model).
func fastDisk() diskmodel.Parameters {
	return diskmodel.Parameters{
		TransferRate: 45 * units.Mbps,
		Settle:       0.05 * units.Millisecond,
		Seek:         0.1 * units.Millisecond,
		Rotation:     0.1 * units.Millisecond,
		Capacity:     2 * units.GB,
		PlaybackRate: 1.5 * units.Mbps,
	}
}

// nodeConfig is one 7-disk declustered array.
func nodeConfig() core.Config {
	return core.Config{
		Scheme: core.Declustered,
		Disk:   fastDisk(),
		D:      7, P: 3,
		Block: 8 * units.KB,
		Q:     8, F: 2,
		Buffer: 16 * units.MB,
	}
}

func testCluster(t testing.TB, nodes, rep int) *Cluster {
	t.Helper()
	cfg := Config{Replication: rep}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, nodeConfig())
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func clipBytes(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// readAvailable drains whatever the stream can deliver right now,
// verifying bytes against want starting at *offset.
func readAvailable(t *testing.T, st *Stream, want []byte, offset *int64) (done bool, err error) {
	t.Helper()
	buf := make([]byte, 64<<10)
	for {
		n, rerr := st.Read(buf)
		if n > 0 {
			if !bytes.Equal(buf[:n], want[*offset:*offset+int64(n)]) {
				t.Fatalf("stream bytes diverge at offset %d", *offset)
			}
			*offset += int64(n)
		}
		switch {
		case errors.Is(rerr, io.EOF):
			return true, nil
		case errors.Is(rerr, core.ErrNoData):
			return false, nil
		case rerr != nil:
			return false, rerr
		}
	}
}

func TestPlacementCapacityAwareAndReplicated(t *testing.T) {
	c := testCluster(t, 3, 2)
	for i := 0; i < 6; i++ {
		name := string(rune('a' + i))
		if err := c.AddClip(name, clipBytes(int64(i), 40_000)); err != nil {
			t.Fatal(err)
		}
		reps := c.Replicas(name)
		if len(reps) != 2 {
			t.Fatalf("clip %s replicas = %v, want 2", name, reps)
		}
		if reps[0] == reps[1] {
			t.Fatalf("clip %s placed twice on node %d", name, reps[0])
		}
	}
	// Capacity-aware assignment balances: 6 clips × 2 replicas over 3
	// equal nodes must put exactly 4 replicas on each node.
	count := make([]int, 3)
	for _, name := range c.Clips() {
		for _, id := range c.Replicas(name) {
			count[id]++
		}
	}
	for i, n := range count {
		if n != 4 {
			t.Fatalf("node %d holds %d replicas, want 4 (got %v)", i, n, count)
		}
	}
	if got := c.ClipSize("a"); got != 40_000 {
		t.Fatalf("ClipSize = %d, want 40000", got)
	}
	if got := c.ClipSize("nope"); got != -1 {
		t.Fatalf("ClipSize(unknown) = %d, want -1", got)
	}
}

func TestAddClipValidation(t *testing.T) {
	c := testCluster(t, 2, 1)
	if err := c.AddClip("a", clipBytes(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddClip("a", clipBytes(1, 1000)); err == nil {
		t.Fatal("duplicate clip accepted")
	}
	if err := c.AddClipReplicated("b", clipBytes(2, 1000), 3); err == nil {
		t.Fatal("replication beyond node count accepted")
	}
	if err := c.AddClipReplicated("c", clipBytes(3, 1000), 0); err == nil {
		t.Fatal("replication 0 accepted")
	}
}

func TestRoutingSpilloverAndClusterReject(t *testing.T) {
	c := testCluster(t, 2, 2)
	if err := c.AddClip("x", clipBytes(7, 40_000)); err != nil {
		t.Fatal(err)
	}
	// With f=2, one clip admits at most f streams per node in the same
	// round (same start cell); replication 2 doubles that cluster-wide.
	var streams []*Stream
	for i := 0; i < 4; i++ {
		st, err := c.OpenStream("x")
		if err != nil {
			t.Fatalf("stream %d refused: %v", i, err)
		}
		streams = append(streams, st)
	}
	nodes := map[int]int{}
	for _, st := range streams {
		nodes[servedBy(st)]++
	}
	if nodes[0] != 2 || nodes[1] != 2 {
		t.Fatalf("spillover did not balance: %v", nodes)
	}
	if _, err := c.OpenStream("x"); !errors.Is(err, core.ErrAdmission) {
		t.Fatalf("5th stream: %v, want cluster-wide admission reject", err)
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", c.Stats().Rejected)
	}
	for _, st := range streams {
		st.Close()
	}
	if c.Stats().Active != 0 {
		t.Fatalf("Active = %d after closing all", c.Stats().Active)
	}
}

func TestStreamCompletesByteExact(t *testing.T) {
	c := testCluster(t, 3, 2)
	clip := clipBytes(11, 50_000)
	if err := c.AddClip("v", clip); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream("v")
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for r := 0; r < 200; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		done, err := readAvailable(t, st, clip, &off)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if off != int64(len(clip)) {
				t.Fatalf("EOF at %d of %d", off, len(clip))
			}
			if c.Stats().Served != 1 {
				t.Fatalf("Served = %d, want 1", c.Stats().Served)
			}
			return
		}
	}
	t.Fatalf("stream did not finish in 200 rounds (offset %d of %d)", off, len(clip))
}

func TestFailoverResumesByteExact(t *testing.T) {
	c := testCluster(t, 3, 2)
	clip := clipBytes(13, 60_000)
	if err := c.AddClip("v", clip); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream("v")
	if err != nil {
		t.Fatal(err)
	}
	victim := servedBy(st)
	var off int64
	// Stream part of the clip, then kill the serving node mid-round.
	for r := 0; r < 6; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, err := readAvailable(t, st, clip, &off); err != nil {
			t.Fatal(err)
		}
	}
	if off == 0 {
		t.Fatal("no bytes delivered before the failure")
	}
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if got := servedBy(st); got == victim {
		t.Fatalf("stream still on failed node %d", got)
	}
	for r := 0; r < 400; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		done, err := readAvailable(t, st, clip, &off)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if off != int64(len(clip)) {
				t.Fatalf("EOF at %d of %d", off, len(clip))
			}
			stats := c.Stats()
			if stats.FailedOver != 1 || stats.Terminated != 0 {
				t.Fatalf("FailedOver=%d Terminated=%d, want 1, 0", stats.FailedOver, stats.Terminated)
			}
			if stats.Alive != 2 || len(stats.FailedNodes) != 1 || stats.FailedNodes[0] != victim {
				t.Fatalf("node accounting off: %+v", stats)
			}
			return
		}
	}
	t.Fatalf("failover stream did not finish (offset %d of %d)", off, len(clip))
}

// TestMoveResumesInsideGroup: a failover and a drain move reopen the
// stream on the clip's other replica at the reader's exact byte — here
// inside block 4, the middle block of a prefetch-flat parity group, so the
// new node fetches from block 3 — and the reader gets every byte once.
func TestMoveResumesInsideGroup(t *testing.T) {
	const at = 4*8000 + 500
	clip := clipBytes(31, 200_000)
	for _, move := range []string{"failover", "drain"} {
		cfg := Config{Replication: 2}
		for i := 0; i < 3; i++ {
			nc := nodeConfig()
			nc.Scheme, nc.D, nc.P = core.PrefetchFlat, 9, 4
			cfg.Nodes = append(cfg.Nodes, nc)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddClip("v", clip); err != nil {
			t.Fatal(err)
		}
		st, err := c.OpenStream("v")
		if err != nil {
			t.Fatal(err)
		}
		var off int64
		for r := 0; off < at; r++ {
			if r > 100 {
				t.Fatalf("%s: reader stuck at byte %d", move, off)
			}
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, at-off)
			n, err := st.Read(buf)
			if !bytes.Equal(buf[:n], clip[off:off+int64(n)]) {
				t.Fatalf("%s: bytes diverge at offset %d", move, off)
			}
			if off += int64(n); err != nil && !errors.Is(err, core.ErrNoData) {
				t.Fatal(err)
			}
		}
		from := servedBy(st)
		if move == "failover" {
			err = c.FailNode(from)
		} else {
			err = c.DrainNode(from)
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; ; r++ {
			if r > 400 {
				t.Fatalf("%s: stream did not finish (offset %d of %d)", move, off, len(clip))
			}
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
			done, err := readAvailable(t, st, clip, &off)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		if s := c.Stats(); off != int64(len(clip)) || servedBy(st) == from || s.FailedOver+s.MigratedStreams != 1 {
			t.Fatalf("%s: EOF at %d of %d on node %d (from %d), %d failovers, %d moves",
				move, off, len(clip), servedBy(st), from, s.FailedOver, s.MigratedStreams)
		}
	}
}

// BenchmarkFailNode times a node kill with streams in flight: every
// stream the node was serving re-admits on the clip's other replica. The
// repository benchmark has no workload that loses a node.
func BenchmarkFailNode(b *testing.B) {
	c := testCluster(b, 3, 2)
	for i := 0; i < 8; i++ {
		if err := c.AddClip(fmt.Sprintf("clip%d", i), clipBytes(int64(i), 256_000)); err != nil {
			b.Fatal(err)
		}
	}
	var streams []*Stream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, st := range streams {
			st.Close()
		}
		streams = streams[:0]
		if err := c.RejoinNode(0); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			st, err := c.OpenStream(fmt.Sprintf("clip%d", j%8))
			if err != nil {
				break // replicas full this round: kill the node under what was admitted
			}
			streams = append(streams, st)
		}
		b.StartTimer()
		if err := c.FailNode(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Stats().FailedOver)/float64(b.N), "failovers/op")
}

func TestUnreplicatedClipTerminatesWithStreamLost(t *testing.T) {
	c := testCluster(t, 2, 1)
	clip := clipBytes(17, 40_000)
	if err := c.AddClip("solo", clip); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream("solo")
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for r := 0; r < 4; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, err := readAvailable(t, st, clip, &off); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FailNode(servedBy(st)); err != nil {
		t.Fatal(err)
	}
	_, err = st.Read(make([]byte, 4096))
	if !errors.Is(err, core.ErrStreamLost) {
		t.Fatalf("read after node loss: %v, want ErrStreamLost", err)
	}
	if !errors.Is(st.err, core.ErrStreamLost) {
		t.Fatalf("termination reason = %v, want ErrStreamLost", st.err)
	}
	if got := c.Stats().Terminated; got != 1 {
		t.Fatalf("Terminated = %d, want 1", got)
	}
}

func TestFailoverParksWhenReplicaFullThenResumes(t *testing.T) {
	c := testCluster(t, 2, 2)
	clip := clipBytes(19, 50_000)
	if err := c.AddClip("x", clip); err != nil {
		t.Fatal(err)
	}
	// Fill the cluster: 2 per node in round 0 (f=2 cell cap).
	var streams []*Stream
	for {
		st, err := c.OpenStream("x")
		if err != nil {
			if !errors.Is(err, core.ErrAdmission) {
				t.Fatal(err)
			}
			break
		}
		streams = append(streams, st)
	}
	offsets := make([]int64, len(streams))
	for r := 0; r < 3; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for i, st := range streams {
			if _, err := readAvailable(t, st, clip, &offsets[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Kill node 0: its streams cannot re-admit on the full node 1 and
	// must park.
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	var moved, parked []*Stream
	for _, st := range streams {
		switch servedBy(st) {
		case -1:
			parked = append(parked, st)
		case 0:
			t.Fatal("stream still claims the dead node")
		default:
			moved = append(moved, st)
		}
	}
	if len(parked) == 0 {
		t.Fatalf("no stream parked (moved=%d) — test premise broken", len(moved))
	}
	if got := c.Stats().AwaitingFailover; got != len(parked) {
		t.Fatalf("AwaitingFailover = %d, want %d", got, len(parked))
	}
	// A parked stream reads as ErrNoData, not an error.
	if _, err := parked[0].Read(make([]byte, 64)); !errors.Is(err, core.ErrNoData) {
		t.Fatalf("parked read: %v, want ErrNoData", err)
	}
	// Free capacity on the survivor: close its native streams.
	for _, st := range moved {
		st.Close()
	}
	// Parked streams re-admit on a later Tick and finish byte-exact.
	remaining := map[*Stream]int{}
	for i, st := range streams {
		if !st.closed {
			remaining[st] = i
		}
	}
	for r := 0; r < 500 && len(remaining) > 0; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for st, i := range remaining {
			done, err := readAvailable(t, st, clip, &offsets[i])
			if err != nil {
				t.Fatal(err)
			}
			if done {
				if offsets[i] != int64(len(clip)) {
					t.Fatalf("stream %d EOF at %d of %d", i, offsets[i], len(clip))
				}
				delete(remaining, st)
			}
		}
	}
	if len(remaining) > 0 {
		t.Fatalf("%d parked streams never finished", len(remaining))
	}
}

// TestFailoverAdmitsAtResumeBlock: a failover books bandwidth where the
// stream resumes, not where its clip starts. With the survivor's
// clip-start cell filled this round by fresh opens of the same clip, the
// stream still moves at once — its resume block's cell has room.
func TestFailoverAdmitsAtResumeBlock(t *testing.T) {
	c := testCluster(t, 2, 2)
	clip := clipBytes(21, 60_000)
	if err := c.AddClip("x", clip); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream("x")
	if err != nil {
		t.Fatal(err)
	}
	victim := servedBy(st)
	survivor := 1 - victim
	var off int64
	for r := 0; r < 4; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, err := readAvailable(t, st, clip, &off); err != nil {
			t.Fatal(err)
		}
	}
	if off == 0 {
		t.Fatal("no bytes delivered before the failure")
	}
	fresh := 0
	for {
		if _, err := c.NodeServer(survivor).OpenStream("x"); err != nil {
			if !errors.Is(err, core.ErrAdmission) {
				t.Fatal(err)
			}
			break
		}
		fresh++
	}
	if fresh == 0 {
		t.Fatal("survivor refused every fresh open — test premise broken")
	}
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if got := servedBy(st); got != survivor {
		t.Fatalf("stream on node %d after failover, want %d at once (clip-start cell full, resume cell free)", got, survivor)
	}
	if s := c.Stats(); s.FailedOver != 1 || s.AwaitingFailover != 0 {
		t.Fatalf("FailedOver=%d AwaitingFailover=%d, want 1, 0", s.FailedOver, s.AwaitingFailover)
	}
	for r := 0; r < 400; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		done, err := readAvailable(t, st, clip, &off)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if off != int64(len(clip)) {
				t.Fatalf("EOF at %d of %d", off, len(clip))
			}
			return
		}
	}
	t.Fatalf("failover stream did not finish (offset %d of %d)", off, len(clip))
}

func TestDetectorDeclaresScriptedNodeFault(t *testing.T) {
	cfg := Config{
		Replication: 2,
		Faults:      &faultinject.Plan{Seed: 1, FailStops: []faultinject.FailStop{{Disk: 1, Round: 3}}},
	}
	for i := 0; i < 3; i++ {
		cfg.Nodes = append(cfg.Nodes, nodeConfig())
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddClip("v", clipBytes(23, 30_000)); err != nil {
		t.Fatal(err)
	}
	// Rounds 1..2: probes succeed. Rounds 3..5: three consecutive hard
	// errors declare node 1 down — by detection, not command.
	for r := 0; r < 6; r++ {
		if c.nodes[1].serving() != (c.round < 5) {
			t.Fatalf("round %d: alive=%v", c.round, c.nodes[1].serving())
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if c.nodes[1].serving() {
		t.Fatal("node 1 still alive after scripted fail-stop")
	}
	if got := c.Stats().FailedNodes; !slices.Equal(got, []int{1}) {
		t.Fatalf("failed nodes = %v, want [1]", got)
	}
	// A clean probe never lifts a declaration: the detector holds node 1
	// Down until something resets it.
	if got := c.detector.Observe(1, 1, nil); got != health.Down {
		t.Fatalf("detector state = %v, want Down", got)
	}
	// Rejoin clears detection state and readmits the node for routing.
	if err := c.RejoinNode(1); err != nil {
		t.Fatal(err)
	}
	if !c.nodes[1].serving() || len(c.Stats().FailedNodes) != 0 {
		t.Fatal("rejoin did not restore the node")
	}
	if got := c.detector.Observe(1, 1, nil); got != health.OK {
		t.Fatalf("detector state after rejoin = %v, want OK", got)
	}
	for r := 0; r < 3; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.nodes[1].serving() {
		t.Fatal("cleared fault plan still kills the rejoined node")
	}
}

func TestOpenStreamErrors(t *testing.T) {
	c := testCluster(t, 2, 1)
	if _, err := c.OpenStream("ghost"); err == nil {
		t.Fatal("unknown clip accepted")
	}
	if err := c.AddClip("a", clipBytes(29, 10_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(c.Replicas("a")[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenStream("a"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("open with no live replica: %v, want ErrNoReplica", err)
	}
}

// TestNodeCorruptionEscalatesToRebuild: a sustained silent-corruption
// storm on one disk inside node 1 drives that node's per-disk corruption
// counter past its CorruptionThreshold. The node declares the disk
// failed and rebuilds it onto its hot spare entirely within the node:
// the cluster never observes a node fault, no stream fails over, and
// replicated playback stays byte-exact throughout.
func TestNodeCorruptionEscalatesToRebuild(t *testing.T) {
	cfg := Config{Replication: 2}
	for i := 0; i < 2; i++ {
		nc := nodeConfig()
		nc.ScrubRate = -1
		cfg.Nodes = append(cfg.Nodes, nc)
	}
	// Node 1: one hot spare, a low corruption threshold, and an endless
	// rate-1 corruption storm on disk 2 from round 5 on. The storm stops
	// only when the disk is declared failed and replaced — the injector
	// drops a replaced disk's plan entries.
	cfg.Nodes[1].Spares = 1
	cfg.Nodes[1].Health = health.Config{CorruptionThreshold: 4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.NodeServer(1).InjectFaults(faultinject.Plan{
		Seed: 7,
		Corruptions: []faultinject.SilentCorruption{
			{Disk: 2, Block: -1, Rate: 1, From: 5, Bits: 1},
		},
	})
	clip := clipBytes(9, 50_000)
	if err := c.AddClip("clip", clip); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream("clip")
	if err != nil {
		t.Fatal(err)
	}
	var offset int64
	done := false
	recovered := func() bool {
		ns := c.Stats().Node[1]
		return ns.RebuildsDone == 1 && ns.Mode == core.ModeHealthy
	}
	for round := 0; round < 600 && !(done && recovered()); round++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if !done {
			if done, err = readAvailable(t, st, clip, &offset); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !done || offset != int64(len(clip)) {
		t.Fatalf("stream incomplete: done=%v offset=%d want %d", done, offset, len(clip))
	}
	// Each detection event books two corrupt observations with the
	// detector (the read plus its retry), so threshold 4 declares the
	// disk after two events — and the rebuild itself wipes any rot the
	// patrol had not reached yet. At least one event must have entered
	// repair before the declaration.
	ns := c.Stats().Node[1]
	if ns.CorruptionsDetected < 1 || ns.CorruptionsInjected < 2 {
		t.Fatalf("node 1 injected/detected %d/%d corruptions, want >= 2/1",
			ns.CorruptionsInjected, ns.CorruptionsDetected)
	}
	if ns.DetectedFailures != 1 || ns.RebuildsDone != 1 || ns.Mode != core.ModeHealthy || ns.SparesLeft != 0 {
		t.Fatalf("node 1 did not escalate to a completed hot-spare rebuild: %+v", ns)
	}
	// The escalation stayed inside the node: the cluster tier saw no
	// fault and moved no streams.
	cs := c.Stats()
	if cs.Alive != 2 || len(cs.FailedNodes) != 0 || cs.FailedOver != 0 || cs.Terminated != 0 {
		t.Fatalf("corruption escalation leaked to the cluster tier: %+v", cs)
	}
}

// TestNodesRebuildInsideFanOut: every node rebuilds a disk in the same
// rounds, so each node's rebuild fans its byte pass out on the pool from
// inside the cluster's node fan-out. Run with -race at -cpu 4, the nested
// passes overlap; the rebuilt arrays must hold what they held, and
// playback must stay byte-exact.
func TestNodesRebuildInsideFanOut(t *testing.T) {
	cfg := Config{Replication: 1}
	for i := 0; i < 3; i++ {
		nc := nodeConfig()
		nc.Spares = 1
		cfg.Nodes = append(cfg.Nodes, nc)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clips := make([][]byte, 6)
	for i := range clips {
		clips[i] = clipBytes(int64(20+i), 800_000)
		if err := c.AddClip(fmt.Sprint("clip-", i), clips[i]); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 3; n++ {
		if err := c.NodeServer(n).FailDisk(n); err != nil {
			t.Fatal(err)
		}
	}
	type reader struct {
		st     *Stream
		offset int64
		done   bool
	}
	var rs []*reader
	for i := range clips {
		st, err := c.OpenStream(fmt.Sprint("clip-", i))
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, &reader{st: st})
	}
	healthy := func() bool {
		for _, ns := range c.Stats().Node {
			if ns.RebuildsDone != 1 || ns.Mode != core.ModeHealthy {
				return false
			}
		}
		return true
	}
	for round := 0; round < 2000; round++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		all := true
		for i, r := range rs {
			if !r.done {
				if r.done, err = readAvailable(t, r.st, clips[i], &r.offset); err != nil {
					t.Fatal(err)
				}
			}
			all = all && r.done
		}
		if all && healthy() {
			break
		}
		if round == 0 {
			for n, ns := range c.Stats().Node {
				if ns.Mode != core.ModeRebuilding {
					t.Fatalf("node %d is %s after one round; the rebuilds must overlap", n, ns.Mode)
				}
			}
		}
	}
	if !healthy() {
		t.Fatalf("rebuilds unfinished: %+v", c.Stats().Node)
	}
	for i, r := range rs {
		if !r.done || r.offset != int64(len(clips[i])) {
			t.Fatalf("clip %d: done=%v at %d of %d bytes", i, r.done, r.offset, len(clips[i]))
		}
	}
	for n := 0; n < 3; n++ {
		if bad := c.NodeServer(n).Stats().LostBlocks; bad != 0 {
			t.Fatalf("node %d lost %d blocks", n, bad)
		}
	}
}

// TestPlacementDiscountsDegradedNode: a dual-degraded P+Q node keeps
// serving, but its advertised spare capacity shrinks by the degraded
// fraction of its array, so new clips land on whole nodes first.
func TestPlacementDiscountsDegradedNode(t *testing.T) {
	build := func() *Cluster {
		cfg := Config{Replication: 1}
		pqNode := nodeConfig()
		pqNode.Scheme = core.DeclusteredPQ
		cfg.Nodes = append(cfg.Nodes, pqNode, nodeConfig(), nodeConfig())
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Control: with every node whole and equal free space, the tie goes
	// to node 0.
	c := build()
	if err := c.AddClip("ctl", clipBytes(1, 64_000)); err != nil {
		t.Fatal(err)
	}
	if reps := c.Replicas("ctl"); len(reps) != 1 || reps[0] != 0 {
		t.Fatalf("healthy placement went to %v, want [0]", reps)
	}

	// Same cluster shape, but node 0 absorbs two overlapping disk
	// failures before any placement.
	c = build()
	for _, disk := range []int{0, 1} {
		if err := c.NodeServer(0).FailDisk(disk); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.NodeServer(0).DegradedDisks(); got != 2 {
		t.Fatalf("DegradedDisks = %d, want 2", got)
	}
	if !c.nodes[0].serving() {
		t.Fatal("a dual-degraded node must stay in service")
	}
	if err := c.AddClip("v", clipBytes(2, 64_000)); err != nil {
		t.Fatal(err)
	}
	if reps := c.Replicas("v"); len(reps) != 1 || reps[0] == 0 {
		t.Fatalf("placement went to %v, want a whole node (not 0)", reps)
	}
}

// servedBy returns the node serving the stream, or -1 while it is parked
// awaiting failover.
func servedBy(st *Stream) int {
	if st.st == nil {
		return -1
	}
	return st.node
}

// TestInArrayLossFailsOver: two failed disks inside the serving node's
// array make a parity group unrecoverable while the node stays up. With a
// second replica the stream resumes there byte-exact; without one it ends
// with an error that names the node's loss, not a node failure, and wraps
// core's reason, which names the block.
func TestInArrayLossFailsOver(t *testing.T) {
	for _, rep := range []int{1, 2} {
		t.Run(fmt.Sprintf("rep %d", rep), func(t *testing.T) {
			c := testCluster(t, 3, rep)
			clip := clipBytes(17, 200*8192)
			if err := c.AddClip("v", clip); err != nil {
				t.Fatal(err)
			}
			st, err := c.OpenStream("v")
			if err != nil {
				t.Fatal(err)
			}
			victim := servedBy(st)
			// Every pair of the 7-disk, p = 3 design shares a group.
			for _, d := range []int{0, 1} {
				if err := c.NodeServer(victim).FailDisk(d); err != nil {
					t.Fatal(err)
				}
			}
			var off int64
			for r := 0; r < 1000; r++ {
				if err := c.Tick(); err != nil {
					t.Fatal(err)
				}
				done, err := readAvailable(t, st, clip, &off)
				s := c.Stats()
				switch {
				case err != nil && rep == 1:
					want := fmt.Sprintf("cluster: node %d lost the stream and clip \"v\" has no other live replica: core: stream lost", victim)
					if !errors.Is(err, core.ErrStreamLost) || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "clip block") {
						t.Fatalf("err = %v; want it to start %q and name the block", err, want)
					}
					if s.Terminated != 1 || s.FailedOver != 0 || s.Alive != 3 {
						t.Fatalf("Terminated=%d FailedOver=%d Alive=%d, want 1, 0, 3", s.Terminated, s.FailedOver, s.Alive)
					}
					return
				case err != nil:
					t.Fatalf("offset %d: %v", off, err)
				case done && rep == 2:
					if off != int64(len(clip)) || servedBy(st) == victim {
						t.Fatalf("EOF at %d of %d on node %d (lost on %d)", off, len(clip), servedBy(st), victim)
					}
					if s.FailedOver != 1 || s.Terminated != 0 {
						t.Fatalf("FailedOver=%d Terminated=%d, want 1, 0", s.FailedOver, s.Terminated)
					}
					return
				case done:
					t.Fatal("stream played through an unrecoverable group")
				}
			}
			t.Fatalf("stream neither lost nor finished (offset %d of %d)", off, len(clip))
		})
	}
}
