package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ftcms/internal/autopilot"
	"ftcms/internal/core"
	"ftcms/internal/units"
)

// tinyNodeConfig is a deliberately small array — (q−f)·d = 6 admission
// slots — so a test can saturate a node with a handful of streams.
func tinyNodeConfig() core.Config {
	return core.Config{
		Scheme: core.Declustered,
		Disk:   fastDisk(),
		D:      3, P: 3,
		Block: 8 * units.KB,
		Q:     4, F: 2,
		Buffer: 16 * units.MB,
	}
}

func tinyCluster(t *testing.T, nodes, rep int) *Cluster {
	t.Helper()
	cfg := Config{Replication: rep}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, tinyNodeConfig())
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChaosAutopilot is the live-cluster closed-loop chaos test: a
// flash crowd saturates a hot clip's replicas while a node carrying
// in-flight streams is killed. The pilot — not the test — must join
// the replacement and scale out into the crowd; meanwhile every
// tracked stream must finish byte-exact on a survivor with each node's
// admission invariant audited every round and zero buffer overflows.
// Runs under -race in CI.
func TestChaosAutopilot(t *testing.T) {
	c := tinyCluster(t, 3, 2)
	pilot := NewPilot(c, tinyNodeConfig())

	clips := map[string][]byte{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("clip%d", i)
		clips[name] = clipBytes(int64(200+i), 30_000+i*5_000)
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
	open := func(name string) bool {
		st, err := c.OpenStream(name)
		if err != nil {
			if errors.Is(err, core.ErrAdmission) {
				return false
			}
			t.Fatal(err)
		}
		plays = append(plays, &play{st: st, want: clips[name]})
		return true
	}
	// One tracked stream per clip, spread across the membership.
	for i := 0; i < 3; i++ {
		if !open(fmt.Sprintf("clip%d", i)) {
			t.Fatal("baseline stream refused on an empty cluster")
		}
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
			p.done = true
		}
	}
	var fired []autopilot.Action
	step := func() {
		t.Helper()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		a, ok, err := pilot.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fired = append(fired, a)
		}
		audit()
		for _, p := range plays {
			drain(p)
		}
	}

	// Flash crowd: hammer clip0 until both its replicas refuse, then
	// keep offering every round so the reject window stays hot.
	for open("clip0") {
	}
	base := c.NodeCount()
	for r := 0; r < 12 && c.NodeCount() == base; r++ {
		open("clip0") // refused: both replicas are saturated
		step()
	}
	if c.NodeCount() != base+1 {
		t.Fatalf("pilot never scaled out under a sustained flash crowd (nodes = %d)", c.NodeCount())
	}

	// Node kill mid-playback: the pilot must replace the loss from its
	// spare budget without any operator command.
	victim := servedBy(plays[0].st)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	grown := c.NodeCount()
	for r := 0; r < 40 && c.NodeCount() == grown; r++ {
		step()
	}
	if c.NodeCount() != grown+1 {
		t.Fatal("pilot never replaced the killed node")
	}
	var sawReplace bool
	for _, a := range fired {
		if a.Kind == autopilot.Replace {
			sawReplace = true
		}
	}
	if !sawReplace {
		t.Fatalf("no replace action in trace: %v", fired)
	}

	// Every stream that survived the kill finishes byte-exact.
	for r := 0; r < 4000; r++ {
		allDone := true
		for _, p := range plays {
			if !p.done && p.st.err == nil {
				allDone = false
			}
		}
		if allDone {
			break
		}
		step()
	}
	for _, p := range plays {
		if p.st.err != nil {
			// Only acceptable loss: a stream whose clip lost both
			// replicas — impossible here with replication 2 and one
			// kill, so any error is a failure.
			t.Fatalf("clip %s terminated: %v", p.st.clip, p.st.err)
		}
		if !p.done {
			t.Fatalf("clip %s never completed (offset %d of %d, node %d)",
				p.st.clip, p.off, len(p.want), servedBy(p.st))
		}
	}

	stats := c.Stats()
	for i, ns := range stats.Node {
		if i == victim {
			continue
		}
		if ns.Overflows != 0 {
			t.Fatalf("node %d reported %d buffer overflows", i, ns.Overflows)
		}
	}
	if stats.Terminated != 0 {
		t.Fatalf("Terminated = %d, want 0 (every clip is replicated)", stats.Terminated)
	}
}

// TestPilotQuiescentStepAllocs pins the controller's steady-state cost:
// observing an idle cluster allocates nothing.
func TestPilotQuiescentStepAllocs(t *testing.T) {
	c := tinyCluster(t, 3, 2)
	pilot := NewPilot(c, tinyNodeConfig())
	for i := 0; i < 3; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := pilot.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok, _ := pilot.Step(); ok {
			t.Fatal("idle cluster fired an action")
		}
	}); avg != 0 {
		t.Fatalf("quiescent Step allocates %.1f per run, want 0", avg)
	}
}

// TestQuiescentTickAllocs pins what the reconfiguration step and the
// pilot add to every round for ever: after a join, a drain and the
// drained node's retirement — or a failure mid-drain that leaves the node
// down — a round of the cluster (Tick, the pilot's Step when one is
// attached, every stream taking its block) allocates nothing, at
// GOMAXPROCS 1, where the node fan-out is a plain loop, and at
// GOMAXPROCS 2, where it runs on helpers. AllocsPerRun runs at
// GOMAXPROCS 1, so the wider case counts with runtime.MemStats.
func TestQuiescentTickAllocs(t *testing.T) {
	build := func(streams int, withPilot, failMidDrain bool) func() int {
		c, err := New(Config{
			Nodes:       []core.Config{node6Config(), node6Config(), node6Config()},
			Replication: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := c.AddClip(fmt.Sprintf("clip%d", i), clipBytes(int64(i), 1_200_000)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.JoinNode(node6Config()); err != nil {
			t.Fatal(err)
		}
		if err := c.DrainNode(0); err != nil {
			t.Fatal(err)
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if failMidDrain {
			if err := c.FailNode(0); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; !c.quiescent(); r++ {
			if r > 5000 {
				t.Fatalf("reconfiguration never settled: %+v", c.Stats())
			}
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if s := c.Stats(); failMidDrain != slices.Contains(s.FailedNodes, 0) || failMidDrain == slices.Contains(s.Retired, 0) {
			t.Fatalf("failMidDrain=%v: node 0 failed=%v retired=%v", failMidDrain, s.FailedNodes, s.Retired)
		}
		var pilot *Pilot
		var open []*Stream
		buf := make([]byte, 64<<10)
		mayAct := false // the pilot may act while it is being set up
		round := func() int {
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
			if pilot != nil {
				if _, acted, err := pilot.Step(); err != nil || acted && !mayAct {
					t.Fatalf("quiescent cluster: pilot acted=%v err=%v", acted, err)
				}
			}
			delivered := 0
			for _, st := range open {
				n, err := st.Read(buf)
				if err != nil {
					t.Fatal(err)
				}
				delivered += n
			}
			return delivered
		}
		// A clip's streams share an admission cell each round, so the
		// population builds up over a few rounds; the pilot attaches after
		// them, or the refusals on the way would read as a scale-out signal.
		for i := 0; len(open) < streams; i++ {
			if i > 10*streams {
				t.Fatalf("admission stalled at %d of %d streams", len(open), streams)
			}
			st, err := c.OpenStream(fmt.Sprintf("clip%d", i%8))
			if errors.Is(err, core.ErrAdmission) {
				round()
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			open = append(open, st)
		}
		if withPilot {
			pilot = NewPilot(c, node6Config())
		}
		if withPilot && failMidDrain {
			// The pilot replaces node 0's loss with its one spare. Losing
			// the replacement too leaves a loss it cannot replace, which
			// keeps it from acting in the measured rounds.
			mayAct = true
			for n := c.NodeCount(); c.NodeCount() == n; round() {
				if c.round > 10_000 {
					t.Fatal("pilot never replaced node 0")
				}
			}
			if err := c.FailNode(c.NodeCount() - 1); err != nil {
				t.Fatal(err)
			}
			for !c.quiescent() {
				round()
			}
			mayAct = false
		}
		return round
	}
	for _, failMidDrain := range []bool{false, true} {
		for _, withPilot := range []bool{false, true} {
			for _, procs := range []int{1, 2} {
				var allocs [2]float64
				for i, streams := range []int{8, 48} {
					round := build(streams, withPilot, failMidDrain)
					delivered := 0
					f := func() { delivered += round() }
					if procs == 1 {
						allocs[i] = testing.AllocsPerRun(100, f)
					} else {
						allocs[i] = allocsAtProcs(procs, 100, f)
					}
					if want := 101 * streams * 8000; delivered != want {
						t.Fatalf("delivered %d bytes over 101 rounds, want %d: not every stream got its block every round", delivered, want)
					}
				}
				name := fmt.Sprintf("failMidDrain=%v pilot=%v GOMAXPROCS=%d", failMidDrain, withPilot, procs)
				if allocs != [2]float64{} {
					t.Errorf("%s: a quiescent round allocates %v objects at 8 and 48 streams, want 0", name, allocs)
				}
			}
		}
	}
}

// allocsAtProcs is testing.AllocsPerRun at the given GOMAXPROCS: one
// warm-up call, then the whole number of heap objects per call over runs
// calls.
func allocsAtProcs(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestPilotDisableFreezes: a disabled pilot neither observes nor acts,
// and re-enabling rebases the reject baseline so the outage window's
// rejects cannot fire a stale scale-out.
func TestPilotDisableFreezes(t *testing.T) {
	c := tinyCluster(t, 2, 2)
	pilot := NewPilot(c, tinyNodeConfig())
	if !pilot.Enabled() {
		t.Fatal("pilot starts disabled")
	}
	pilot.SetEnabled(false)
	if pilot.Shedding() {
		t.Fatal("disabled pilot reports shedding")
	}

	// Saturate the cluster and pile up rejects while the pilot is off.
	data := clipBytes(5, 30_000)
	if err := c.AddClip("hot", data); err != nil {
		t.Fatal(err)
	}
	saturate := func() {
		t.Helper()
		for {
			if _, err := c.OpenStream("hot"); err != nil {
				if !errors.Is(err, core.ErrAdmission) {
					t.Fatal(err)
				}
				return // the refusal just bumped the reject counter
			}
		}
	}
	for r := 0; r < 10; r++ {
		saturate()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := pilot.Step(); ok {
			t.Fatal("disabled pilot fired an action")
		}
	}
	if c.NodeCount() != 2 {
		t.Fatalf("membership changed while disabled: %d nodes", c.NodeCount())
	}

	// Re-enable with no fresh rejects: the stale backlog must not count.
	pilot.SetEnabled(true)
	for r := 0; r < 10; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if a, ok, _ := pilot.Step(); ok {
			t.Fatalf("re-enabled pilot replayed stale rejects: %v", a)
		}
	}
}
