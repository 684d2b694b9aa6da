package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ftcms/internal/cluster"
	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/units"
)

// shape is one daemon deployment the shared protocol cases run against.
type shape struct {
	name              string
	nodes, rep, spare int
	// manual leaves the round pacer off: the test drives s.tick() itself
	// (or calls pace later) to observe state at exact round boundaries.
	manual bool
}

// shapes are the single-array deployment (cmcluster -nodes 1 -rep 1)
// and the replicated cluster; every protocol behaviour both share is checked
// on both.
var shapes = []shape{
	{name: "1 node rep 1", nodes: 1, rep: 1},
	{name: "3 nodes rep 2", nodes: 3, rep: 2},
}

// forShapes runs one shared case as a subtest per deployment shape.
func forShapes(t *testing.T, fn func(t *testing.T, sh shape)) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { fn(t, sh) })
	}
}

// daemon is a running test front end.
type daemon struct {
	addr  string
	clips map[string][]byte
	s     *server
	ln    net.Listener
}

// start builds the front end for a shape with a fast disk model, stores
// two clips, starts the listener and (unless sh.manual) a 1 ms pacer.
func start(t *testing.T, sh shape) *daemon {
	t.Helper()
	cfg := cluster.Config{
		Replication: sh.rep,
		Faults:      &faultinject.Plan{Seed: 1},
	}
	nodeCfg := core.Config{
		Scheme: core.Declustered,
		Disk: diskmodel.Parameters{
			TransferRate: 45 * units.Mbps,
			Settle:       0.05 * units.Millisecond,
			Seek:         0.1 * units.Millisecond,
			Rotation:     0.1 * units.Millisecond,
			Capacity:     2 * units.GB,
			PlaybackRate: 1.5 * units.Mbps,
		},
		D: 7, P: 3, Block: 8 * units.KB, Q: 8, F: 2, Buffer: 16 * units.MB,
		Spares:    sh.spare,
		ScrubRate: -1,
	}
	for i := 0; i < sh.nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, nodeCfg)
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	d := &daemon{clips: map[string][]byte{}}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("clip-%d", i)
		data := make([]byte, 50_000)
		rng.Read(data)
		d.clips[name] = data
		if err := cl.AddClip(name, data); err != nil {
			t.Fatal(err)
		}
	}
	d.s = newServer(cl, nodeCfg, 10*time.Second, false)
	d.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.addr = d.ln.Addr().String()
	go d.s.acceptLoop(d.ln)
	t.Cleanup(func() { d.s.beginShutdown(d.ln) })
	if !sh.manual {
		d.pace(t)
	}
	return d
}

// pace starts the 1 ms round pacer and stops it when the test ends.
func (d *daemon) pace(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				d.s.tick()
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		wg.Wait()
	})
}

// send issues one command on a fresh connection and returns the whole
// reply. It reports failures with t.Error so PLAYs can run off the test
// goroutine.
func (d *daemon) send(t *testing.T, cmd string) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", d.addr, time.Second)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		t.Error(err)
		return nil
	}
	var out bytes.Buffer
	buf := make([]byte, 64<<10)
	for {
		n, err := conn.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			return out.Bytes()
		}
	}
}

// expect sends cmd and fails the test unless the reply contains want.
func (d *daemon) expect(t *testing.T, cmd, want string) string {
	t.Helper()
	out := string(d.send(t, cmd))
	if !strings.Contains(out, want) {
		t.Fatalf("%q -> %q, want it to contain %q", cmd, strings.TrimSpace(out), want)
	}
	return out
}

// play streams a clip and fails the test unless it arrives byte-exact.
func (d *daemon) play(t *testing.T, clip, when string) {
	t.Helper()
	if got := d.send(t, "PLAY "+clip); !bytes.Equal(got, d.clips[clip]) {
		t.Fatalf("PLAY %s %s returned %d bytes, want %d (exact)", clip, when, len(got), len(d.clips[clip]))
	}
}

// nodeLine returns node i's line of a STATS reply.
func nodeLine(stats string, i int) string {
	for _, l := range strings.Split(stats, "\n") {
		if strings.HasPrefix(l, fmt.Sprintf("node=%d ", i)) {
			return l
		}
	}
	return ""
}

// await polls STATS until done accepts the reply, failing after 15 s.
func (d *daemon) await(t *testing.T, what string, done func(stats string) bool) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		out := string(d.send(t, "STATS"))
		if done(out) {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened; last STATS: %s", what, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHandleList(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		d := start(t, sh)
		out := d.expect(t, "LIST", "clip-0 50000 nodes=[")
		if !strings.Contains(out, "clip-1 50000 nodes=[") {
			t.Fatalf("LIST output:\n%s", out)
		}
		// The load harness reads "<name> <size>" off the front of each line
		// and the replica list has one entry per replica.
		for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
			var name string
			var size int
			if _, err := fmt.Sscanf(l, "%s %d nodes=[", &name, &size); err != nil {
				t.Errorf("LIST line %q: %v", l, err)
			}
			if got := len(strings.Fields(l[strings.Index(l, "[")+1 : strings.Index(l, "]")])); got != sh.rep {
				t.Errorf("LIST line %q lists %d replicas, want %d", l, got, sh.rep)
			}
		}
	})
}

// TestHandleStats: the cluster line and every node line are always
// reported in full, idle values included — hot-spare pool, online-rebuild
// progress and the integrity subsystem — in the order the load harness
// and operators parse them.
func TestHandleStats(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		sh.spare = 1
		d := start(t, sh)
		out := d.expect(t, "STATS", fmt.Sprintf("nodes=%d alive=%d failed=[]", sh.nodes, sh.nodes))
		if !regexp.MustCompile(`^round=\d+ nodes=`).MatchString(out) ||
			!regexp.MustCompile(`tick_hist=\[[^\]]*\] migrate_hist=\[[^\]]*\]\n`).MatchString(out) {
			t.Fatalf("STATS cluster line: %s", out)
		}
		nodeRE := regexp.MustCompile(`^node=\d+ active=0 served=0 hiccups=0 failed_disks=\[\] mode=healthy ` +
			`scrub_scanned=\d+ scrub_total=\d+ scrub_cycles=\d+ corruptions=0 corruption_repairs=0 ` +
			`detect_hist=\[\] rebuild_hist=\[\] overflows=0 spares=1 rebuilding=-1 rebuild_pending=0 ` +
			`rebuild_total=0 rebuilds_done=0 terminated=0$`)
		for i := 0; i < sh.nodes; i++ {
			if l := nodeLine(out, i); !nodeRE.MatchString(l) {
				t.Fatalf("STATS node %d line %q does not match %s", i, l, nodeRE)
			}
		}
	})
}

// TestCorruptIsDetectedAndRepaired: CORRUPT rots one block inside the
// last node without any device error; that node's idle-bounded patrol
// scrub finds the checksum mismatch and repairs it from parity, surfacing
// in that node's STATS line, and both clips still stream byte-exact.
func TestCorruptIsDetectedAndRepaired(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		d := start(t, sh)
		node := sh.nodes - 1
		d.expect(t, fmt.Sprintf("CORRUPT %d 2", node), fmt.Sprintf("OK node %d disk 2 corrupted", node))
		d.await(t, "corruption detect+repair", func(stats string) bool {
			l := nodeLine(stats, node)
			return strings.Contains(l, "corruptions=1") && strings.Contains(l, "corruption_repairs=1")
		})
		for name := range d.clips {
			d.play(t, name, "after repair")
		}
	})
}

func TestHandlePlayByteExact(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		start(t, sh).play(t, "clip-0", "on a healthy daemon")
	})
}

// TestHandleConcurrentPlays: parallel clients stream byte-exact through
// the shared server mutex.
func TestHandleConcurrentPlays(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		d := start(t, sh)
		type result struct {
			name string
			data []byte
		}
		ch := make(chan result, 6)
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("clip-%d", i%2)
			go func() { ch <- result{name, d.send(t, "PLAY "+name)} }()
		}
		for i := 0; i < 6; i++ {
			if r := <-ch; !bytes.Equal(r.data, d.clips[r.name]) {
				t.Fatalf("concurrent PLAY %s returned %d bytes, want %d", r.name, len(r.data), len(d.clips[r.name]))
			}
		}
	})
}

// TestHandleErrors: every usage, arity and range error comes out of the
// verb table's one parser, so each verb's cases are listed here.
func TestHandleErrors(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		d := start(t, sh)
		for cmd, want := range map[string]string{
			"PLAY":         "ERR usage: PLAY <clip>",
			"PLAY nope":    "ERR",
			"FAIL":         "ERR usage: FAIL <node> [<disk>]",
			"FAIL x":       "ERR usage",
			"FAIL 99":      "ERR node 99 out of range [0, " + fmt.Sprint(sh.nodes) + ")",
			"FAIL -1":      "ERR node -1 out of range",
			"FAIL 0 x":     "ERR usage",
			"FAIL 0 99":    "ERR disk 99 out of range [0, 7)",
			"FAIL 99 0":    "ERR node 99 out of range",
			"CORRUPT":      "ERR usage: CORRUPT <node> <disk>",
			"CORRUPT 0":    "ERR usage",
			"CORRUPT x 1":  "ERR usage",
			"CORRUPT 99 0": "ERR node 99 out of range",
			"CORRUPT 0 99": "ERR disk 99 out of range",
			"DRAIN":        "ERR usage: DRAIN <node>",
			"DRAIN 99":     "ERR node 99 out of range",
			"REMOVE x":     "ERR usage: REMOVE <node>",
			"REMOVE 99":    "ERR node 99 out of range",
			"ADDDISK":      "ERR usage: ADDDISK <node>",
			"ADDDISK 99":   "ERR node 99 out of range",
			// The test geometry is d=7, p=3; there is no BIBD layout for
			// v=8, k=3, so disk growth is refused before anything moves.
			"ADDDISK 0":        "ERR",
			"AUTOPILOT":        "ERR usage: AUTOPILOT on|off",
			"AUTOPILOT maybe":  "ERR usage: AUTOPILOT on|off",
			"AUTOPILOT on|off": "ERR usage: AUTOPILOT on|off",
			"BOGUS":            "ERR unknown command",
			"   ":              "ERR empty command",
		} {
			if out := string(d.send(t, cmd)); !strings.Contains(out, want) {
				t.Errorf("%q -> %q, want %q", cmd, strings.TrimSpace(out), want)
			}
		}
	})
}

// TestGracefulShutdown: beginning shutdown stops new work but lets the
// in-flight stream finish byte-exact, and the drain completes.
func TestGracefulShutdown(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		d := start(t, sh)
		conn, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		fmt.Fprintf(conn, "PLAY clip-0\n")
		// Wait for first bytes so the stream is unambiguously in flight.
		buf := make([]byte, 64<<10)
		var out bytes.Buffer
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("no bytes before shutdown: %v", err)
		}
		out.Write(buf[:n])

		d.s.beginShutdown(d.ln)

		// New connections are refused once the listener is closed; one that
		// slipped in before the close is told why its PLAY is refused.
		if c2, err := net.DialTimeout("tcp", d.addr, 250*time.Millisecond); err == nil {
			c2.SetDeadline(time.Now().Add(2 * time.Second))
			fmt.Fprintf(c2, "PLAY clip-1\n")
			reply := make([]byte, 256)
			m, _ := c2.Read(reply)
			if !strings.Contains(string(reply[:m]), "ERR shutting down") {
				t.Errorf("PLAY during drain got %q, want refusal", string(reply[:m]))
			}
			c2.Close()
		}

		// The in-flight stream drains to completion, byte-exact.
		for {
			n, err := conn.Read(buf)
			out.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if !bytes.Equal(out.Bytes(), d.clips["clip-0"]) {
			t.Fatalf("drained stream delivered %d bytes, want %d exact", out.Len(), len(d.clips["clip-0"]))
		}
		if !d.s.drain(10 * time.Second) {
			t.Fatal("drain did not complete")
		}
	})
}

// TestShutdownReleasesQueuedPlay: a PLAY parked in the admission-retry
// loop must not sit out its 10 s retry deadline once shutdown begins —
// it is refused with "ERR shutting down" and the drain completes at once.
func TestShutdownReleasesQueuedPlay(t *testing.T) {
	sh := shapes[0]
	sh.manual = true
	d := start(t, sh)
	// Same-clip opens in one round share an admission cell: fill it, and
	// with the pacer off no round ever frees it, so the next PLAY of the
	// clip stays parked in the retry loop for as long as the test likes.
	d.s.mu.Lock()
	for {
		if _, err := d.s.cl.OpenStream("clip-0"); err != nil {
			break
		}
	}
	rejected := d.s.cl.Stats().Rejected
	d.s.mu.Unlock()

	reply := make(chan string, 1)
	go func() { reply <- string(d.send(t, "PLAY clip-0")) }()
	// The handler is parked once its own retries show up as rejects.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		d.s.mu.Lock()
		now := d.s.cl.Stats().Rejected
		d.s.mu.Unlock()
		if now >= rejected+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("PLAY never entered the admission-retry loop")
		}
	}
	began := time.Now()
	d.s.beginShutdown(d.ln)
	select {
	case out := <-reply:
		if !strings.Contains(out, "ERR shutting down") {
			t.Fatalf("queued PLAY got %q, want ERR shutting down", out)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("queued PLAY still waiting out its retry deadline 3 s into shutdown")
	}
	if !d.s.drain(3*time.Second) || time.Since(began) > 3*time.Second {
		t.Fatalf("drain took %v with only a queued PLAY outstanding", time.Since(began))
	}
}

// TestFailIsDetectedNotCommanded: FAIL <node> <disk> only schedules an
// injected fault; the disk shows up as failed because the node's health
// detector declared it from a stream's own read errors. With no spare the
// node then stays degraded, playback stays byte-exact, and the cluster
// tier does not mistake a degraded node for a dead one.
func TestFailIsDetectedNotCommanded(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		sh.manual = true
		d := start(t, sh)
		d.expect(t, "FAIL 0 3", "OK node 0 disk 3 failed")
		// The injector is armed but no round has run, so nothing has read
		// disk 3 yet: not failed.
		if l := nodeLine(string(d.send(t, "STATS")), 0); !strings.Contains(l, "failed_disks=[] mode=healthy") {
			t.Fatalf("disk failed before any read — FAIL bypassed the detector: %s", l)
		}
		d.pace(t)
		for name := range d.clips {
			d.play(t, name, "through detection")
		}
		out := d.await(t, "disk 3 detection", func(stats string) bool {
			return strings.Contains(nodeLine(stats, 0), "failed_disks=[3]")
		})
		if l := nodeLine(out, 0); !strings.Contains(l, "mode=degraded") || strings.Contains(l, "detect_hist=[]") {
			t.Fatalf("node 0 after detection: %s", l)
		}
		if !strings.Contains(out, fmt.Sprintf("alive=%d failed=[]", sh.nodes)) {
			t.Fatalf("a degraded node was failed over: %s", out)
		}
		for name := range d.clips {
			d.play(t, name, "degraded")
		}
	})
}

// TestStatsReportsRebuildProgress: with a hot spare configured, a disk
// the detector declares inside a node is rebuilt online, and STATS tracks
// it: spares 1→0, mode healthy → rebuilding → healthy (the declaration
// swaps the spare in within the same round, so the degraded window is
// zero rounds long), one sample in each latency histogram at the end.
// The test paces rounds itself to see every round's mode.
func TestStatsReportsRebuildProgress(t *testing.T) {
	for _, sh := range shapes {
		sh.spare, sh.manual = 1, true
		t.Run(sh.name, func(t *testing.T) {
			d := start(t, sh)
			last := nodeLine(string(d.send(t, "STATS")), 0)
			if !strings.Contains(last, "spares=1") {
				t.Fatalf("STATS before failure: %s", last)
			}
			modeRE := regexp.MustCompile(`mode=(\w+)`)
			arc := []string{modeRE.FindStringSubmatch(last)[1]}
			d.expect(t, "FAIL 0 3", "OK node 0 disk 3 failed")
			// Stream through the failure so detection fires and the
			// rebuild starts on the spare.
			played := make(chan bool, 2)
			for name, want := range d.clips {
				go func() { played <- bytes.Equal(d.send(t, "PLAY "+name), want) }()
			}
			for round := 0; ; round++ {
				if round > 20000 {
					t.Fatalf("rebuild never completed (mode arc %v); last STATS: %s", arc, last)
				}
				d.s.tick()
				last = nodeLine(string(d.send(t, "STATS")), 0)
				if m := modeRE.FindStringSubmatch(last); arc[len(arc)-1] != m[1] {
					arc = append(arc, m[1])
				}
				if strings.Contains(last, "rebuilds_done=1") && len(played) == 2 {
					break
				}
				if round%8 == 0 {
					time.Sleep(time.Millisecond) // let the PLAY handlers read
				}
			}
			if got := strings.Join(arc, " "); got != "healthy rebuilding healthy" {
				t.Fatalf("mode arc %q, want healthy rebuilding healthy", got)
			}
			for _, want := range []string{"spares=0", "rebuilding=-1", "rebuild_pending=0", "failed_disks=[]"} {
				if !strings.Contains(last, want) {
					t.Fatalf("STATS after rebuild missing %q: %s", want, last)
				}
			}
			// The completed detect→declare and fail→rejoin cycles must
			// each have produced exactly one histogram sample.
			if strings.Contains(last, "detect_hist=[]") || strings.Contains(last, "rebuild_hist=[]") {
				t.Fatalf("latency histograms empty after a completed rebuild: %s", last)
			}
			if !<-played || !<-played {
				t.Fatal("a PLAY through the failure and rebuild was not byte-exact")
			}
		})
	}
}

// TestHandlePlayThroughNodeFailure: FAIL <node> schedules a node fault
// that the detector discovers mid-stream; replication 2 keeps the playback
// byte-exact via failover to the surviving replica.
func TestHandlePlayThroughNodeFailure(t *testing.T) {
	d := start(t, shapes[1])
	d.expect(t, "FAIL 0", "OK node 0 failed")
	d.play(t, "clip-0", "through node failure")
	d.s.mu.Lock()
	st := d.s.cl.Stats()
	d.s.mu.Unlock()
	if st.Alive != 2 || len(st.FailedNodes) != 1 || st.FailedNodes[0] != 0 {
		t.Fatalf("node 0 not detected as failed: %+v", st)
	}
	d.expect(t, "STATS", "failed=[0]")
}

// TestHandleJoinDrainRetire drives the elastic-reconfiguration protocol
// end to end over the wire: JOIN adds node 3 and bumps the view, DRAIN 0
// marks node 0 draining (visible in STATS), migration re-replicates its
// clips on idle capacity until it retires, and both clips still stream
// byte-exact from the reshaped cluster.
func TestHandleJoinDrainRetire(t *testing.T) {
	d := start(t, shapes[1])
	d.expect(t, "JOIN", "OK node 3 joined view=1")
	// JOIN armed the new node's injector: the fault verbs reach it.
	d.expect(t, "CORRUPT 3 0", "OK node 3 disk 0 corrupted")
	d.expect(t, "DRAIN 0", "OK node 0 draining view=2")
	// At millisecond ticks the idle cluster can finish the whole drain
	// before the next STATS round-trip, so accept either phase here.
	if out := string(d.send(t, "STATS")); !strings.Contains(out, "draining=[0]") &&
		!strings.Contains(out, "retired=[0]") {
		t.Fatalf("STATS during drain: %s", out)
	}
	out := d.await(t, "node 0 retirement", func(stats string) bool { return strings.Contains(stats, "retired=[0]") })
	if !strings.Contains(out, "view=3") {
		t.Fatalf("retirement did not bump the view: %s", out)
	}
	for name := range d.clips {
		d.play(t, name, "after drain")
	}
	// The retired node must be gone from every replica set.
	out = string(d.send(t, "LIST"))
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(l, "nodes=[0") || strings.Contains(l, " 0]") || strings.Contains(l, " 0 ") {
			t.Fatalf("retired node 0 still holds a replica: %s", l)
		}
	}
}

// TestHandleAutopilot drives the closed-loop controls over the wire:
// the STATS autopilot segment reports off until AUTOPILOT on enables
// the controller (mode, action count, cooldown and interlock become
// live), PLAY still admits in steady mode, and AUTOPILOT off freezes
// it again.
func TestHandleAutopilot(t *testing.T) {
	d := start(t, shapes[1])
	out := string(d.send(t, "STATS"))
	if !strings.Contains(out, `autopilot=off`) || !strings.Contains(out, `autopilot_actions=0`) ||
		!strings.Contains(out, `autopilot_last=""`) || !strings.Contains(out, `autopilot_interlock=""`) {
		t.Fatalf("STATS autopilot segment while off: %s", out)
	}
	d.expect(t, "AUTOPILOT on", "OK autopilot on")
	// The pacer steps the enabled pilot; an idle cluster stays in steady
	// mode with no actions and no interlock.
	out = d.await(t, "the enabled controller", func(stats string) bool {
		return strings.Contains(stats, `autopilot=steady`) && strings.Contains(stats, `autopilot_last="none"`)
	})
	if !strings.Contains(out, "autopilot_actions=0") {
		t.Fatalf("idle controller fired an action: %s", out)
	}
	// Steady mode does not shed: PLAY streams byte-exact.
	d.play(t, "clip-0", "with autopilot on")
	d.expect(t, "AUTOPILOT OFF", "OK autopilot off")
	d.expect(t, "STATS", "autopilot=off")
}
