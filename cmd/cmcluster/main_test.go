package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
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
// two clips, starts the listener and (unless sh.manual) the 1 ms pacer.
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

// pace starts the daemon's own pacer at 1 ms rounds and stops it when the
// test ends.
func (d *daemon) pace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.s.pace(ctx, time.Millisecond)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
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
			!regexp.MustCompile(`tick_hist=\[[^\]]*\] migrate_hist=\[[^\]]*\] pace_hist=\[[^\]]*\]\n`).MatchString(out) {
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
			// A line is capped, newline or not: the daemon answers after
			// maxCommand bytes instead of buffering for the read deadline.
			"PLAY " + strings.Repeat("x", maxCommand): "ERR command too long",
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

// openUntilRefused opens streams of clip directly on the cluster until
// admission refuses one, and returns those it got.
func (d *daemon) openUntilRefused(clip string) []*cluster.Stream {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	var held []*cluster.Stream
	for {
		st, err := d.s.cl.OpenStream(clip)
		if err != nil {
			return held
		}
		held = append(held, st)
	}
}

func (d *daemon) stats() cluster.Stats {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return d.s.cl.Stats()
}

// oneActive accepts a STATS reply whose cluster line counts one stream.
func oneActive(stats string) bool { return strings.Contains(stats, "] active=1 awaiting_failover=") }

// awaitRejected waits for the handlers to bring Stats().Rejected to
// exactly want: a PLAY waiting for admission shows only as its refusals.
func (d *daemon) awaitRejected(t *testing.T, want int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		switch now := d.stats().Rejected; {
		case now == want:
			return
		case now > want || time.Now().After(deadline):
			t.Fatalf("%s: rejected=%d, want %d", what, now, want)
		}
	}
}

// TestShutdownReleasesQueuedPlay: a PLAY waiting for admission must not
// sit out its 10 s retry deadline once shutdown begins — it is refused
// with "ERR shutting down" and the drain completes at once.
func TestShutdownReleasesQueuedPlay(t *testing.T) {
	sh := shapes[0]
	sh.manual = true
	d := start(t, sh)
	// Same-clip opens in one round share an admission cell: fill it, and
	// with the pacer off no round ever frees it — or retries the PLAY,
	// which stays parked on its first refusal for as long as the test likes.
	d.openUntilRefused("clip-0")
	rejected := d.stats().Rejected

	reply := make(chan string, 1)
	go func() { reply <- string(d.send(t, "PLAY clip-0")) }()
	d.awaitRejected(t, rejected+1, "PLAY never parked on an admission refusal")
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

// TestPlayOneBlockPerTick is the barrier on the delivery side: a playing
// connection gets one block per tick and nothing between ticks, because
// the tick's broadcast is the only thing that wakes its handler.
func TestPlayOneBlockPerTick(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		sh.manual = true
		d := start(t, sh)
		conn, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "PLAY clip-0\n")
		d.await(t, "the PLAY's stream", oneActive)
		// quiet: nothing arrives while no tick runs.
		buf := make([]byte, 64<<10)
		quiet := func(when string) {
			t.Helper()
			conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			if n, err := conn.Read(buf); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("%s: read %d bytes, err %v; want none without a tick", when, n, err)
			}
		}
		quiet("before the first tick")
		// A second stream opened in the same round is the oracle for what
		// each tick delivers to the first.
		d.s.mu.Lock()
		ref, err := d.s.cl.OpenStream("clip-0")
		d.s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		want, refBuf := d.clips["clip-0"], make([]byte, 64<<10)
		for off, ticks := 0, 1; off < len(want); ticks++ {
			if ticks > 100 {
				t.Fatalf("%d ticks delivered %d of %d bytes", ticks, off, len(want))
			}
			d.s.tick(0)
			d.s.mu.Lock()
			n, _ := ref.Read(refBuf)
			d.s.mu.Unlock()
			if n > 0 {
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := io.ReadFull(conn, buf[:n]); err != nil || !bytes.Equal(buf[:n], want[off:off+n]) {
					t.Fatalf("tick %d: block of %d bytes at %d: err %v or wrong bytes", ticks, n, off, err)
				}
				off += n
			}
			if off < len(want) {
				quiet(fmt.Sprintf("after tick %d", ticks))
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(buf); n != 0 || err != io.EOF {
			t.Fatalf("after the last block: read %d bytes, err %v; want EOF", n, err)
		}
	})
}

// TestQueuedPlayRetriesOncePerTick is the barrier on the admission side,
// the paper's pending list: a refused PLAY retries once per tick, not on a
// clock of its own, and is admitted by the first tick after capacity frees.
func TestQueuedPlayRetriesOncePerTick(t *testing.T) {
	sh := shapes[0]
	sh.manual = true
	d := start(t, sh)
	// A clip long enough to hold its capacity for the whole test.
	d.s.mu.Lock()
	err := d.s.cl.AddClip("long", make([]byte, 100*8000))
	d.s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Fill every admission cell: a tick moves new opens to the next cell,
	// so keep opening after each until a full cycle of ticks frees nothing.
	var held []*cluster.Stream
	for full, ticks := 0, 0; full < 7; ticks++ {
		if ticks > 60 {
			t.Fatal("admission never filled up")
		}
		d.s.tick(0)
		got := d.openUntilRefused("long")
		if held = append(held, got...); len(got) == 0 {
			full++
		} else {
			full = 0
		}
	}
	rejected := d.stats().Rejected

	reply := make(chan []byte, 1)
	go func() { reply <- d.send(t, "PLAY clip-0") }()
	d.awaitRejected(t, rejected+1, "PLAY never parked on an admission refusal")
	for k := 1; k <= 3; k++ {
		d.s.tick(0)
		d.awaitRejected(t, rejected+1+k, fmt.Sprintf("tick %d while parked", k))
	}
	// Freed capacity alone wakes nobody: admission is retried at the round.
	d.s.mu.Lock()
	for _, st := range held {
		st.Close()
	}
	d.s.mu.Unlock()
	d.s.tick(0)
	d.await(t, "admission by the first tick after capacity freed", oneActive)
	if got := d.stats().Rejected; got != rejected+4 {
		t.Fatalf("rejected=%d after admission, want %d", got, rejected+4)
	}
	d.pace(t)
	if got := <-reply; !bytes.Equal(got, d.clips["clip-0"]) {
		t.Fatalf("admitted PLAY returned %d bytes, want %d (exact)", len(got), len(d.clips["clip-0"]))
	}
}

// TestNextRound pins the pacer's arithmetic: an absolute schedule that a
// late round does not push back, and a re-anchor beyond maxCatchUp.
func TestNextRound(t *testing.T) {
	const iv = time.Millisecond
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	for _, c := range []struct {
		name       string
		prev, now  time.Duration // offsets from t0
		due        time.Duration
		reanchored bool
	}{
		{name: "on time: sleeps to the next deadline", prev: 0, now: 50 * time.Microsecond, due: iv},
		{name: "exactly on the deadline", prev: 0, now: iv, due: iv},
		{name: "late by less than a round: due at once, schedule kept", prev: 0, now: iv + 300*time.Microsecond, due: iv},
		{name: "late by several rounds: catches up one at a time", prev: 0, now: 5 * iv, due: iv},
		{name: "at the catch-up limit: still catches up", prev: 0, now: (maxCatchUp + 1) * iv, due: iv},
		{name: "beyond the limit: re-anchors at now", prev: 0, now: (maxCatchUp+1)*iv + 1, due: (maxCatchUp+1)*iv + 1, reanchored: true},
		{name: "the round after a re-anchor is on schedule again", prev: 40 * iv, now: 40*iv + 50*time.Microsecond, due: 41 * iv},
	} {
		due, reanchored := nextRound(at(c.prev), at(c.now), iv)
		if !due.Equal(at(c.due)) || reanchored != c.reanchored {
			t.Errorf("%s: due t0+%v reanchored=%v, want t0+%v %v", c.name, due.Sub(t0), reanchored, c.due, c.reanchored)
		}
	}
	// The long-run rate is exact however late each round starts, as long
	// as it stays inside the catch-up limit: n rounds end n intervals on.
	due, now := t0, t0
	for k := 0; k < 1000; k++ {
		var reanchored bool
		if due, reanchored = nextRound(due, now, iv); reanchored {
			t.Fatalf("round %d re-anchored inside the catch-up limit", k)
		}
		if due.After(now) {
			now = due // sleepUntil
		}
		now = now.Add(time.Duration(k%7) * 250 * time.Microsecond) // a tick of 0 to 1.5 rounds
	}
	if !due.Equal(at(1000 * iv)) {
		t.Fatalf("1000 rounds ended at t0+%v, want t0+%v", due.Sub(t0), 1000*iv)
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
				d.s.tick(0)
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

// TestPlayAllocs pins what a PLAY costs the heap once the daemon is warm:
// the connection, the command line and the two stream records, but no
// copy buffer — that comes off the server's freelist — and nothing per
// round from the paced ticks it spans. The count covers client and
// server alike, so the client reuses one read buffer and one command.
// AllocsPerRun would force GOMAXPROCS 1, where the node fan-out is a
// plain loop, so this reads runtime.MemStats under each GOMAXPROCS.
func TestPlayAllocs(t *testing.T) {
	d := start(t, shapes[1])
	cmd, buf := []byte("PLAY clip-0\n"), make([]byte, 64<<10)
	play := func() {
		conn, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(cmd); err != nil {
			t.Fatal(err)
		}
		got := 0
		for {
			n, err := conn.Read(buf)
			got += n
			if err != nil {
				break
			}
		}
		if got != len(d.clips["clip-0"]) {
			t.Fatalf("PLAY clip-0 returned %d bytes, want %d", got, len(d.clips["clip-0"]))
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for range 5 {
			play()
		}
		const plays = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range plays {
			play()
		}
		runtime.ReadMemStats(&after)
		perPlay := (after.TotalAlloc - before.TotalAlloc) / plays
		objects := (after.Mallocs - before.Mallocs) / plays
		if perPlay >= 8<<10 {
			t.Errorf("GOMAXPROCS=%d: a PLAY allocates %d B in %d objects, want < 8 KB", procs, perPlay, objects)
		}
		t.Logf("GOMAXPROCS=%d: %d B, %d objects per PLAY", procs, perPlay, objects)
	}
}
