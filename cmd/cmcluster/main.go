// Command cmcluster is the demonstration TCP streaming daemon: it
// composes fault-tolerant arrays into one logical continuous media
// server (internal/cluster), stores synthetic clips across them with
// replication, paces cluster rounds in (scaled) real time, and streams
// clip bytes to TCP clients through disk and node failures. A single
// array is the one-node case:
//
//	cmcluster -nodes 1 -rep 1
//
// Protocol (one command line per connection; the verbs table below is
// the authoritative list of verbs and arguments):
//
//	LIST                  clip names with sizes and replica nodes
//	PLAY <clip>           stream clip bytes as rounds deliver them, then
//	                      close; survives disk failures inside a node
//	                      and, when the clip is replicated, node failures
//	STATS                 cluster counters, then one line per node with
//	                      its failure-lifecycle mode, hot-spare and
//	                      rebuild progress, scrub progress and corruption
//	                      detect/repair counters
//	FAIL <node> [<disk>]  demo alias for the fault injectors: with a disk,
//	                      fail-stop that disk inside the node (the node's
//	                      detector declares it from its own read errors
//	                      and, given -spares, rebuilds it online); without,
//	                      fail-stop the whole node (the cluster detector
//	                      discovers it from probe errors and fails its
//	                      streams over) — never an operator command on
//	                      the data path
//	CORRUPT <node> <disk> demo alias for the silent-corruption injector:
//	                      rots blocks of one disk inside one node; only
//	                      that node's checksums (patrol scrub or read
//	                      path) can notice and repair it
//	JOIN                  join a fresh node (same geometry as the bootset)
//	                      into the cluster; replicas re-spread onto it on
//	                      idle round capacity
//	DRAIN <node>          gracefully drain a node: no new placements, its
//	                      clips re-replicate and its streams move without
//	                      a glitch, then it retires from the view
//	REMOVE <node>         remove a node immediately (admin fail-stop):
//	                      parked streams fail over exactly like a crash
//	ADDDISK <node>        grow one node by a disk; the node re-lays every
//	                      clip onto the wider stripe on idle capacity and
//	                      flips atomically (d+1 must have a BIBD
//	                      construction — the default d=7, p=3 does not;
//	                      start with -d 6 to demo growth)
//	AUTOPILOT on|off      enable or disable the closed-loop controller:
//	                      when on, it joins nodes on sustained rejects,
//	                      replaces detector-confirmed node losses, drains
//	                      surplus nodes off-peak, and sheds new sessions
//	                      under a failover backlog (see -autopilot to
//	                      start enabled; STATS carries autopilot=)
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting
// connections, refuses new and still-queued PLAYs, lets active streams
// drain, then exits. Every client write carries a deadline so one
// stalled client cannot wedge a handler.
//
// Usage:
//
//	cmcluster -addr :9100 -nodes 3 -rep 2 -scheme declustered -d 7 -p 3
//
// speed scales time: 100 means rounds run 100x faster than real playback.
//
// Observability: -pprof serves net/http/pprof on a side address, and
// -cpuprofile/-memprofile write whole-run profiles, matching cmsim.
// The cluster STATS line carries the reconfiguration view (view=,
// draining=, retired=, migrate_progress=) and ends with tick_hist, a
// histogram of recent cluster-round Tick latencies (bucket upper bounds
// in µs), plus migrate_hist — the same latency restricted to rounds
// that actually carried migration traffic, so the cost of background
// re-replication on the tick is directly visible — and pace_hist, how
// late each tick started against its absolute deadline (see nextRound).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ftcms/internal/autopilot"
	"ftcms/internal/cliutil"
	"ftcms/internal/cluster"
	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

type server struct {
	mu sync.Mutex
	cl *cluster.Cluster
	// wake (on mu) is broadcast at the end of every tick and when shutdown
	// begins: a PLAY with no block yet, or refused admission, waits on it.
	wake *sync.Cond

	// inj[i] is node i's disk-fault injector, armed as nodes appear so
	// FAIL <node> <disk> and CORRUPT can script faults inside a node.
	// Distinct from the cluster-level injector, which scripts whole-node
	// faults.
	inj []*faultinject.Injector

	// tickHist tracks recent cluster-round Tick latencies and paceHist
	// how late each tick started against its deadline (guarded by mu,
	// like the Tick they time); STATS reports tick_hist and pace_hist.
	tickHist, paceHist cliutil.LatencyHist

	// migrateHist is tickHist restricted to rounds that copied at least
	// one migration block, so STATS can show what background
	// re-replication costs the tick. lastMigrated is the cumulative
	// block count at the previous round (both guarded by mu).
	migrateHist  cliutil.LatencyHist
	lastMigrated int64

	// nodeCfg is the boot-time per-node template; JOIN builds identical
	// nodes from it so a joined node is interchangeable with the bootset.
	nodeCfg core.Config

	// pilot is the closed-loop controller, stepped once per paced round
	// under mu. It always exists; AUTOPILOT on|off (and the -autopilot
	// flag) toggle whether it observes and acts.
	pilot *cluster.Pilot

	// writeTimeout bounds every client write.
	writeTimeout time.Duration
	// closing is set (under mu) when shutdown begins: accept stops and
	// PLAYs not yet streaming are refused while in-flight streams drain.
	closing bool
	// conns tracks active connection handlers for the drain.
	conns sync.WaitGroup
	// bufs (on mu) is a LIFO freelist of 64 KB buffers, one per connection
	// ever open at once; a handler reads its command and reply through one.
	bufs [][]byte
}

func newServer(cl *cluster.Cluster, nodeCfg core.Config, writeTimeout time.Duration, autopilotOn bool) *server {
	s := &server{
		cl:           cl,
		nodeCfg:      nodeCfg,
		pilot:        cluster.NewPilot(cl, nodeCfg),
		writeTimeout: writeTimeout,
	}
	s.wake = sync.NewCond(&s.mu)
	s.pilot.SetEnabled(autopilotOn)
	s.armInjectors()
	return s
}

// armInjectors gives every node that lacks one an (empty-plan) disk-fault
// injector: the bootset at startup, then each node JOIN or the autopilot
// adds, so FAIL and CORRUPT work against it too. Callers hold mu.
func (s *server) armInjectors() {
	for id := len(s.inj); id < s.cl.NodeCount(); id++ {
		s.inj = append(s.inj, s.cl.NodeServer(id).InjectFaults(faultinject.Plan{Seed: int64(id) + 1}))
	}
}

// tick advances one cluster round under the mutex, late after it was
// due: the service tick, latency accounting, one autopilot step, and the
// wake of every waiting PLAY. Both the pacer and the tests drive rounds
// through here so the controller always observes completed rounds.
func (s *server) tick(late time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.wake.Broadcast()
	s.paceHist.Observe(late)
	start := time.Now()
	if err := s.cl.Tick(); err != nil {
		log.Printf("cmcluster: tick: %v", err)
	}
	elapsed := time.Since(start)
	s.tickHist.Observe(elapsed)
	if mb := s.cl.MigratedBlocks(); mb > s.lastMigrated {
		s.migrateHist.Observe(elapsed)
		s.lastMigrated = mb
	}
	a, ok, err := s.pilot.Step()
	if ok {
		log.Printf("cmcluster: autopilot: %s", a)
		s.armInjectors()
	}
	if err != nil {
		log.Printf("cmcluster: autopilot: %v", err)
	}
}

func main() {
	addr := flag.String("addr", ":9100", "listen address")
	schemeFlag := flag.String("scheme", "declustered", "per-node fault-tolerance scheme: "+strings.Join(scheme.Names(nil), ", "))
	d := flag.Int("d", 7, "disks per node")
	p := flag.Int("p", 3, "parity group size")
	nodes := flag.Int("nodes", 3, "cluster nodes (1: a single array)")
	rep := flag.Int("rep", 2, "replicas per clip")
	nclips := flag.Int("clips", 4, "synthetic clips to store")
	clipKB := flag.Int("clipkb", 256, "clip size in KB")
	speed := flag.Float64("speed", 100, "time acceleration factor")
	spares := flag.Int("spares", 1, "per-node hot spares for automatic online rebuild")
	scrub := flag.Int("scrub", -1, "per-node patrol scrub budget in verify reads per round across the node's array (0: off, -1: idle-bounded)")
	wtimeout := flag.Duration("wtimeout", 10*time.Second, "per-client write deadline")
	autopilotOn := flag.Bool("autopilot", false, "start with the closed-loop controller enabled (AUTOPILOT on|off toggles it live)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty: disabled)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	sc, err := scheme.Parse(*schemeFlag)
	if err != nil {
		log.Fatalf("cmcluster: %v", err)
	}
	geo, err := cliutil.ParseGeometry(*d, *p)
	if err != nil {
		log.Fatalf("cmcluster: %v", err)
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("cmcluster: pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	stopProfiling, err := cliutil.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatalf("cmcluster: %v", err)
	}
	defer stopProfiling()

	cfg := cluster.Config{
		Replication: *rep,
		// An empty plan arms the injector so FAIL can script node faults
		// for the detector to discover.
		Faults: &faultinject.Plan{Seed: 1},
	}
	nodeCfg := core.Config{
		Scheme:    sc,
		Disk:      diskmodel.Default(),
		D:         geo.D,
		P:         geo.P,
		Block:     64 * units.KB,
		Q:         8,
		F:         2,
		Buffer:    256 * units.MB,
		Spares:    *spares,
		ScrubRate: *scrub,
	}
	for i := 0; i < *nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, nodeCfg)
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		log.Fatalf("cmcluster: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, *clipKB*1000) // AddClip copies it into blocks
	for i := 0; i < *nclips; i++ {
		rng.Read(data)
		if err := cl.AddClip(fmt.Sprintf("clip-%d", i), data); err != nil {
			log.Fatalf("cmcluster: %v", err)
		}
	}
	s := newServer(cl, nodeCfg, *wtimeout, *autopilotOn)

	// Round pacer: every node's round duration is identical (same config),
	// so one clock drives the whole cluster. It keeps running through the
	// drain so in-flight streams finish delivery.
	interval := time.Duration(float64(cl.NodeServer(0).RoundDuration().Seconds()) / *speed * float64(time.Second))
	go s.pace(context.Background(), max(interval, time.Millisecond))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cmcluster: %v", err)
	}
	log.Printf("cmcluster: %d nodes × (%s, d=%d, p=%d, %d spares), replication %d, %d clips, listening on %s",
		*nodes, sc, geo.D, geo.P, *spares, *rep, *nclips, ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("cmcluster: %v: stopping accept, draining active streams", sig)
		s.beginShutdown(ln)
	}()

	s.acceptLoop(ln)
	if s.drain(60 * time.Second) {
		log.Printf("cmcluster: drained cleanly")
	} else {
		log.Printf("cmcluster: drain timed out, exiting with streams active")
	}
}

// maxCatchUp is how many rounds behind its schedule the pacer still runs
// back to back: a scheduling stall, not a stopped process or suspended VM.
const maxCatchUp = 64

// nextRound is the pacer's arithmetic. Round k is due at t0 + k·interval,
// wherever now is: a late round runs at once and the one after it is not
// pushed back, so none is dropped — unless the pacer is more than
// maxCatchUp rounds behind, when it re-anchors at now instead of bursting.
func nextRound(prev, now time.Time, interval time.Duration) (due time.Time, reanchored bool) {
	if due = prev.Add(interval); now.Sub(due) > maxCatchUp*interval {
		return now, true
	}
	return due, false
}

// pace runs rounds on that schedule until ctx ends (never, in main).
func (s *server) pace(ctx context.Context, interval time.Duration) {
	runtime.LockOSThread() // sleepUntil blocks the thread, not the goroutine
	defer runtime.UnlockOSThread()
	for due, behind := time.Now(), false; ctx.Err() == nil; {
		if due, behind = nextRound(due, time.Now(), interval); behind {
			log.Printf("cmcluster: pacer more than %d rounds behind: schedule re-anchored", maxCatchUp)
		}
		sleepUntil(due)
		s.tick(time.Since(due))
	}
}

// beginShutdown flips the server into draining mode, stops the accept
// loop by closing the listener and releases every PLAY waiting to start.
func (s *server) beginShutdown(ln net.Listener) {
	ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closing = true
	s.wake.Broadcast()
}

// acceptLoop serves connections until the listener closes for shutdown.
func (s *server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			log.Printf("cmcluster: accept: %v", err)
			continue
		}
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			s.handle(conn)
		}()
	}
}

// drain waits for active connection handlers to finish, up to timeout.
// It reports whether the drain completed.
func (s *server) drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.conns.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// write sends bytes to the client under the per-connection write
// deadline, so a stalled client cannot wedge the handler.
func (s *server) write(conn net.Conn, data []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	_, err := conn.Write(data)
	return err
}

func (s *server) printf(conn net.Conn, format string, args ...any) error {
	return s.write(conn, []byte(fmt.Sprintf(format, args...)))
}

// args is one command line's parsed arguments. node and disk are -1
// when the verb's synopsis has no such parameter or an optional one was
// omitted; word is the verb's free-form argument (a clip name, on|off).
type args struct {
	node, disk int
	word       string
}

// verb is one protocol command. params is the argument synopsis, which
// both renders the usage error and drives parsing: "<node>" and "<disk>"
// are integers range-checked against the live cluster, "[...]" is
// optional, "a|b" must be one of the listed words, and anything else is
// free-form. Exactly one of admin and serve is set: admin runs under
// s.mu and returns the text of an "OK ..." reply (or an error for an
// "ERR ..." one); serve writes its own reply through the connection's
// buffer and takes the lock only as it needs to.
type verb struct {
	params string
	admin  func(s *server, a args) (string, error)
	serve  func(s *server, conn net.Conn, a args, buf []byte)
}

var verbs = map[string]verb{
	"LIST":  {serve: (*server).list},
	"STATS": {serve: (*server).stats},
	"PLAY":  {params: "<clip>", serve: (*server).play},
	// Demo alias for the fault injectors: schedule a fail-stop starting
	// next round — on the whole node, or on one disk inside it. The
	// respective detector notices from probe/read errors and fails over
	// or degrades on its own.
	"FAIL": {params: "<node> [<disk>]", admin: func(s *server, a args) (string, error) {
		inj, unit, reply := s.cl.Injector(), a.node, fmt.Sprintf("node %d failed", a.node)
		if a.disk >= 0 {
			inj, unit, reply = s.inj[a.node], a.disk, fmt.Sprintf("node %d disk %d failed", a.node, a.disk)
		}
		inj.AddFailStop(faultinject.FailStop{Disk: unit, Round: inj.Round() + 1})
		return reply, nil
	}},
	// Demo alias for the silent-corruption injector: rot a burst of
	// blocks on one disk of one node starting next round. Nothing on the
	// data path is told — only that node's checksums (patrol scrub or a
	// stream read) can catch it and repair from parity.
	"CORRUPT": {params: "<node> <disk>", admin: func(s *server, a args) (string, error) {
		next := s.inj[a.node].Round() + 1
		s.inj[a.node].AddSilentCorruption(faultinject.SilentCorruption{
			Disk: a.disk, Block: -1, Rate: 1, From: next, Until: next + 1, Bits: 3,
		})
		return fmt.Sprintf("node %d disk %d corrupted", a.node, a.disk), nil
	}},
	// Join a fresh node built from the boot-time template. The migration
	// planner re-spreads replicas onto it on idle round capacity; nothing
	// else changes until clips land there.
	"JOIN": {admin: func(s *server, _ args) (string, error) {
		id, err := s.cl.JoinNode(s.nodeCfg)
		if err != nil {
			return "", err
		}
		s.armInjectors()
		return fmt.Sprintf("node %d joined view=%d", id, s.cl.ViewVersion()), nil
	}},
	"DRAIN": {params: "<node>", admin: func(s *server, a args) (string, error) {
		err := s.cl.DrainNode(a.node)
		return fmt.Sprintf("node %d draining view=%d", a.node, s.cl.ViewVersion()), err
	}},
	"REMOVE": {params: "<node>", admin: func(s *server, a args) (string, error) {
		err := s.cl.RemoveNode(a.node)
		return fmt.Sprintf("node %d removed view=%d", a.node, s.cl.ViewVersion()), err
	}},
	// Fails most commonly for want of a BIBD construction for (d+1, p).
	// The view only bumps once the re-layout flips.
	"ADDDISK": {params: "<node>", admin: func(s *server, a args) (string, error) {
		return fmt.Sprintf("node %d re-layout started", a.node), s.cl.AddDisk(a.node)
	}},
	"AUTOPILOT": {params: "on|off", admin: func(s *server, a args) (string, error) {
		s.pilot.SetEnabled(a.word == "on")
		return "autopilot " + a.word, nil
	}},
}

// parse matches a command line's arguments against the verb's synopsis.
// It is the one place usage, arity and range errors come from. Callers
// hold mu (the ranges are the live cluster's).
func (s *server) parse(name string, v verb, fields []string) (args, error) {
	a := args{node: -1, disk: -1}
	usage := func() error { return fmt.Errorf("usage: %s %s", name, v.params) }
	for i, param := range strings.Fields(v.params) {
		if i >= len(fields) {
			if strings.HasPrefix(param, "[") {
				break
			}
			return a, usage()
		}
		param = strings.Trim(param, "[]")
		switch {
		case param == "<node>" || param == "<disk>":
			n, err := strconv.Atoi(fields[i])
			if err != nil {
				return a, usage()
			}
			what, limit, dst := "node", s.cl.NodeCount(), &a.node
			if param == "<disk>" {
				what, limit, dst = "disk", s.cl.NodeServer(a.node).Disks(), &a.disk
			}
			if n < 0 || n >= limit {
				return a, fmt.Errorf("%s %d out of range [0, %d)", what, n, limit)
			}
			*dst = n
		case strings.Contains(param, "|"):
			a.word = strings.ToLower(fields[i])
			if !slices.Contains(strings.Split(param, "|"), a.word) {
				return a, usage()
			}
		default:
			a.word = fields[i]
		}
	}
	return a, nil
}

// maxCommand caps a command line; every verb fits many times over.
const maxCommand = 4 << 10

// readLine reads into buf up to the first newline and returns the line
// before it; a full buf with no newline returns n == len(buf).
func readLine(conn net.Conn, buf []byte) (line string, n int, err error) {
	for m := 0; n < len(buf) && err == nil; n += m {
		m, err = conn.Read(buf[n:])
		if i := bytes.IndexByte(buf[n:n+m], '\n'); i >= 0 {
			return string(buf[:n+i]), n + i, nil
		}
	}
	return "", n, err
}

func (s *server) handle(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	if len(s.bufs) == 0 {
		s.bufs = append(s.bufs, make([]byte, 64<<10))
	}
	buf := s.bufs[len(s.bufs)-1]
	s.bufs = s.bufs[:len(s.bufs)-1]
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.bufs = append(s.bufs, buf)
		s.mu.Unlock()
	}()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, n, err := readLine(conn, buf[:maxCommand])
	if err != nil || n == maxCommand {
		if n == maxCommand {
			s.printf(conn, "ERR command too long\n")
		}
		return
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		s.printf(conn, "ERR empty command\n")
		return
	}
	name := strings.ToUpper(fields[0])
	v, ok := verbs[name]
	if !ok {
		s.printf(conn, "ERR unknown command\n")
		return
	}
	var reply string
	s.mu.Lock()
	a, err := s.parse(name, v, fields[1:])
	if err == nil && v.admin != nil {
		reply, err = v.admin(s, a)
	}
	s.mu.Unlock()
	switch {
	case err != nil:
		s.printf(conn, "ERR %v\n", err)
	case v.admin != nil:
		s.printf(conn, "OK %s\n", reply)
	default:
		v.serve(s, conn, a, buf)
	}
}

func (s *server) list(conn net.Conn, _ args, buf []byte) {
	b := buf[:0]
	s.mu.Lock()
	for _, name := range s.cl.Clips() {
		b = fmt.Appendf(b, "%s %d nodes=%v\n", name, s.cl.ClipSize(name), s.cl.Replicas(name))
	}
	s.mu.Unlock()
	s.write(conn, b)
}

func (s *server) stats(conn net.Conn, _ args, buf []byte) {
	s.mu.Lock()
	st := s.cl.Stats()
	ticks, migs, paces := s.tickHist.String(), s.migrateHist.String(), s.paceHist.String()
	apMode := "off"
	var aps autopilot.Status
	if s.pilot.Enabled() {
		aps = s.pilot.Status()
		apMode = aps.Mode
	}
	s.mu.Unlock()
	b := fmt.Appendf(buf[:0], "round=%d nodes=%d alive=%d failed=%v active=%d awaiting_failover=%d served=%d failed_over=%d terminated=%d rejected=%d view=%d draining=%v retired=%v migrate_progress=%d/%d migrated_blocks=%d migrated_streams=%d autopilot=%s autopilot_actions=%d autopilot_cooldown=%d autopilot_last=%q autopilot_interlock=%q tick_hist=%s migrate_hist=%s pace_hist=%s\n",
		st.Round, st.Nodes, st.Alive, st.FailedNodes, st.Active, st.AwaitingFailover,
		st.Served, st.FailedOver, st.Terminated, st.Rejected,
		st.ViewVersion, st.Draining, st.Retired, st.MigrateDone, st.MigrateTotal,
		st.MigratedBlocks, st.MigratedStreams,
		apMode, aps.Actions, aps.Cooldown, aps.Last, aps.Interlock, ticks, migs, paces)
	for i, ns := range st.Node {
		b = fmt.Appendf(b, "node=%d active=%d served=%d hiccups=%d failed_disks=%v mode=%s scrub_scanned=%d scrub_total=%d scrub_cycles=%d corruptions=%d corruption_repairs=%d detect_hist=%s rebuild_hist=%s overflows=%d spares=%d rebuilding=%d rebuild_pending=%d rebuild_total=%d rebuilds_done=%d terminated=%d\n",
			i, ns.Active, ns.Served, ns.Hiccups, ns.FailedDisks, ns.Mode,
			ns.ScrubScanned, ns.ScrubTotal, ns.ScrubCycles,
			ns.CorruptionsDetected, ns.CorruptionRepairs,
			cliutil.Histogram(ns.DetectLatencies), cliutil.Histogram(ns.RebuildLatencies),
			ns.Overflows, ns.SparesLeft, ns.Rebuilding, ns.RebuildPending, ns.RebuildTotal,
			ns.RebuildsDone, ns.Terminated)
	}
	s.write(conn, b)
}

// admit opens a PLAY's stream. A cluster-wide admission reject behaves
// like the paper's pending list: admission state only changes at a round,
// so the PLAY waits for the next tick and retries, for a while — unless
// shutdown begins first, so a queued PLAY never holds up the drain.
func (s *server) admit(clip string) (*cluster.Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Graceful degradation: while the autopilot sheds, new sessions are
	// refused up front; in-flight streams and failovers keep the capacity.
	if s.pilot.Shedding() {
		return nil, errors.New("overloaded: autopilot is shedding new sessions")
	}
	for deadline := time.Now().Add(10 * time.Second); ; s.wake.Wait() {
		if s.closing {
			return nil, errors.New("shutting down")
		}
		st, err := s.cl.OpenStream(clip)
		if !errors.Is(err, core.ErrAdmission) || time.Now().After(deadline) {
			return st, err
		}
	}
}

func (s *server) play(conn net.Conn, a args, buf []byte) {
	st, err := s.admit(a.word)
	if err != nil {
		s.printf(conn, "ERR %v\n", err)
		return
	}
	for {
		s.mu.Lock()
		n, rerr := st.Read(buf)
		for n == 0 && errors.Is(rerr, core.ErrNoData) {
			s.wake.Wait() // for the next tick; also covers the parked-awaiting-failover window
			n, rerr = st.Read(buf)
		}
		s.mu.Unlock()
		if n > 0 && s.write(conn, buf[:n]) != nil {
			s.mu.Lock()
			st.Close()
			s.mu.Unlock()
			return
		}
		if errors.Is(rerr, core.ErrStreamLost) {
			// A further failure stranded the stream: tell the client why
			// instead of silently closing.
			s.printf(conn, "\nERR %v\n", rerr)
			return
		}
		if rerr != nil && !errors.Is(rerr, core.ErrNoData) {
			return // EOF or closed
		}
	}
}
