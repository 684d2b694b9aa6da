// Package cluster composes N core.Server instances — each a complete
// fault-tolerant disk array with its own scheme, parity group table and
// failure lifecycle — into one logical continuous media cluster. It
// extends the paper's single-array guarantees to node granularity:
//
//   - Placement: whole clips are sharded across nodes by capacity-aware
//     assignment (most free bytes first), with an optional replication
//     factor so hot clips live on several arrays at once.
//   - Admission: a PLAY is routed to the least-loaded replica whose own
//     per-disk admission control (q−f static caps or the §5 dynamic
//     reservation) accepts it, spilling over to other replicas before a
//     cluster-wide reject. The cluster never overrides a node's
//     controller, so no disk anywhere is ever booked past its q budget.
//   - Node failure: the health detector and fault injector are reused at
//     node granularity. When a node is declared down, in-flight streams
//     of replicated clips fail over to a surviving replica — resuming at
//     their exact byte position — and streams of unreplicated clips are
//     terminated with the existing core.ErrStreamLost semantics.
//
// Like core.Server, a Cluster is deliberately synchronous: Tick()
// advances every live node one service round and drives node-failure
// detection. Callers that share a Cluster across goroutines must
// serialize access (the cmcluster front end holds one mutex, for one
// array — cmcluster -nodes 1 — as for many).
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"ftcms/internal/core"
	"ftcms/internal/faultinject"
	"ftcms/internal/health"
	"ftcms/internal/parallel"
)

// ErrNoReplica is returned by OpenStream when no live node holds the
// clip — every replica's node is down (or the clip was never stored).
var ErrNoReplica = errors.New("cluster: no live replica holds the clip")

// ErrAdmission is wrapped into OpenStream's error when every live
// replica's admission controller refused the stream — the cluster-wide
// reject. It unwraps to core.ErrAdmission so callers retry the same way
// they would against a single array.
var ErrAdmission = core.ErrAdmission

// Config sizes a Cluster.
type Config struct {
	// Nodes configures the member arrays; one core.Server per entry.
	Nodes []core.Config
	// Replication is the default number of copies AddClip stores
	// (default 1; capped by the node count). AddClipReplicated overrides
	// it per clip.
	Replication int
	// Faults, when non-nil, scripts node-granularity fault injection:
	// the plan's Disk fields index nodes, not disks. Each Tick probes
	// the plan once per live node and feeds the outcome to the node
	// detector, so a scripted fail-stop is discovered by detection —
	// never by command — exactly like a disk inside one array.
	Faults *faultinject.Plan
	// TickWorkers is kept only because the benchmark module still sets
	// it (bench/churn.go); it goes once that module stops.
	//
	// Deprecated: ignored; Tick always fans node rounds out on the
	// parallel pool, whose width is GOMAXPROCS.
	TickWorkers int
}

// nodeState is a node's membership stage: active → draining → retired.
type nodeState int

const (
	// nodeActive: serving, placeable, probe-monitored.
	nodeActive nodeState = iota
	// nodeDraining: serving its current streams while they migrate off;
	// no new placements. Retires once empty and re-replicated.
	nodeDraining
	// nodeRetired: left the cluster permanently; never probed, never
	// rejoins.
	nodeRetired
)

// node is one member array and its record in the view. state is the
// membership (versioned); down is liveness (set by a failure, cleared by
// RejoinNode, never versioned — so a drain survives a crash); disks is
// the array width the view last recorded.
type node struct {
	id    int
	srv   *core.Server
	state nodeState
	down  bool
	disks int
}

// serving reports whether the node currently carries streams.
func (n *node) serving() bool { return !n.down && n.state != nodeRetired }

// placeable reports whether new placements and stream moves may target
// the node.
func (n *node) placeable() bool { return !n.down && n.state == nodeActive }

// draining reports a live node on its way out; one that fails mid-drain
// counts as failed until it rejoins.
func (n *node) draining() bool { return !n.down && n.state == nodeDraining }

// placeRank is the node's rank as a placement target, higher first: its
// free bytes discounted by the fraction of its array currently failed or
// rebuilding. A degraded node (one mid-rebuild, or a P+Q array absorbing
// two overlapping failures) keeps serving its streams, but new replicas
// land on whole arrays first — their contingency bandwidth is already
// spoken for.
func (n *node) placeRank() int64 {
	free := n.srv.FreeBlocks() * n.srv.BlockSize().Bytes()
	d := n.srv.Disks()
	return free * int64(d-n.srv.DegradedDisks()) / int64(d)
}

// Cluster is a set of fault-tolerant arrays behind one admission and
// placement layer.
type Cluster struct {
	nodes    []*node
	rep      int
	detector *health.Detector
	injector *faultinject.Injector

	// clips holds every stored clip's one record, so an open looks its
	// name up once.
	clips map[string]*clipRecord

	// streams holds the open streams in no particular order; each knows
	// its index, so finish and Close remove it in O(1) by swapping the
	// last entry in.
	streams []*Stream
	nextID  int
	round   int64
	// cands is candidates' result buffer. Its callers only call into
	// core, which never calls back, so one buffer serves every route.
	cands []*node
	// live is the per-Tick scratch list of live nodes, reused so the
	// steady-state tick allocates nothing beyond the pool's fan-out.
	live []*node
	// tickFn is the per-node round body handed to parallel.ForEach,
	// built once in New: a fresh closure every Tick would be the round's
	// only heap allocation.
	tickFn func(i int) error

	// pendingFailover holds streams whose node died and whose replicas
	// had no admission capacity yet; retried every Tick.
	pendingFailover []*Stream

	// stats holds the cluster's own counters; Stats returns a copy of it
	// with the derived fields and every node's Stats filled in.
	stats Stats
	// nodeLosses counts nodeFailed transitions, cumulatively — a node
	// that later rejoins still counted. The autopilot replaces each
	// loss once; a rejoin after a replacement just leaves surplus
	// capacity for scale-in to reclaim.
	nodeLosses int

	// Online reconfiguration (reconfig.go in this package).
	// version is the view: the node records are its members, and bump
	// advances it on every membership or width change.
	version int64
	// jobs is the FIFO of in-flight clip re-replications, at most one
	// per clip (clipRecord.migrating).
	jobs []*migrateJob
	// planDirty marks that membership or placement changed and
	// planRepairs must re-derive the job set.
	planDirty bool
}

// clipRecord is everything the cluster knows about one stored clip.
type clipRecord struct {
	// reps lists the node ids holding a replica, in placement order.
	reps []int
	// size is the payload size in bytes.
	size int64
	// desired is the requested replica count, so repairs know what
	// drain/remove must restore.
	desired int
	// migrating marks the clip's one in-flight re-replication job.
	migrating bool
	// refused is the clip's last cluster-wide refusal, reused while the
	// live replica count it names holds: a churning cluster refuses
	// often.
	refused *refusedError
}

// Stats reports cluster-level counters plus every node's own Stats.
type Stats struct {
	// Round is the number of completed cluster rounds.
	Round int64
	// Nodes and Alive count configured and live nodes.
	Nodes, Alive int
	// FailedNodes lists the down node ids.
	FailedNodes []int
	// Active is the number of open cluster streams (including streams
	// parked awaiting failover re-admission).
	Active int
	// AwaitingFailover counts parked streams currently without a node.
	AwaitingFailover int
	// Served counts cluster streams that completed playback.
	Served int
	// FailedOver counts successful stream failovers to a replica.
	FailedOver int
	// Terminated counts streams ended with ErrStreamLost because no
	// replica could take them over.
	Terminated int
	// Rejected counts cluster-wide admission rejects (every live
	// replica's controller refused).
	Rejected int
	// ViewVersion is the current reconfiguration view version.
	ViewVersion int64
	// Draining and Retired list node ids in those lifecycle states.
	Draining, Retired []int
	// MigrateJobs counts in-flight clip re-replications; MigrateDone and
	// MigrateTotal are the cumulative completed/planned job counts.
	MigrateJobs, MigrateDone, MigrateTotal int
	// MigratedBlocks counts clip blocks copied between nodes by the
	// migration engine; MigratedStreams counts streams moved gracefully
	// off draining nodes.
	MigratedBlocks  int64
	MigratedStreams int
	// Node holds each node's core.Stats, index-aligned with node ids.
	// Down nodes report their last state.
	Node []core.Stats
}

// New builds the cluster and its member servers.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: need at least one node")
	}
	rep := cfg.Replication
	if rep < 1 {
		rep = 1
	}
	if rep > len(cfg.Nodes) {
		return nil, fmt.Errorf("cluster: replication %d exceeds %d nodes", rep, len(cfg.Nodes))
	}
	c := &Cluster{
		rep:   rep,
		clips: make(map[string]*clipRecord),
	}
	for i, nc := range cfg.Nodes {
		srv, err := core.New(nc)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, &node{id: i, srv: srv, disks: srv.Disks()})
	}
	c.tickFn = func(i int) error {
		n := c.live[i]
		if terr := n.srv.Tick(); terr != nil {
			return fmt.Errorf("cluster: node %d: %w", n.id, terr)
		}
		return nil
	}
	c.detector = health.NewDetector(len(cfg.Nodes), health.Config{})
	c.detector.SetOnFail(c.nodeFailed)
	if cfg.Faults != nil {
		c.injector = faultinject.New(*cfg.Faults)
	}
	return c, nil
}

// NodeCount returns the number of configured nodes.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// NodeServer exposes one member array for inspection (tests audit each
// node's admission invariant through it).
func (c *Cluster) NodeServer(i int) *core.Server { return c.nodes[i].srv }

// MigratedBlocks returns the cumulative count of clip blocks copied
// between nodes by the migration engine — cheap enough for a per-tick
// poll (Stats allocates; this does not).
func (c *Cluster) MigratedBlocks() int64 { return c.stats.MigratedBlocks }

// Injector exposes the node-fault injector (nil unless Config.Faults was
// set). Front ends use it to schedule node faults that detection then
// discovers.
func (c *Cluster) Injector() *faultinject.Injector { return c.injector }

// Replicas returns the node ids holding the clip, in placement order
// (nil for unknown clips).
func (c *Cluster) Replicas(name string) []int {
	if rec, ok := c.clips[name]; ok && len(rec.reps) > 0 {
		return slices.Clone(rec.reps)
	}
	return nil
}

// AddClip stores a clip on Replication nodes chosen capacity-aware.
func (c *Cluster) AddClip(name string, data []byte) error {
	return c.AddClipReplicated(name, data, c.rep)
}

// AddClipReplicated stores a clip on exactly replicas live nodes, chosen
// by descending placeRank (ties to the lower node id). A clip that
// cannot get all its replicas stored is rejected whole.
func (c *Cluster) AddClipReplicated(name string, data []byte, replicas int) error {
	if _, dup := c.clips[name]; dup {
		return fmt.Errorf("cluster: clip %q already stored", name)
	}
	if replicas < 1 || replicas > len(c.nodes) {
		return fmt.Errorf("cluster: replication %d out of range [1, %d]", replicas, len(c.nodes))
	}
	// Candidates: active nodes only (draining nodes take no new
	// placements — they are on their way out), highest rank first.
	cands := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.placeable() {
			cands = append(cands, n)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].placeRank() > cands[b].placeRank() })
	var placed []int
	for _, n := range cands {
		if len(placed) == replicas {
			break
		}
		if err := n.srv.AddClip(name, data); err != nil {
			continue // this node is full (or too fragmented); try the next
		}
		placed = append(placed, n.id)
	}
	if len(placed) < replicas {
		// No rollback: core has no clip removal, and a partially placed
		// name must not linger. Refuse loudly instead.
		if len(placed) > 0 {
			return fmt.Errorf("cluster: clip %q placed on only %d of %d replicas (cluster nearly full); refusing partial placement", name, len(placed), replicas)
		}
		return fmt.Errorf("cluster: no node can store clip %q (%d bytes)", name, len(data))
	}
	c.clips[name] = &clipRecord{reps: placed, size: int64(len(data)), desired: replicas}
	return nil
}

// Clips returns every stored clip name in sorted order.
func (c *Cluster) Clips() []string {
	out := make([]string, 0, len(c.clips))
	for name := range c.clips {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ClipSize returns a clip's payload size in bytes, or -1 when unknown.
func (c *Cluster) ClipSize(name string) int64 {
	if rec, ok := c.clips[name]; ok {
		return rec.size
	}
	return -1
}

// candidates returns the serving nodes among reps, active replicas
// first (each tier ordered by current stream load ascending, ties in
// placement order), optionally skipping one node id. Draining
// replicas trail as a last resort: a stream never dies while any
// serving replica exists, but new routes prefer nodes that are staying.
// The result is c.cands, valid until the next call.
func (c *Cluster) candidates(reps []int, skip int) []*node {
	out := c.cands[:0]
	for _, draining := range [2]bool{false, true} {
		tier := len(out)
		for _, id := range reps {
			n := c.nodes[id]
			if !n.serving() || n.id == skip || n.draining() != draining {
				continue
			}
			// Insertion sort: the strict < keeps equal loads in placement
			// order.
			i := len(out)
			out = append(out, n)
			for ; i > tier && n.srv.ActiveStreams() < out[i-1].srv.ActiveStreams(); i-- {
				out[i] = out[i-1]
			}
			out[i] = n
		}
	}
	c.cands = out
	return out
}

// OpenStream routes a PLAY to a replica whose own admission control
// accepts it, least-loaded first with spillover. When every live
// replica refuses, the error wraps core.ErrAdmission (retry later); when
// no live replica exists at all it is ErrNoReplica.
func (c *Cluster) OpenStream(name string) (*Stream, error) {
	rec, ok := c.clips[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown clip %q", name)
	}
	cands := c.candidates(rec.reps, -1)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoReplica, name)
	}
	for _, n := range cands {
		cs, err := n.srv.OpenStream(name)
		if err == nil {
			st := &Stream{
				c:    c,
				id:   c.nextID,
				clip: name,
				size: rec.size,
				node: n.id,
				st:   cs,
				idx:  len(c.streams),
			}
			c.nextID++
			c.streams = append(c.streams, st)
			return st, nil
		}
		if !errors.Is(err, core.ErrAdmission) {
			return nil, err
		}
	}
	c.stats.Rejected++
	if rec.refused == nil || rec.refused.replicas != len(cands) {
		rec.refused = &refusedError{replicas: len(cands), clip: name}
	}
	return nil, rec.refused
}

// refusedError is OpenStream's refusal by every live replica: its text is
// built only when read.
type refusedError struct {
	replicas int
	clip     string
}

func (e *refusedError) Error() string {
	return fmt.Sprintf("cluster: all %d live replicas of %q refused: %v", e.replicas, e.clip, core.ErrAdmission)
}

func (e *refusedError) Unwrap() error { return core.ErrAdmission }

// Tick advances one cluster round: node-fault probes feed the detector,
// every live node runs one service round, and parked failovers retry
// admission. Tick itself errors only on programming bugs.
func (c *Cluster) Tick() error {
	c.round++
	if c.injector != nil {
		c.injector.SetRound(c.round)
		// Probe each serving node once per round: a scripted node fault
		// is discovered here by detection, mirroring how a disk fault
		// inside an array is discovered by its own reads. Retired nodes
		// are deregistered from the detector, so even a stale scripted
		// fault against one can never fire a spurious failover.
		for _, n := range c.nodes {
			if !n.serving() {
				continue
			}
			slow, err := c.injector.Hook(n.id, 0)
			c.detector.Observe(n.id, slow, err)
		}
	}
	// Nodes are independent arrays (own engine, detector, buffers); their
	// rounds fan out on the pool, each on the one goroutine that ticks it,
	// so the result is the same at any GOMAXPROCS. ForEach reports the
	// lowest-index failure, matching the sequential loop's
	// first-error-wins.
	c.live = c.live[:0]
	for _, n := range c.nodes {
		if n.serving() {
			c.live = append(c.live, n)
		}
	}
	if err := parallel.ForEach(len(c.live), c.tickFn); err != nil {
		return err
	}
	c.retryFailovers()
	return c.reconfigStep()
}

// FailNode kills a node by operator command — the path the detector
// normally triggers by itself. Idempotent.
func (c *Cluster) FailNode(i int) error {
	if _, err := c.member(i); err != nil {
		return err
	}
	c.nodeFailed(i)
	return nil
}

// nodeFailed, the detector's OnFail callback, marks the node down and
// evacuates its streams. A node that dies mid-drain takes this path
// too — its membership stays draining, and the repair planner
// re-replicates around the loss.
func (c *Cluster) nodeFailed(i int) {
	n := c.nodes[i]
	if !n.serving() {
		return
	}
	n.down = true
	c.nodeLosses++
	c.planDirty = true
	c.evacuate(i)
}

// evacuate takes every stream off node i, which no longer serves, in
// stream-id order: replicated clips fail over (or park for retry),
// unreplicated ones terminate with ErrStreamLost.
func (c *Cluster) evacuate(i int) {
	for _, st := range c.streamsWhere(func(st *Stream) bool { return st.node == i }) {
		// The node is gone; its core stream with it. Close releases the
		// dead server's bookkeeping (harmless) and guards against reuse.
		st.st.Close()
		st.st = nil
		c.failover(st)
	}
}

// streamsWhere returns the streams that hold a core stream and satisfy
// keep, in id order, so node evacuation and drain moves are
// deterministic although removals reorder c.streams.
func (c *Cluster) streamsWhere(keep func(*Stream) bool) []*Stream {
	var out []*Stream
	for _, st := range c.streams {
		if st.st != nil && keep(st) {
			out = append(out, st)
		}
	}
	slices.SortFunc(out, func(a, b *Stream) int { return cmp.Compare(a.id, b.id) })
	return out
}

// RejoinNode brings a failed node back with its stored clips intact (a
// process restart over persistent disks). Detection state and any
// scripted faults against the node are cleared; new placements and
// routes include it again. Streams do not fail back. A node that was
// draining when it died resumes draining — only its liveness changed.
// Retired nodes never rejoin.
func (c *Cluster) RejoinNode(i int) error {
	n, err := c.member(i)
	switch {
	case err != nil:
		return err
	case n.state == nodeRetired:
		return fmt.Errorf("cluster: node %d is retired and cannot rejoin", i)
	case !n.down:
		return nil
	}
	n.down = false
	c.planDirty = true
	c.detector.Reset(i)
	if c.injector != nil {
		c.injector.ClearDisk(i)
	}
	return nil
}

// failover moves a nodeless stream to a surviving replica, resuming at
// its exact delivered byte offset. With replicas but no admission
// capacity the stream parks for retry next Tick; with no replicas it
// terminates with ErrStreamLost.
func (c *Cluster) failover(st *Stream) {
	if st.closed || st.err != nil {
		return
	}
	if st.offset >= st.size {
		// Everything was already handed to the reader; nothing to move.
		c.finish(st)
		return
	}
	cands := c.candidates(c.clips[st.clip].reps, st.node)
	if len(cands) == 0 {
		how, cause := "down", error(core.ErrStreamLost)
		if st.lost != nil {
			how, cause = "lost the stream", st.lost
		}
		st.err = fmt.Errorf("cluster: node %d %s and clip %q has no other live replica: %w", st.node, how, st.clip, cause)
		c.stats.Terminated++
		c.unregister(st)
		return
	}
	for _, n := range cands {
		cs, err := n.srv.OpenStreamAt(st.clip, st.offset)
		if errors.Is(err, core.ErrAdmission) {
			continue
		}
		if err != nil {
			st.err = fmt.Errorf("cluster: failover of %q to node %d: %v: %w", st.clip, n.id, err, core.ErrStreamLost)
			c.stats.Terminated++
			c.unregister(st)
			return
		}
		st.node, st.st, st.lost = n.id, cs, nil
		c.stats.FailedOver++
		return
	}
	// Replicas exist but are full right now: park and retry each round.
	c.pendingFailover = append(c.pendingFailover, st)
}

// retryFailovers re-attempts admission for parked streams.
func (c *Cluster) retryFailovers() {
	if len(c.pendingFailover) == 0 {
		return
	}
	parked := c.pendingFailover
	c.pendingFailover = nil
	for _, st := range parked {
		if st.closed || st.err != nil {
			continue
		}
		c.failover(st) // re-parks itself if still refused
	}
}

// finish retires a stream that delivered its whole clip.
func (c *Cluster) finish(st *Stream) {
	if c.unregister(st) {
		c.stats.Served++
	}
}

// unregister removes st from c.streams, moving the last entry into its
// place, and reports whether it was there.
func (c *Cluster) unregister(st *Stream) bool {
	if st.idx < 0 {
		return false
	}
	k := len(c.streams) - 1
	last := c.streams[k]
	c.streams[st.idx], last.idx = last, st.idx
	c.streams[k] = nil
	c.streams, st.idx = c.streams[:k], -1
	return true
}

// Stats returns the cluster's counters and every node's Stats.
func (c *Cluster) Stats() Stats {
	st := c.stats
	st.Round, st.Nodes, st.Active = c.round, len(c.nodes), len(c.streams)
	st.ViewVersion, st.MigrateJobs = c.version, len(c.jobs)
	for _, n := range c.nodes {
		switch {
		case n.state == nodeRetired:
			st.Retired = append(st.Retired, n.id)
		case n.down:
			st.FailedNodes = append(st.FailedNodes, n.id)
		case n.state == nodeDraining:
			st.Alive++
			st.Draining = append(st.Draining, n.id)
		default:
			st.Alive++
		}
		st.Node = append(st.Node, n.srv.Stats())
	}
	for _, s := range c.streams {
		if s.st == nil {
			st.AwaitingFailover++
		}
	}
	return st
}
