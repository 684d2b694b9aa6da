package sim

// The simulator's one round loop and its control plane: n nodes (engine,
// sim.go) behind one pending list, placement and admission layer. Clips
// are placed round-robin with a replication factor; a request is routed
// to the least-loaded live replica whose own admission controller accepts
// it; a scripted node failure moves the victim's in-flight streams to
// surviving replicas when their controllers have room and counts them
// lost otherwise. A single array is the n = 1 case: one replica, nothing
// to fail over to, no membership to change — Run is this loop with one
// node whose per-disk scripts are live.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"ftcms/internal/admission"
	"ftcms/internal/analytic"
	"ftcms/internal/autopilot"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// ClusterConfig describes one multi-node simulation run.
type ClusterConfig struct {
	// Node is the per-node template: scheme, disk model, geometry, buffer
	// and catalog, plus the cluster-level workload knobs (ArrivalRate or
	// Source, Duration, Seed, QueueBypass). Node.Trace is ignored —
	// failures happen at node granularity via NodeTrace.
	Node Config
	// Nodes is the cluster size.
	Nodes int
	// Replication is how many nodes hold each clip (1 ≤ Replication ≤
	// Nodes). Clip i lives on nodes (i+k) mod Nodes for k < Replication.
	Replication int
	// NodeTrace scripts node failures, reusing FailureEvent with Disk
	// indexing nodes. Rebuild=true models a fast process restart: the
	// node's in-flight streams still fail over or die, but the node
	// rejoins empty from the next round; Rebuild=false keeps it down for
	// the rest of the run.
	NodeTrace []FailureEvent
	// ViewTrace scripts elastic reconfiguration events (join, drain,
	// adddisk), mirroring NodeTrace. Joined nodes take the next node id
	// and, once live, absorb admissions for any clip (modeling the
	// cluster's background re-replication onto them). Draining nodes
	// take no new streams; their in-flight streams move to active
	// replicas as admission allows, and the node retires once empty.
	// AddDisk grants the node one disk's worth of extra admission slots
	// after a re-layout delay of one clip's playback time — a coarse
	// stand-in for the online PGT re-layout the real cluster runs.
	ViewTrace []ViewEvent
	// Autopilot runs the closed-loop policy controller: one Observe per
	// round over the engine's own deterministic signals, with actions
	// applied through the same join/drain machinery the ViewTrace uses.
	// Its floor is the original membership (the replication floor).
	Autopilot bool
}

// ViewEvent is one scripted reconfiguration action in a ViewTrace.
type ViewEvent struct {
	// Kind is "join", "drain" or "adddisk".
	Kind string
	// Node is the target node for drain and adddisk; ignored for join
	// (the new node takes the next id).
	Node int
	// At is the simulated time the event fires.
	At units.Duration
}

// NodeResult is one node's share of a cluster run.
type NodeResult struct {
	// Serviced counts streams admitted on the node (including failovers
	// routed to it).
	Serviced int
	// Completed counts streams that finished on the node.
	Completed int
	// FailedOverIn counts failover streams the node absorbed.
	FailedOverIn int
	// FailRound is the round the node failed (-1 if it never did; the
	// last failure when it restarted and failed again).
	FailRound int64
	// DrainRound and RetiredRound bracket the node's graceful leave
	// (-1 when it never drained / never finished draining).
	DrainRound, RetiredRound int64
}

// ClusterResult carries a cluster run's metrics.
type ClusterResult struct {
	// Result aggregates service across the cluster as it does for one
	// array (failovers are not re-counted in Serviced; PeakActive counts
	// live nodes' streams); Block, Q and F echo the per-node operating
	// point, and timeline buckets carry per-node active counts and the
	// view version. Its per-disk failure fields stay zero: cluster nodes
	// run no disk scripts.
	Result
	// Shed counts new lean-back requests the autopilot's degradation
	// mode turned away at arrival. Shed requests never enter the
	// pending queue, so Rejected and Shed partition the lost demand —
	// a session is never counted in both.
	Shed int
	// Actions is the autopilot's decision trace in firing order (nil
	// without the Autopilot).
	Actions []autopilot.Action
	// NodeFailures counts scripted node failures that took effect.
	NodeFailures int
	// FailedOver counts in-flight streams moved to a surviving replica.
	FailedOver int
	// LostStreams counts in-flight streams that died with their node.
	// With a Patience bound, a stream that cannot fail over at the
	// failure instant parks and retries each round — ahead of new
	// admissions — mirroring the real cluster tier's parked-failover
	// retry; it is lost only when it cannot land within Patience (or by
	// run end). Without Patience, no admission room at the instant
	// means lost, as before.
	LostStreams int
	// Joins, Drains and DiskAdds count applied ViewTrace events; Retired
	// counts drains that completed (the node emptied) inside the window.
	Joins, Drains, DiskAdds, Retired int
	// MigratedStreams counts streams moved gracefully off draining
	// nodes (never dropped: a stream that cannot move keeps playing on
	// the drainer).
	MigratedStreams int
	// ViewVersion is the final membership view version: one bump per
	// observable transition (join, drain, retirement, re-layout flip).
	ViewVersion int64
	// PerNode holds each node's share, index-aligned with node ids.
	PerNode []NodeResult
}

// RunCluster executes a multi-node simulation: the round loop over
// cfg.Nodes nodes with their failure traces cleared — single-disk
// failures are node internals this tier does not model.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	cfg.Node.Trace = nil
	return simulate(cfg)
}

// simulate is the simulator's round loop. A round feeds arrivals,
// completes finished streams, lets impatient requests abandon, retries
// parked failovers, admits from the pending list, runs every node's
// disk-level accounting, applies node failures and membership changes,
// consults the autopilot and closes timeline buckets.
func simulate(cfg ClusterConfig) (ClusterResult, error) {
	r, err := newRun(cfg)
	if err != nil {
		return ClusterResult{}, err
	}
	totalRounds := int64(float64(cfg.Node.Duration)/float64(r.roundDur)) + 1
	for now := int64(0); now < totalRounds; now++ {
		r.now = now
		r.tStart = units.Duration(now) * r.roundDur
		r.tEnd = units.Duration(now+1) * r.roundDur
		r.arrive()
		r.complete()
		r.abandon()
		r.retryParked()
		r.admit()
		for _, e := range r.nodes {
			e.failureStep(now)
		}
		r.failNodes()
		if err := r.applyViewEvents(); err != nil {
			return ClusterResult{}, err
		}
		r.flipRelayouts()
		r.drain()
		if err := r.autopilot(); err != nil {
			return ClusterResult{}, err
		}
		act, perNode := r.gauges()
		r.tl.roll(r.tEnd, act, r.queue.Len(), r.viewVersion, perNode)
	}
	return r.finish(totalRounds), nil
}

// Membership roles of a node.
const (
	roleActive = iota
	// roleDraining: serving but closed to new admissions; retires
	// (alive=false) once its last stream moves or completes.
	roleDraining
	roleRetired
)

// parkedStream is an in-flight stream whose node died with no replica
// room at the instant. With a Patience bound it retries each round (the
// viewer waits, interrupted) until it lands or gives up; without one,
// failure-time refusal is an immediate loss.
type parkedStream struct {
	clipID    int
	remaining int64
	since     int64
}

// run is one simulation's control plane — the pending list, placement
// and membership in front of the nodes — plus the state of the round in
// progress. Its step methods are simulate's round, in call order.
type run struct {
	cfg ClusterConfig // Replication clamped to >= 1
	op  analytic.Result
	res ClusterResult

	nodes []*engine
	alive []bool
	role  []int
	// roundDur and clipRounds are the nodes' common round duration and
	// whole-clip playback length.
	roundDur   units.Duration
	clipRounds int64

	feed        *feeder
	tl          *timeline
	queue       admission.Queue[pending]
	responseSum units.Duration
	responses   []units.Duration

	// Scripted node failures and view events in time order, and the
	// failover streams waiting for room.
	events    []FailureEvent
	nextEvent int
	views     []ViewEvent
	nextView  int
	parked    []parkedStream
	// relayoutAt maps a node mid-AddDisk to the round its wider array
	// goes live; viewVersion bumps on every observable transition.
	relayoutAt  map[int]int64
	viewVersion int64

	// pilot is the closed-loop controller (nil on open-loop runs);
	// perNodeCap is one node's stream capacity, pilotReserve the slots
	// held back for failovers while shedding, nodeLosses the permanent
	// node losses it may replace.
	pilot        *autopilot.Controller
	perNodeCap   int
	pilotReserve int
	nodeLosses   int

	// The round in progress: its clock, whether the autopilot is
	// shedding, how many requests abandoned, and the live stream count
	// after admission.
	now          int64
	tStart, tEnd units.Duration
	shedding     bool
	abandoned    int
	active       int

	// Scratch reused across rounds.
	cand         []int
	candDraining []int
	nodeActive   []int
}

// newRun validates the configuration and builds the run: operating
// point, nodes, ordered traces, arrival feeder, timeline and autopilot.
func newRun(cfg ClusterConfig) (*run, error) {
	nc := &cfg.Node
	if cfg.Nodes < 1 {
		return nil, errors.New("sim: cluster needs at least one node")
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > cfg.Nodes {
		return nil, fmt.Errorf("sim: replication %d exceeds %d nodes", cfg.Replication, cfg.Nodes)
	}
	if nc.Catalog == nil || nc.Catalog.Len() == 0 {
		return nil, errors.New("sim: empty catalog")
	}
	if nc.Duration <= 0 {
		return nil, errors.New("sim: need positive duration")
	}
	if nc.ArrivalRate <= 0 && nc.Source == nil {
		return nil, errors.New("sim: need a positive arrival rate or an arrival source")
	}
	if nc.D < 2 {
		return nil, errors.New("sim: need at least 2 disks per node")
	}
	events, err := orderedTrace(cfg.NodeTrace, "node", cfg.Nodes)
	if err != nil {
		return nil, err
	}
	for _, ev := range cfg.ViewTrace {
		switch ev.Kind {
		case "join":
		case "drain", "adddisk":
			if ev.Node < 0 {
				return nil, fmt.Errorf("sim: view trace: negative node %d", ev.Node)
			}
		default:
			return nil, fmt.Errorf("sim: view trace: unknown kind %q", ev.Kind)
		}
		if ev.At < 0 {
			return nil, fmt.Errorf("sim: view trace: negative event time %v", ev.At)
		}
	}
	if !Models(nc.Scheme) {
		return nil, fmt.Errorf("sim: scheme %v not modelled (want one of %s)", nc.Scheme, strings.Join(scheme.Names(Models), ", "))
	}
	op, err := analytic.Solve(analytic.Config{
		Disk:    nc.Disk,
		D:       nc.D,
		Buffer:  nc.Buffer,
		Storage: nc.Catalog.TotalSize(),
	}, nc.Scheme, nc.P)
	if err != nil {
		return nil, fmt.Errorf("sim: operating point: %w", err)
	}

	r := &run{
		cfg:        cfg,
		op:         op,
		events:     events,
		views:      slices.Clone(cfg.ViewTrace),
		relayoutAt: map[int]int64{},
	}
	sort.SliceStable(r.views, func(a, b int) bool { return r.views[a].At < r.views[b].At })
	r.res.Block, r.res.Q, r.res.F = op.Block, op.Q, op.F
	for len(r.nodes) < cfg.Nodes {
		if err := r.addNode(); err != nil {
			return nil, err
		}
	}
	r.roundDur, r.clipRounds = r.nodes[0].roundDur, r.nodes[0].clipRounds
	if r.feed, err = newFeeder(nc, nc.Seed+1); err != nil {
		return nil, err
	}
	if r.tl, err = newTimeline(nc.Timeline); err != nil {
		return nil, err
	}
	switch {
	case nc.QueueBypass > 0:
		r.queue.Bypass = nc.QueueBypass
	case nc.QueueBypass == 0:
		r.queue.Bypass = 256
	default:
		r.queue.Bypass = 0 // strict head-of-line
	}
	if cfg.Autopilot {
		// Never drain below the original membership: the fixed
		// round-robin placement needs every original node.
		r.pilot = autopilot.New(cfg.Nodes)
		r.perNodeCap = (op.Q - op.F) * nc.D
		// While shedding, hold slots back from new admissions so an
		// overloaded cluster can still fail a lost node's streams over
		// instead of dropping them — the paper's contingency capacity
		// raised to cluster granularity. One node's capacity is not
		// enough: least-loaded routing spreads the reserve evenly across
		// all active nodes, but a loss can only fail over to its clips'
		// replica nodes plus the joined spillover nodes, and each node's
		// share is further fragmented across per-disk position classes.
		// Three nodes' worth keeps the reachable, class-diverse share
		// above one (full) node's stream count.
		r.pilotReserve = 3 * r.perNodeCap
	}
	return r, nil
}

// addNode builds the next node from the template: at start-up, and for
// a scripted join, an autopilot scale-out or a spare replacement. Seeds
// are decorrelated so each node draws its own clip start positions.
func (r *run) addNode() error {
	c := r.cfg.Node
	c.Seed += int64(len(r.nodes)) * 7919
	e, err := newEngine(c, r.op, &r.res.Result)
	if err != nil {
		return err
	}
	r.nodes = append(r.nodes, e)
	r.alive = append(r.alive, true)
	r.role = append(r.role, roleActive)
	// Scratch grows with the membership, so the round never reallocates it.
	r.cand = append(r.cand, 0)
	r.candDraining = append(r.candDraining, 0)
	r.res.PerNode = append(r.res.PerNode, NodeResult{FailRound: -1, DrainRound: -1, RetiredRound: -1})
	return nil
}

// join adds a fresh node under the next id. Joined nodes never enter the
// round-robin placement, which is fixed at the original membership; they
// absorb admissions for any clip as spillover candidates (the cluster
// re-replicates onto them in the background).
func (r *run) join() error {
	if err := r.addNode(); err != nil {
		return err
	}
	r.res.Joins++
	r.viewVersion++
	return nil
}

// startDrain closes a node to new admissions; one that is unknown, down,
// already draining or retired is left alone.
func (r *run) startDrain(id int) {
	if id >= len(r.nodes) || !r.alive[id] || r.role[id] != roleActive {
		return
	}
	r.role[id] = roleDraining
	r.res.Drains++
	r.res.PerNode[id].DrainRound = r.now
	r.viewVersion++
}

// candidates orders the clip's serving nodes by active-stream load:
// active replicas and joined spillover nodes first, draining replicas as
// a last resort — mirroring internal/cluster's routing. It returns the
// run's scratch slice, valid until the next call, and how many of its
// leading entries are active nodes.
func (r *run) candidates(clipID int) (ids []int, nactive int) {
	ids, draining := r.cand[:0], r.candDraining[:0]
	id := clipID % r.cfg.Nodes
	for k := 0; k < r.cfg.Replication; k++ {
		switch {
		case !r.alive[id]:
		case r.role[id] == roleDraining:
			draining = r.insertByLoad(draining, id)
		default:
			ids = r.insertByLoad(ids, id)
		}
		if id++; id == r.cfg.Nodes {
			id = 0
		}
	}
	for id := r.cfg.Nodes; id < len(r.nodes); id++ {
		if r.alive[id] && r.role[id] == roleActive {
			ids = r.insertByLoad(ids, id)
		}
	}
	nactive = len(ids)
	return append(ids, draining...), nactive
}

// insertByLoad appends id to ids keeping them ordered by active-stream
// load, equal loads in insertion order.
func (r *run) insertByLoad(ids []int, id int) []int {
	ids = append(ids, id)
	for j := len(ids) - 1; j > 0 && r.nodes[ids[j]].nactive < r.nodes[ids[j-1]].nactive; j-- {
		ids[j], ids[j-1] = ids[j-1], ids[j]
	}
	return ids
}

// place books rounds rounds of clipID on the first candidate whose own
// admission accepts it — active nodes only when activeOnly — and returns
// that node, or -1 when none has room.
func (r *run) place(clipID int, rounds int64, activeOnly bool) int {
	if r.cfg.Replication == 1 && len(r.nodes) == r.cfg.Nodes {
		// One replica and no spillover nodes — every single array: the
		// lone candidate needs no list and no ordering. Most attempts of
		// a saturated round are refused, so this keeps a refusal as cheap
		// as the node's own.
		id := clipID % r.cfg.Nodes
		if r.alive[id] && (r.role[id] == roleActive || !activeOnly) && r.nodes[id].admit(clipID, r.now, rounds) {
			return id
		}
		return -1
	}
	ids, nactive := r.candidates(clipID)
	if activeOnly {
		ids = ids[:nactive]
	}
	for _, id := range ids {
		if r.nodes[id].admit(clipID, r.now, rounds) {
			return id
		}
	}
	return -1
}

// failover moves an interrupted stream's remaining rounds to a surviving
// candidate and reports whether one had room.
func (r *run) failover(clipID int, remaining int64) bool {
	id := r.place(clipID, remaining, false)
	if id < 0 {
		return false
	}
	r.res.FailedOver++
	r.res.PerNode[id].FailedOverIn++
	return true
}

// arrive enqueues the arrivals up to the end of this round. Under the
// autopilot's degradation mode, new lean-back sessions (whole-clip plays)
// are turned away at the door while VCR resumes — viewers already
// mid-session — still queue. Shed requests never enter the queue, so
// they can never also be counted as patience abandonments.
func (r *run) arrive() {
	r.shedding = r.pilot != nil && r.pilot.Shedding()
	r.tl.cur.Offered += r.feed.feed(r.tEnd, func(req workload.Request) {
		if r.shedding && (req.Frac <= 0 || req.Frac >= 1) {
			r.res.Shed++
			r.tl.cur.Shed++
			return
		}
		r.queue.Push(pending{arrival: req.Arrival, clipID: req.ClipID, frac: req.Frac})
	})
	r.res.MaxQueue = max(r.res.MaxQueue, r.queue.Len())
}

// complete finishes the streams whose playback ends this round, on every
// live node in node order.
func (r *run) complete() {
	for i, e := range r.nodes {
		if !r.alive[i] {
			continue
		}
		n := e.complete(r.now)
		r.res.Completed += n
		r.res.PerNode[i].Completed += n
	}
}

// abandon removes pending requests whose patience ran out, before this
// round's admissions.
func (r *run) abandon() {
	r.abandoned = 0
	if patience := r.cfg.Node.Patience; patience > 0 {
		cut := r.tStart - patience
		r.abandoned = r.queue.ExpireHead(func(pd pending) bool { return pd.arrival < cut })
		r.res.Rejected += r.abandoned
		r.tl.cur.Rejected += r.abandoned
	}
}

// retryParked retries parked failover streams ahead of new admissions:
// interrupted viewers outrank arrivals, and under the autopilot they land
// in the failover reserve. A stream parked longer than Patience is lost —
// its viewer gave up.
func (r *run) retryParked() {
	kept := r.parked[:0]
	for _, p := range r.parked {
		switch {
		case r.failover(p.clipID, p.remaining):
		case units.Duration(p.since)*r.roundDur < r.tStart-r.cfg.Node.Patience:
			r.res.LostStreams++
		default:
			kept = append(kept, p)
		}
	}
	r.parked = kept
}

// admit serves the pending list: a request goes to the least-loaded live
// replica, spills over to the rest, and stays queued otherwise.
// While the autopilot sheds, new admissions stop short of full capacity
// so the failover reserve stays free for a node loss.
func (r *run) admit() {
	reserve := r.shedding && r.pilotReserve > 0
	free := 0
	if reserve {
		for id, e := range r.nodes {
			if r.alive[id] && r.role[id] == roleActive {
				free += r.perNodeCap - e.nactive
			}
		}
	}
	r.queue.Drain(func(pd pending) bool {
		if reserve && free <= r.pilotReserve {
			return false
		}
		id := r.place(pd.clipID, streamRounds(r.clipRounds, pd.frac), false)
		if id < 0 {
			return false
		}
		free--
		r.res.PerNode[id].Serviced++
		r.tl.cur.Admitted++
		r.res.Serviced++
		resp := units.Duration(r.now)*r.roundDur - pd.arrival
		r.responseSum += resp
		r.responses = append(r.responses, resp)
		return true
	})
	r.active, _ = r.gauges()
	r.res.PeakActive = max(r.res.PeakActive, r.active)
}

// failNodes applies the node failures due this round (the node still
// served the round it dies in). In-flight streams fail over to a
// surviving replica with admission room, park if their viewers have
// patience, or die with the node.
func (r *run) failNodes() {
	for r.nextEvent < len(r.events) && r.events[r.nextEvent].At < r.tEnd {
		ev := r.events[r.nextEvent]
		r.nextEvent++
		if !r.alive[ev.Disk] {
			continue
		}
		r.res.NodeFailures++
		r.res.PerNode[ev.Disk].FailRound = r.now
		r.alive[ev.Disk] = false
		// Every stream leaves the dead node, which releases it: a no-op
		// for a node that stays down, a clean slate for one restarting.
		r.nodes[ev.Disk].displace(func(c *clip) bool {
			remaining := c.doneRound - r.now
			switch {
			case r.failover(c.clipID, remaining):
			case r.cfg.Node.Patience > 0:
				r.parked = append(r.parked, parkedStream{clipID: c.clipID, remaining: remaining, since: r.now})
			default:
				r.res.LostStreams++
			}
			return true
		})
		if ev.Rebuild {
			// Fast restart: the node rejoins empty next round.
			r.alive[ev.Disk] = true
		} else {
			// A permanent loss the autopilot may replace.
			r.nodeLosses++
		}
	}
}

// applyViewEvents fires the scripted reconfiguration events due this
// round.
func (r *run) applyViewEvents() error {
	for r.nextView < len(r.views) && r.views[r.nextView].At < r.tEnd {
		ev := r.views[r.nextView]
		r.nextView++
		switch ev.Kind {
		case "join":
			if err := r.join(); err != nil {
				return err
			}
		case "drain":
			r.startDrain(ev.Node)
		case "adddisk":
			if ev.Node >= len(r.nodes) || !r.alive[ev.Node] || r.role[ev.Node] != roleActive {
				continue
			}
			if _, pending := r.relayoutAt[ev.Node]; pending {
				continue // one re-layout at a time per node
			}
			r.relayoutAt[ev.Node] = r.now + r.clipRounds
			r.res.DiskAdds++
		}
	}
	return nil
}

// flipRelayouts brings finished re-layouts live, in node order: one
// disk's worth of extra admission slots, and the view's geometry bumps.
func (r *run) flipRelayouts() {
	if len(r.relayoutAt) == 0 {
		return
	}
	for id, e := range r.nodes {
		at, pending := r.relayoutAt[id]
		if !pending || at > r.now {
			continue
		}
		delete(r.relayoutAt, id)
		if r.alive[id] && r.role[id] != roleRetired {
			e.bonusFree += r.op.Q
			r.viewVersion++
		}
	}
}

// drain moves each draining node's streams to active candidates with
// admission room — a stream that cannot move keeps playing where it is,
// never dropped — and retires the drainers that emptied.
func (r *run) drain() {
	for id, e := range r.nodes {
		if r.role[id] != roleDraining || !r.alive[id] {
			continue
		}
		e.displace(func(c *clip) bool {
			if r.place(c.clipID, c.doneRound-r.now, true) < 0 {
				return false
			}
			r.res.MigratedStreams++
			return true
		})
		if e.nactive == 0 {
			r.role[id] = roleRetired
			r.alive[id] = false
			r.res.Retired++
			r.res.PerNode[id].RetiredRound = r.now
			r.viewVersion++
		}
	}
}

// autopilot feeds the round's signals to the controller and applies its
// action, if any, through the same paths the scripted view events use.
func (r *run) autopilot() error {
	if r.pilot == nil {
		return nil
	}
	activeNodes, draining := 0, 0
	// The drain candidate is the least-loaded surplus node — only nodes
	// beyond the original membership are surplus, because the fixed
	// placement needs every original node.
	cand := -1
	for id, e := range r.nodes {
		if !r.alive[id] {
			continue
		}
		switch r.role[id] {
		case roleActive:
			activeNodes++
			if id >= r.cfg.Nodes && (cand < 0 || e.nactive < r.nodes[cand].nactive) {
				cand = id
			}
		case roleDraining:
			draining++
		}
	}
	a, ok := r.pilot.Observe(autopilot.Signals{
		Round:          r.now,
		Rejects:        r.abandoned,
		QueueDepth:     r.queue.Len(),
		Active:         r.active,
		Capacity:       activeNodes * r.perNodeCap,
		ActiveNodes:    activeNodes,
		NodeLosses:     r.nodeLosses,
		Reconfiguring:  draining > 0 || len(r.relayoutAt) > 0,
		DrainCandidate: cand,
	})
	if !ok {
		return nil
	}
	switch a.Kind {
	case autopilot.ScaleOut, autopilot.Replace:
		if err := r.join(); err != nil {
			return err
		}
	case autopilot.ScaleIn:
		r.startDrain(a.Node)
	}
	r.res.Actions = append(r.res.Actions, a)
	r.tl.cur.Actions++
	return nil
}

// gauges snapshots the in-flight stream counts: the total over live
// nodes and, for the timeline, the per-node breakdown (dead and retired
// nodes report their own count, which is zero once their streams moved).
func (r *run) gauges() (total int, perNode []int) {
	r.nodeActive = r.nodeActive[:0]
	for i, e := range r.nodes {
		r.nodeActive = append(r.nodeActive, e.nactive)
		if r.alive[i] {
			total += e.nactive
		}
	}
	return total, r.nodeActive
}

// finish folds the terminal state into the result.
func (r *run) finish(totalRounds int64) ClusterResult {
	act, perNode := r.gauges()
	r.res.Timeline = r.tl.done(act, r.queue.Len(), r.viewVersion, perNode)
	// Failover streams still parked at close never resumed: lost.
	r.res.LostStreams += len(r.parked)
	r.res.ViewVersion = r.viewVersion
	rebuildsReq := 0
	for _, e := range r.nodes {
		rebuildsReq += e.rebuildsReq
	}
	r.res.RebuildDone = rebuildsReq > 0 && r.res.RebuildsDone == rebuildsReq
	r.res.Rounds = totalRounds
	if r.res.Serviced > 0 {
		r.res.MeanResponse = r.responseSum / units.Duration(r.res.Serviced)
		r.res.ResponseP95 = percentile(r.responses, 0.95)
	}
	return r.res
}
