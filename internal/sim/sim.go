// Package sim implements the simulation study of §8.2: a round-granularity
// discrete-event simulation of a d-disk continuous media server under one
// of the five fault-tolerant schemes, with Poisson request arrivals, a
// starvation-free pending list, per-scheme admission control and buffer
// accounting, and optional single-disk failure injection.
//
// There is one round loop (simulate, cluster.go) over one node type
// (engine, this file): a node is a d-disk array with its own admission
// controller, buffer pool and per-disk failure accounting, and the loop
// is the control plane in front of n of them — pending list, routing,
// node failover, membership changes, autopilot. Run is that loop with one
// node; RunCluster is the same loop with n.
//
// The paper's experiment: 32 disks, 1000 clips of 50 time units, Poisson
// arrivals at mean 20 per unit time, uniform clip choice, per-scheme
// block sizes chosen by the §7 optimizer, 600 time units of simulated
// time; the metric is the number of clips serviced (playback initiated)
// in the window. One paper time unit is one second here.
//
// Failure injection extends the paper's E10 claim checks: after the
// failure round, the simulator accounts the reconstruction reads each
// scheme sends to each surviving disk and counts deadline misses (blocks
// beyond the disk's q budget in a round) and, for the non-clustered
// baseline, blocks lost in the transition to whole-group reads.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ftcms/internal/admission"
	"ftcms/internal/analytic"
	"ftcms/internal/buffer"
	"ftcms/internal/diskmodel"
	"ftcms/internal/pgt"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Scheme selects the fault-tolerant scheme: any single-parity one
	// (see Models), DeclusteredDynamic for the §5 controller.
	Scheme scheme.Scheme
	// Disk is the disk model (Figure 1 defaults via diskmodel.Default).
	Disk diskmodel.Parameters
	// D is the number of disks.
	D int
	// P is the parity group size.
	P int
	// Buffer is the server RAM buffer B.
	Buffer units.Bits
	// Catalog is the clip library.
	Catalog *workload.Catalog
	// ArrivalRate is the Poisson mean arrival rate (requests per second).
	ArrivalRate float64
	// Duration is the simulated horizon.
	Duration units.Duration
	// Seed drives all randomness (arrivals, clip choice, placements).
	Seed int64
	// QueueBypass bounds how many blocked requests the pending list may
	// skip per round. 0 selects the default window (256), matching the
	// effective-utilization admission of [ORS96] that the paper defers
	// to; -1 selects strict FIFO head-of-line (one blocked head stalls
	// the round), the E8 ablation's other endpoint.
	QueueBypass int
	// Trace scripts disk failures (fail → rebuild → second failure → …);
	// empty means none. While two dependent failures overlap (same parity
	// domain: any pair for the declustered and flat schemes, same cluster
	// for the clustered ones), the younger failed disk's due blocks are
	// counted as LostBlocks each round and its rebuild stalls; independent
	// failures are each accounted as ordinary single failures.
	Trace []FailureEvent
	// Source streams arrivals incrementally and supersedes ArrivalRate
	// (Poisson over uniform clip choice) when non-nil: a flash crowd, a
	// Zipf catalog or a fixed trace (workload.NewSliceSource). Sources are
	// single-use: a Config with a Source cannot be re-run.
	Source workload.ArrivalSource
	// Patience bounds how long a pending request waits: a request not
	// admitted within Patience of its arrival abandons and is counted in
	// Result.Rejected. 0 means requests wait forever (the paper's §3
	// pending list). Patience below one round duration can reject
	// requests before their first admission attempt.
	Patience units.Duration
	// Timeline, when non-nil, records a per-bucket demand/service
	// timeline in Result.Timeline.
	Timeline *TimelineConfig
}

// Models reports whether the simulator models s: the single-parity
// schemes, whose §8 failure accounting it implements.
func Models(s scheme.Scheme) bool { return s.ParityCols() == 1 }

// FailureEvent is one scripted disk failure in a Config.Trace.
type FailureEvent struct {
	// Disk fails at time At. Re-failing a disk that has since been
	// rebuilt starts a fresh failure; re-failing a still-failed disk is
	// ignored.
	Disk int
	// At is the failure time.
	At units.Duration
	// Rebuild starts an online rebuild onto a hot spare immediately:
	// every surviving disk donates its idle round capacity (q minus its
	// service and reconstruction load) to reading surviving group
	// members, until blocks·(p−1) reads have been served. The failed
	// disk rejoins when the rebuild finishes.
	Rebuild bool
}

// Result carries the run's metrics.
type Result struct {
	// Serviced counts clips whose playback was initiated in the window —
	// the paper's Figure 6 metric.
	Serviced int
	// Completed counts clips that finished playback in the window.
	Completed int
	// PeakActive is the maximum concurrent clip count observed.
	PeakActive int
	// MeanResponse is the mean arrival→admission delay of serviced clips.
	MeanResponse units.Duration
	// ResponseP95 is the 95th-percentile arrival→admission delay.
	ResponseP95 units.Duration
	// Rejected counts pending requests that abandoned after waiting past
	// Config.Patience (always 0 without a patience bound).
	Rejected int
	// Timeline is the per-bucket timeline (nil unless Config.Timeline
	// was set).
	Timeline []TimelineBucket
	// MaxQueue is the pending list's maximum length.
	MaxQueue int
	// Rounds is the number of service rounds simulated.
	Rounds int64
	// Block is the block size used.
	Block units.Bits
	// Q and F echo the operating point.
	Q, F int
	// DeadlineMisses counts blocks that exceeded a disk's q budget in a
	// round after the failure (each is a playback hiccup).
	DeadlineMisses int64
	// LostBlocks counts blocks irrecoverably lost in the failure
	// transition (non-clustered scheme only; every other scheme
	// guarantees zero).
	LostBlocks int64
	// RebuildTime is how long the online rebuild took (zero when Rebuild
	// is off or the rebuild did not finish inside the run). With a
	// multi-event Trace it is the first completed rebuild's duration.
	RebuildTime units.Duration
	// RebuildDone reports whether every requested rebuild finished
	// inside the run.
	RebuildDone bool
	// RebuildsDone counts completed online rebuilds across the trace.
	RebuildsDone int
}

// clip is one active stream. Failure accounting reads the controllers'
// phase counts directly, so only completion bookkeeping lives here.
type clip struct {
	clipID    int
	doneRound int64
	ticket    admission.Ticket
	// bonus marks a stream admitted on the node's post-AddDisk bonus
	// capacity instead of a controller ticket.
	bonus bool
}

// Run executes the simulation of one array: the round loop with a single
// node, whose failure Trace is live.
func Run(cfg Config) (Result, error) {
	res, err := simulate(ClusterConfig{Node: cfg, Nodes: 1})
	// A single array's timeline has no per-node column.
	for i := range res.Timeline {
		res.Timeline[i].NodeActive = nil
	}
	return res.Result, err
}

// engine is one node of a run: a d-disk array with its own admission
// controller, buffer pool, stream registry and per-disk accounting.
type engine struct {
	cfg Config
	op  analytic.Result

	rng      *rand.Rand
	pool     *buffer.Pool
	perClip  units.Bits
	roundDur units.Duration
	// clipRounds is the playback duration of every catalog clip in rounds.
	clipRounds int64

	ctrl admission.Controller
	// table is set for the table-driven schemes (failure accounting).
	table *pgt.Table

	active  map[int64][]*clip // completion buckets by round
	rounds  []int64           // displace's scratch
	nactive int
	// bonusFree is the node's post-AddDisk extra admission slots; a
	// stream admitted on one (clip.bonus) returns the slot at release.
	bonusFree int

	// position assigns each catalog clip its fixed random start
	// (disk/unit, class/row), chosen once like the paper's disk(C),
	// row(C).
	position []startPos

	// Failure-trace state (failure.go): pending scripted events and the
	// failures currently outstanding, oldest first.
	trace       []FailureEvent
	nextEvent   int
	failures    []*failureState
	rebuildsReq int

	// res receives the per-disk accounting of failure.go. It is the
	// run's one Result, shared by its nodes.
	res *Result
}

// failureState is one outstanding disk failure from the trace.
type failureState struct {
	disk      int
	failRound int64
	rebuild   bool
	// remaining is the number of reconstruction reads the online rebuild
	// still needs (group slots for streaming RAID).
	remaining int64
}

type pending struct {
	arrival units.Duration
	clipID  int
	// frac is the requested watch fraction (workload.Request.Frac).
	frac float64
}

type startPos struct {
	unit, class int
}

func newEngine(cfg Config, op analytic.Result, res *Result) (*engine, error) {
	e := &engine{
		cfg:    cfg,
		op:     op,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		active: make(map[int64][]*clip),
		res:    res,
	}
	var err error
	e.pool, err = buffer.NewPool(cfg.Buffer)
	if err != nil {
		return nil, err
	}

	d, p, sc := cfg.D, cfg.P, cfg.Scheme
	e.perClip = sc.PerClip(op.Block, p)
	// A round delivers one block per stream, or one (p−1)-block group
	// under whole-group fetching; the catalog is uniform, so compute the
	// clip length in rounds once.
	k := sc.RoundBlocks(p)
	e.roundDur = units.Duration(k) * cfg.Disk.RoundDuration(op.Block)
	e.clipRounds = max((cfg.Catalog.Clip(0).Blocks(op.Block)+int64(k)-1)/int64(k), 1)

	// Controller and start positions. §8.2 randomizes disk(C) uniformly
	// for every scheme, so clips start on any unit of the admission grid
	// (for the clustered schemes a mid-cluster start only means the
	// clip's first parity group is partial, which admission does not see).
	t, err := sc.Table(d, p)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if t != nil {
		e.table = t.Table
	}
	if e.ctrl, err = sc.Admission(d, p, op.Q, op.F, t); err != nil {
		return nil, err
	}
	e.randomPositions(sc.Grid(d, p))
	if e.trace, err = orderedTrace(cfg.Trace, "disk", d); err != nil {
		return nil, err
	}
	return e, nil
}

// randomPositions assigns every catalog clip a uniform (unit, class).
func (e *engine) randomPositions(units, classes int) {
	e.position = make([]startPos, e.cfg.Catalog.Len())
	for i := range e.position {
		e.position[i] = startPos{unit: e.rng.Intn(units), class: e.rng.Intn(classes)}
	}
}

// admit books one stream of clipID on the node for rounds rounds,
// honoring its buffer pool and admission controller, with spillover onto
// the AddDisk bonus slots when the controller is full.
func (e *engine) admit(clipID int, now, rounds int64) bool {
	if !e.pool.Reserve(e.perClip) {
		return false
	}
	pos := e.position[clipID]
	tk, ok := e.ctrl.Admit(now, pos.unit, pos.class)
	if !ok && e.bonusFree == 0 {
		e.pool.Release(e.perClip)
		return false
	}
	c := &clip{clipID: clipID, doneRound: now + rounds, ticket: tk, bonus: !ok}
	if c.bonus {
		e.bonusFree--
	}
	e.active[c.doneRound] = append(e.active[c.doneRound], c)
	e.nactive++
	return true
}

// release returns a finished or displaced stream's resources; the caller
// unlinks it from the completion buckets.
func (e *engine) release(c *clip) {
	if c.bonus {
		e.bonusFree++
	} else {
		e.ctrl.Release(c.ticket)
	}
	e.pool.Release(e.perClip)
	e.nactive--
}

// complete releases the streams whose playback ends this round and
// returns how many there were.
func (e *engine) complete(now int64) int {
	done := e.active[now]
	for _, c := range done {
		e.release(c)
	}
	delete(e.active, now)
	return len(done)
}

// displace offers every stream of the node to move, which reports
// whether the stream left — moved elsewhere, parked or lost — and
// releases and unlinks the ones that did. Streams go oldest completion
// first, so longer-running streams get the first shot at scarce capacity
// elsewhere.
func (e *engine) displace(move func(c *clip) bool) {
	e.rounds = e.rounds[:0]
	for r := range e.active {
		e.rounds = append(e.rounds, r)
	}
	slices.Sort(e.rounds)
	for _, r := range e.rounds {
		kept := e.active[r][:0]
		for _, c := range e.active[r] {
			if move(c) {
				e.release(c)
			} else {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			delete(e.active, r)
		} else {
			e.active[r] = kept
		}
	}
}

// percentile returns the p-quantile (0 < p <= 1) of the samples by the
// nearest-rank method; the slice is sorted in place.
func percentile(samples []units.Duration, p float64) units.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	idx := int(math.Ceil(p*float64(len(samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}
