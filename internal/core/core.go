// Package core is the library's facade: a complete, byte-accurate
// fault-tolerant continuous media server in the sense of Özden et al.
// (SIGMOD 1996). It ties together the substrates — placement (layout),
// parity maintenance and reconstruction (recovery/storage), round
// scheduling (sched), admission control (admission) and buffer accounting
// (buffer) — into a tick-driven server that stores real clip bytes,
// streams them at one block per stream per round, survives a single disk
// failure without interrupting any stream, and audits its own Equation-1
// budget on every round.
//
// The server is deliberately synchronous: Tick() advances one service
// round, which makes behaviour deterministic and lets tests and examples
// drive failures at exact round boundaries. Wall-clock pacing (for the
// cmcluster demo) is the caller's concern: one round corresponds to
// RoundDuration() of playback.
package core

import (
	"errors"
	"fmt"
	"slices"

	"ftcms/internal/admission"
	"ftcms/internal/buffer"
	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/health"
	"ftcms/internal/layout"
	"ftcms/internal/recovery"
	"ftcms/internal/sched"
	"ftcms/internal/scheme"
	"ftcms/internal/storage"
	"ftcms/internal/units"
)

// Scheme selects a Server's fault-tolerance scheme; the constants are
// the scheme package's, re-exported for the facade's callers.
type Scheme = scheme.Scheme

// The seven schemes (see package scheme).
const (
	Declustered        = scheme.Declustered
	DeclusteredDynamic = scheme.DeclusteredDynamic
	DeclusteredPQ      = scheme.DeclusteredPQ
	PrefetchParityDisk = scheme.PrefetchParityDisk
	PrefetchFlat       = scheme.PrefetchFlat
	StreamingRAID      = scheme.StreamingRAID
	NonClustered       = scheme.NonClustered
)

// Config sizes a Server.
type Config struct {
	// Scheme selects the fault-tolerance scheme.
	Scheme Scheme
	// Disk is the disk model; zero value selects the paper's Figure 1
	// disk.
	Disk diskmodel.Parameters
	// D is the number of disks.
	D int
	// P is the parity group size.
	P int
	// Block is the block size; Q blocks of it must keep playback
	// continuous under the scheme (scheme.Continuous).
	Block units.Bits
	// Q is the per-disk (per-cluster for streaming RAID) round budget.
	Q int
	// F is the contingency reservation for the declustered and flat
	// schemes (ignored elsewhere).
	F int
	// Buffer is the server RAM buffer.
	Buffer units.Bits
	// Spares is the hot-spare budget: how many detected disk failures
	// trigger an automatic online rebuild (0 = degraded mode persists
	// until an operator calls RepairDisk, the pre-lifecycle behaviour).
	Spares int
	// Health tunes the failure detector; the zero value selects its
	// documented defaults (3 attempts per read, 3 consecutive strikes to
	// declare a disk failed, 8× slowdown counts as a timeout).
	Health health.Config
	// ScrubRate caps the background scrubber's verify reads per round
	// across the array. 0 disables scrubbing (the default, preserving
	// pre-scrub behaviour); negative means unlimited — the sweep is then
	// bounded only by the idle capacity each round leaves under q.
	ScrubRate int
	// TickWorkers is kept only because the benchmark module still sets
	// it (bench/inproc.go, bench/coreloads.go); it goes once that module
	// stops.
	//
	// Deprecated: ignored; a server's rounds run on the calling goroutine.
	TickWorkers int
}

// Stats reports a server's running counters.
type Stats struct {
	// Rounds is the number of completed rounds.
	Rounds int64
	// Active is the number of streams currently playing.
	Active int
	// Served is the number of streams that completed playback.
	Served int
	// Hiccups counts block deliveries that missed their round (late or
	// unreconstructable). Zero for the rate-guaranteeing schemes under a
	// single failure.
	Hiccups int64
	// Overflows counts disk charges beyond the q budget (from sched).
	Overflows int64
	// FailedDisks lists currently failed disks.
	FailedDisks []int
	// Mode is the failure-lifecycle state (healthy/rebuilding/degraded).
	Mode Mode
	// SparesLeft is the unused hot-spare count.
	SparesLeft int
	// Rebuilding is the disk an online rebuild is refilling (-1 when
	// none); with concurrent rebuilds (the P+Q scheme) it is the first.
	Rebuilding int
	// RebuildingDisks lists every disk with an in-flight online rebuild.
	RebuildingDisks []int
	// RebuildPending and RebuildTotal report online-rebuild progress in
	// queue entries, summed over in-flight rebuilds (both zero when no
	// rebuild is active).
	RebuildPending, RebuildTotal int
	// RebuildReads counts physical reads charged on behalf of online
	// rebuilds since start; RebuildReadsLastRound is the previous
	// round's share — the measured repair rate.
	RebuildReads, RebuildReadsLastRound int64
	// RebuildsDone counts completed online rebuilds (disk rejoined).
	RebuildsDone int
	// DetectedFailures counts disk failures handled (detector-declared
	// plus operator-injected).
	DetectedFailures int64
	// BadBlockRepairs counts latent bad blocks reconstructed and
	// rewritten in place.
	BadBlockRepairs int64
	// Terminated counts streams ended early with an explicit
	// unrecoverable-group error.
	Terminated int
	// LostBlocks counts blocks the online rebuild had to skip because a
	// second failure made their group unrecoverable, and blocks the
	// patrol scrub found beyond repair (once each).
	LostBlocks int64
	// CorruptionsInjected counts silent-corruption orders that landed on
	// a written block (fault-injection accounting, not detection).
	CorruptionsInjected int64
	// CorruptionsDetected counts checksum mismatches caught — by the
	// streaming read path or the scrubber — that entered repair.
	CorruptionsDetected int64
	// CorruptionRepairs counts corrupt blocks reconstructed from their
	// parity group and rewritten byte-exactly.
	CorruptionRepairs int64
	// ScrubScanned and ScrubTotal report the current scrub sweep's
	// position in queue entries (both zero when scrubbing is off or the
	// sweep is between cycles).
	ScrubScanned, ScrubTotal int
	// ScrubCycles counts completed full-array scrub sweeps.
	ScrubCycles int64
	// MigrateReads counts physical reads charged on behalf of
	// reconfiguration traffic (clip migration and AddDisk re-layout)
	// since start; MigrateReadsLastRound is the previous round's share —
	// the measured migration rate.
	MigrateReads, MigrateReadsLastRound int64
	// RelayoutPending and RelayoutTotal report AddDisk re-layout
	// progress in blocks (both zero when no re-layout is active).
	RelayoutPending, RelayoutTotal int
	// RelayoutsDone counts completed AddDisk re-layouts.
	RelayoutsDone int
	// DetectLatencies holds, per declared disk in declaration order, the
	// rounds from the health detector's first suspicious observation to
	// its failure declaration — the MTTDL model's detection-time input.
	DetectLatencies []int64
	// RebuildLatencies holds, per completed online rebuild in completion
	// order, the rounds from failure handling to spare rejoin — the MTTDL
	// model's repair-time (MTTR) input.
	RebuildLatencies []int64
}

// Server is a fault-tolerant continuous media server. It is owned by one
// goroutine: its methods, Tick included, must not run concurrently, and
// a round's stream service is one pass over the registry on the calling
// goroutine. Callers that share a Server serialize on their own lock.
type Server struct {
	cfg Config
	lay layout.Layout
	// pgt is lay by its concrete type under the three PGT-driven schemes
	// (nil under the others).
	pgt    *layout.Declustered
	store  *recovery.Store
	engine *sched.Engine
	pool   *buffer.Pool

	// ctrl is the scheme's admission controller.
	ctrl     admission.Controller
	clips    map[string]clipInfo
	nextFree int64 // next free logical block in the store
	// nextFreeRow is the per-super-clip allocation cursor, nil unless the
	// scheme is dynamic (§5.1): clip blocks of row k go to logical k + i·r.
	nextFreeRow []int64
	// clipCount round-robins super-clip assignment for the dynamic
	// scheme.
	clipCount    int
	nextStreamID int
	served       int
	hiccups      int64

	// reg is the service registry: every stream the Tick loop visits, in
	// ascending-id order, maintained incrementally on open/release.
	// Released streams linger (active=false) until the next round's
	// compaction sweep drops them in place; active counts the rest.
	reg    []*Stream
	active int

	// Failure lifecycle (failure.go).
	detector   *health.Detector
	injector   *faultinject.Injector
	sparesLeft int
	// erasures is how many lost members every parity group can close —
	// its parity columns: the number of disks that may be out of service
	// at once with nothing unrecoverable, and of concurrent rebuilds.
	erasures         int
	rebuilds         []*rebuildState
	rebuildQueue     []int
	rebuildsDone     int
	detectedFailures int64
	badBlockRepairs  int64
	terminated       int
	lostBlocks       int64
	// rebuildReads counts physical reads charged on behalf of online
	// rebuilds (the Luby-style repair-rate ledger); rebuildReadsLast is
	// the previous round's share of it.
	rebuildReads     int64
	rebuildReadsLast int64
	// failRound records, per disk, the round its failure was handled —
	// the start of the detect→rebuild clock (satellite of the health
	// histograms) — or -1 while no failure of the disk awaits its rejoin.
	failRound []int64
	// rebuildLat collects completed rebuilds' durations in rounds.
	rebuildLat []int64

	// Data integrity (scrub.go).
	scrub               scrubState
	scrubCycles         int64
	corruptionsInjected int64
	corruptionsDetected int64
	corruptionRepairs   int64

	// Online reconfiguration (import.go, relayout.go).
	imports map[string]*importState
	// relayout, when non-nil, is the in-flight AddDisk re-layout onto a
	// shadow array one disk wider.
	relayout *relayoutState
	// relayoutsDone counts completed AddDisk re-layouts.
	relayoutsDone int
	// migrateReads counts physical reads charged on behalf of
	// reconfiguration traffic — clip-migration exports/imports plus
	// AddDisk re-layout copies — the migration side of the Luby-style
	// repair-rate ledger. migrateReadsLast is the previous round's
	// share; migrateReadsMark is the ledger value at the top of the
	// current round.
	migrateReads     int64
	migrateReadsLast int64
	migrateReadsMark int64

	// prefetchDepth is how many blocks ahead of delivery fetching runs
	// (p−1 for the pre-fetching schemes, 1 otherwise).
	prefetchDepth int64
	// groupFetch is set for streaming RAID: fetch a whole group at once.
	groupFetch bool

	// scratchFree is the freelist of repair scratch (repair.go); block
	// buffers come off the store's own freelist.
	scratchFree []*repairScratch
	// batch is the rebuild's batch (rebuild.go), kept for its buffers;
	// poolPass runs one entry's pool job; zero is the block it reads for an
	// absent member of a short group.
	batch    []rebuildJob
	poolPass func(i int) error
	zero     []byte
}

// getBlock returns a block-sized buffer with unspecified contents.
func (s *Server) getBlock() []byte { return s.store.GetBlock() }

// putBlock recycles one the caller owns, never bytes the store lent.
func (s *Server) putBlock(b []byte) { s.store.PutBlock(b) }

type clipInfo struct {
	start  int64
	blocks int64
	size   int64 // bytes of real payload (last block padded)
	// stride is the logical-index step between consecutive clip blocks:
	// 1 everywhere except the dynamic scheme's interleaved address space,
	// where it is r (the clip stays in one super-clip).
	stride int64
}

// block returns the logical index of the clip's n-th block.
func (ci clipInfo) block(n int64) int64 { return ci.start + n*ci.stride }

// New builds a server. The block size and q must keep playback
// continuous under the scheme (scheme.Continuous: Equation 1, or the
// whole-group form under streaming RAID); use the analytic package to
// derive an optimal operating point.
func New(cfg Config) (*Server, error) {
	if cfg.Disk == (diskmodel.Parameters{}) {
		cfg.Disk = diskmodel.Default()
	}
	if err := cfg.Disk.Validate(); err != nil {
		return nil, err
	}
	if cfg.D < 2 || cfg.P < 2 || cfg.P > cfg.D {
		return nil, fmt.Errorf("core: bad geometry d=%d p=%d", cfg.D, cfg.P)
	}
	if !cfg.Scheme.Continuous(cfg.Disk, cfg.P, cfg.Q, cfg.Block) {
		return nil, fmt.Errorf("core: q=%d blocks of %v break %v's continuity of playback", cfg.Q, cfg.Block, cfg.Scheme)
	}

	s := &Server{
		cfg:           cfg,
		clips:         make(map[string]clipInfo),
		imports:       make(map[string]*importState),
		failRound:     make([]int64, cfg.D),
		prefetchDepth: int64(cfg.Scheme.PrefetchDepth(cfg.P)),
		groupFetch:    cfg.Scheme.GroupFetch(),
		erasures:      cfg.Scheme.ParityCols(),
	}
	for i := range s.failRound {
		s.failRound[i] = -1
	}

	lay, pgt, err := cfg.Scheme.Layout(cfg.D, cfg.P, int64(cfg.D)*blocksPerDisk)
	if err != nil {
		return nil, err
	}
	s.lay, s.pgt = lay, pgt
	if cfg.Scheme.Dynamic() {
		s.nextFreeRow = make([]int64, pgt.Rows())
	}

	arr, err := storage.NewArray(cfg.D, int(cfg.Block.Bytes()))
	if err != nil {
		return nil, err
	}
	s.store, err = recovery.NewStore(lay, arr)
	if err != nil {
		return nil, err
	}
	s.engine, err = sched.NewEngine(cfg.D, cfg.Q, cfg.Disk, cfg.Block)
	if err != nil {
		return nil, err
	}
	s.pool, err = buffer.NewPool(cfg.Buffer)
	if err != nil {
		return nil, err
	}
	s.sparesLeft = cfg.Spares
	s.detector = health.NewDetector(cfg.D, cfg.Health)
	s.detector.SetOnFail(s.failDeclared)
	s.detector.SetClock(s.engine.Round)

	if s.ctrl, err = cfg.Scheme.Admission(cfg.D, cfg.P, cfg.Q, cfg.F, pgt); err != nil {
		return nil, err
	}
	return s, nil
}

// BlockSize returns the configured block size.
func (s *Server) BlockSize() units.Bits { return s.cfg.Block }

// Disks returns the configured disk count.
func (s *Server) Disks() int { return s.cfg.D }

// Contingency returns the per-disk contingency reservation f (0 for
// schemes that do not reserve).
func (s *Server) Contingency() int { return s.cfg.F }

// ActiveStreams returns the number of open streams. Unlike Stats, it
// never allocates — cheap enough for a per-round poll.
func (s *Server) ActiveStreams() int { return s.active }

// RoundDuration returns the playback time one round covers — b/r_p, or
// (p−1)·b/r_p for streaming RAID's whole-group rounds.
func (s *Server) RoundDuration() units.Duration {
	return units.Duration(s.cfg.Scheme.RoundBlocks(s.cfg.P)) * s.cfg.Disk.RoundDuration(s.cfg.Block)
}

// clipBlocks returns how many store blocks a payload of size bytes
// occupies, including the pre-fetching schemes' whole-parity-group
// padding.
func (s *Server) clipBlocks(size int64) int64 {
	bs := int64(s.cfg.Block.Bytes())
	blocks := (size + bs - 1) / bs
	// Pre-fetching schemes need whole parity groups per clip for the
	// read-ahead invariant; pad to a multiple of p−1 blocks.
	if s.prefetchDepth > 1 {
		g := int64(s.cfg.P - 1)
		blocks = (blocks + g - 1) / g * g
	}
	return blocks
}

// allocClip reserves store blocks for a clip of the given payload size,
// returning its clipInfo. Shared by the bulk AddClip loader and the
// incremental migration import path.
func (s *Server) allocClip(size int64) (clipInfo, error) {
	blocks := s.clipBlocks(size)
	var start, stride int64
	if s.nextFreeRow != nil {
		// §5.1: each clip lives wholly inside one super-clip; assign
		// rows round-robin and allocate within the row.
		r := int64(s.pgt.Rows())
		row := s.clipCount % s.pgt.Rows()
		base := s.nextFreeRow[row]
		if (base+blocks)*r > s.capacity() {
			return clipInfo{}, fmt.Errorf("core: super-clip %d full: clip needs %d blocks", row, blocks)
		}
		start, stride = int64(row)+base*r, r
		s.nextFreeRow[row] = base + blocks
		s.clipCount++
	} else {
		if s.nextFree+blocks > s.capacity() {
			return clipInfo{}, fmt.Errorf("core: store full: %d blocks free, clip needs %d", s.capacity()-s.nextFree, blocks)
		}
		start, stride = s.nextFree, 1
		s.nextFree += blocks
	}
	return clipInfo{start: start, blocks: blocks, size: size, stride: stride}, nil
}

// AddClip stores a clip's bytes, striping blocks round-robin and
// maintaining parity. Clips are padded to whole blocks (the paper pads
// with advertisements; we pad with zeroes).
func (s *Server) AddClip(name string, data []byte) error {
	if _, dup := s.clips[name]; dup {
		return fmt.Errorf("core: clip %q already stored", name)
	}
	if _, dup := s.imports[name]; dup {
		return fmt.Errorf("core: clip %q import in flight", name)
	}
	if len(data) == 0 {
		return errors.New("core: empty clip")
	}
	if s.relayout != nil {
		// The re-layout cursor walks the blocks allocated at AddDisk; a
		// clip written now would never be copied to the wider array.
		return errors.New("core: re-layout in progress; retry after it completes")
	}
	ci, err := s.allocClip(int64(len(data)))
	if err != nil {
		return err
	}
	if err := s.store.WriteRun(ci.start, ci.stride, ci.blocks, data); err != nil {
		return err
	}
	s.clips[name] = ci
	return nil
}

// FailDisk injects a disk failure by operator command — the lifecycle
// entry point the health detector normally triggers by itself. Streams
// continue via reconstruction; a hot spare, if available, starts an
// online rebuild.
func (s *Server) FailDisk(disk int) error {
	if s.store.Array.Failed(disk) {
		return nil // idempotent, like Array.Fail
	}
	if err := s.store.Array.Fail(disk); err != nil {
		return err
	}
	s.onDiskFailed(disk)
	return nil
}

// InjectFaults installs a fault plan at runtime (replacing any existing
// injector), returning the injector so callers can mutate the plan —
// cmcluster's FAIL <node> <disk> demo alias goes through this.
func (s *Server) InjectFaults(plan faultinject.Plan) *faultinject.Injector {
	s.injector = faultinject.New(plan)
	s.injector.SetRound(s.engine.Round())
	s.store.Array.SetReadHook(s.injector.Hook)
	return s.injector
}

// RepairDisk swaps fresh medium in for the disk and, between rounds,
// restores every block it owes — data, P and Q members alike — from the
// surviving members of each parity group; then the disk rejoins. A group
// beyond repair ends it with the disk still Rebuilding: its unrestored
// blocks stay owed and read as errors, never as zeroes.
func (s *Server) RepairDisk(disk int) error {
	arr := s.store.Array
	if err := arr.Fail(disk); err != nil {
		return err
	}
	_ = arr.Replace(disk)
	// Operator replacement supersedes any in-flight online rebuild of
	// the same disk and clears its detection history.
	s.dropRebuild(disk)
	s.nextRebuild()
	s.rebuildQueue = slices.DeleteFunc(s.rebuildQueue, func(d int) bool { return d == disk })
	s.detector.Reset(disk)
	if s.injector != nil {
		s.injector.ClearDisk(disk) // replacement drive: old faults gone
	}
	for b := arr.NextOwed(disk, 0); b >= 0; b = arr.NextOwed(disk, b+1) {
		data, err := s.repairAt(layout.BlockAddr{Disk: disk, Block: b}, repairMode{offRound: true})
		if err != nil {
			return fmt.Errorf("core: restore disk %d block %d: %w", disk, b, err)
		}
		err = arr.Write(disk, b, data)
		s.putBlock(data)
		if err != nil {
			return err
		}
	}
	return arr.Rejoin(disk)
}

// Stats returns the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Rounds:           s.engine.Round(),
		Active:           s.active,
		Served:           s.served,
		Hiccups:          s.hiccups,
		Overflows:        s.engine.Overflows,
		FailedDisks:      s.store.Array.FailedDisks(),
		Mode:             s.Mode(),
		SparesLeft:       s.sparesLeft,
		Rebuilding:       -1,
		RebuildsDone:     s.rebuildsDone,
		DetectedFailures: s.detectedFailures,
		BadBlockRepairs:  s.badBlockRepairs,
		Terminated:       s.terminated,
		LostBlocks:       s.lostBlocks,

		CorruptionsInjected: s.corruptionsInjected,
		CorruptionsDetected: s.corruptionsDetected,
		CorruptionRepairs:   s.corruptionRepairs,
		ScrubCycles:         s.scrubCycles,
		DetectLatencies:     s.DetectLatencies(),
		RebuildLatencies:    s.RebuildLatencies(),
	}
	for _, rb := range s.rebuilds {
		if st.Rebuilding < 0 {
			st.Rebuilding = rb.disk
		}
		st.RebuildingDisks = append(st.RebuildingDisks, rb.disk)
		st.RebuildTotal += len(rb.queue)
		st.RebuildPending += len(rb.queue) - rb.next
	}
	st.RebuildReads = s.rebuildReads
	st.RebuildReadsLastRound = s.rebuildReadsLast
	st.MigrateReads = s.migrateReads
	st.MigrateReadsLastRound = s.migrateReadsLast
	st.RelayoutsDone = s.relayoutsDone
	if s.relayout != nil {
		st.RelayoutTotal = int(s.nextFree)
		st.RelayoutPending = int(s.nextFree - s.relayout.next)
	}
	st.ScrubScanned, st.ScrubTotal = s.scrub.scanned, s.scrub.total
	return st
}

// CheckAdmission audits the admitted stream population against the
// scheme's own admission invariant for the current round (see
// admission.Controller.Audit). A non-nil error indicates a bookkeeping
// bug, never a legal state.
func (s *Server) CheckAdmission() error { return s.ctrl.Audit(s.engine.Round()) }

// blocksPerDisk is each disk's share of the store's data capacity.
const blocksPerDisk = 4096

// capacity returns the store's data capacity in blocks.
func (s *Server) capacity() int64 { return int64(s.cfg.D) * blocksPerDisk }

// FreeBlocks returns the data blocks not yet allocated to clips. For the
// dynamic scheme the free space is the sum over super-clips of their
// remaining row capacity (a clip must fit inside one super-clip, so a
// large clip can be refused even with this much total space free).
func (s *Server) FreeBlocks() int64 {
	if s.nextFreeRow != nil {
		r := int64(len(s.nextFreeRow))
		perRow := s.capacity() / r
		var free int64
		for _, base := range s.nextFreeRow {
			free += perRow - base
		}
		return free
	}
	return s.capacity() - s.nextFree
}

// DegradedDisks counts disks currently not fully serving — failed or
// still rebuilding onto a spare. Cluster placement uses it to discount a
// node's advertised spare capacity while it is absorbing repair load.
func (s *Server) DegradedDisks() int {
	n := 0
	for i := 0; i < s.cfg.D; i++ {
		if s.store.Array.State(i) != storage.Healthy {
			n++
		}
	}
	return n
}
