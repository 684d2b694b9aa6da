package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ftcms/internal/core"
)

// coreSize sizes one of the single-array workloads.
type coreSize struct {
	d, q       int
	nclips     int
	clipBlocks int64
	streams    int
	warmup     int
}

func steadySize(p params) coreSize {
	if p.smoke {
		return coreSize{d: 32, q: 128, nclips: 4, clipBlocks: 128, streams: 200, warmup: 5}
	}
	return coreSize{d: 64, q: 192, nclips: 16, clipBlocks: 4096, streams: 4000, warmup: 50}
}

func rebuildSize(p params) coreSize {
	if p.smoke {
		return coreSize{d: 32, q: 128, nclips: 4, clipBlocks: 128, streams: 100, warmup: 5}
	}
	return coreSize{d: 32, q: 128, nclips: 8, clipBlocks: 8192, streams: 1000, warmup: 20}
}

// coreMeter times the rounds of a corePop.
type coreMeter struct {
	pop   *corePop
	epoch time.Time
	tr    *tracer // nil on an untraced stretch

	log roundLog
	// tickNs and readNs are per stream-round, one sample per round.
	tickNs, readNs []float64
	// cycleStarts holds the index of every round that began with pre: the
	// windows rebuild's rate is taken over.
	cycleStarts []int
	late        int64 // stream-rounds delivered, but in a round longer than the deadline
	deadlineNs  int64
}

// newCoreMeter sizes its logs for about the given number of rounds, so
// that recording a round does not allocate and the harness stays out of
// core.allocs_per_round.
func newCoreMeter(pop *corePop, epoch time.Time, tr *tracer, rounds int) *coreMeter {
	return &coreMeter{
		pop: pop, epoch: epoch, tr: tr,
		log:        newRoundLog(rounds),
		tickNs:     make([]float64, 0, rounds),
		readNs:     make([]float64, 0, rounds),
		deadlineNs: int64(pop.srv.RoundDuration().Seconds() * 1e9),
	}
}

// round is one measured service round: pre (a failure injection, when
// the workload has one due), Tick, then one Read per stream. It returns
// the round's wall time in ns.
func (m *coreMeter) round(pre func() error, preName string) (int64, error) {
	p := m.pop
	att0, miss0 := p.attempted, p.missed
	req := m.log.rounds()
	t0 := nowNs(m.epoch)
	root := m.tr.add("round", "bench", -1, req, t0, t0, 1)
	tPre := t0
	if pre != nil {
		m.cycleStarts = append(m.cycleStarts, req)
		if err := pre(); err != nil {
			return 0, err
		}
		tPre = nowNs(m.epoch)
		m.tr.add(preName, "core", root, req, t0, tPre, 1)
	}
	if err := p.srv.Tick(); err != nil {
		return 0, err
	}
	tTick := nowNs(m.epoch)
	if err := p.drain(); err != nil {
		return 0, err
	}
	tEnd := nowNs(m.epoch)

	due := p.attempted - att0
	delivered := due - (p.missed - miss0)
	m.tr.add("core.Server.Tick", "core", root, req, tPre, tTick, 1)
	m.tr.add("core.Stream.Read", "core", root, req, tTick, tEnd, int(due))
	m.tr.setEnd(root, tEnd)
	m.log.add(t0, tEnd, delivered)
	if due > 0 {
		m.tickNs = append(m.tickNs, float64(tTick-tPre)/float64(due))
		m.readNs = append(m.readNs, float64(tEnd-tTick)/float64(due))
	}
	if tEnd-t0 > m.deadlineNs {
		m.late += delivered
	}
	return tEnd - t0, nil
}

// abMeters is the pair of meters a measured phase runs on. An untraced
// run uses only on, with no tracer. A traced run does twice the work and
// alternates chunks between off (no spans) and on (spans), so that drift
// in the machine's speed hits both alike; the ratio of their median
// rounds is the tracing overhead, and every reported metric comes from
// the traced chunks.
type abMeters struct {
	on, off *coreMeter
	tr      *tracer
	traced  bool
	loopNs  int64 // wall of the whole measured loop
}

// newABMeters expects about the given number of rounds on each meter.
func newABMeters(pop *corePop, p params, rounds int) *abMeters {
	ab := &abMeters{traced: p.traced}
	epoch := time.Now()
	if p.traced {
		ab.tr = newTracer(4 * rounds)
		ab.off = newCoreMeter(pop, epoch, nil, rounds)
	}
	ab.on = newCoreMeter(pop, epoch, ab.tr, rounds)
	return ab
}

// chunks returns how many chunks a phase of n traced-or-only chunks has.
func (ab *abMeters) chunks(n int) int {
	if ab.traced {
		return 2 * n
	}
	return n
}

func (ab *abMeters) pick(chunk int) *coreMeter {
	if ab.traced && chunk%2 == 0 {
		return ab.off
	}
	return ab.on
}

// report fills in what steady and rebuild share.
func (ab *abMeters) report(r *result, before, after goCounters) {
	m := ab.on
	walls := m.log.walls()
	rounds := m.log.rounds()
	all, inRounds := rounds, m.log.wallNs()
	if ab.traced {
		all += ab.off.log.rounds()
		inRounds += ab.off.log.wallNs()
		r.set("trace.overhead_ratio", median(walls)/median(ab.off.log.walls()), rounds)
	}
	r.set("round_p50_ms", quietQuantile(walls, 0.50), rounds)
	r.set("round_p95_ms", quietQuantile(walls, 0.95), rounds)
	r.set("core.round_p99_ms", quantile(walls, 0.99), rounds)
	r.set("core.round_max_ms", quantile(walls, 1), rounds)
	rate := m.log.quietRate(m.log.delivered, m.cycleStarts)
	r.set("stream_rounds_per_s", rate, 0)
	r.set("delivered_mb_per_s", rate*float64(m.pop.bs)/1e6, 0)
	r.set("core.tick_ns_per_sr", quietQuantile(m.tickNs, 0.5), len(m.tickNs))
	r.set("core.read_ns_per_sr", quietQuantile(m.readNs, 0.5), len(m.readNs))
	r.set("core.allocs_per_round", float64(after.mallocs-before.mallocs)/float64(all), 0)
	r.set("core.alloc_bytes_per_round", float64(after.allocBytes-before.allocBytes)/float64(all), 0)
	r.set("harness.overhead_ns_per_round", float64(ab.loopNs-inRounds)/float64(all), 0)
	r.setGo(before, after)
}

// measuredCounts are the verification counters of the measured phase
// alone (the population's own counters also cover set-up and warm-up).
type measuredCounts struct{ attempted, missed, bytes int64 }

func (p *corePop) counts() measuredCounts { return measuredCounts{p.attempted, p.missed, p.bytes} }

func (c measuredCounts) since(start measuredCounts) measuredCounts {
	return measuredCounts{c.attempted - start.attempted, c.missed - start.missed, c.bytes - start.bytes}
}

// finish closes a single-array run: ledger audit, verification fields,
// memory.
func (ab *abMeters) finish(r *result, c measuredCounts) error {
	if err := ab.on.pop.audit(); err != nil {
		return err
	}
	late := ab.on.late
	if ab.traced {
		late += ab.off.late
	}
	r.Attempted, r.Failed = c.attempted, c.missed
	r.set("miss_ratio", float64(c.missed+late)/float64(c.attempted), 0)
	r.set("verify.delivered_bytes", float64(c.bytes), 0)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, 0)
	return nil
}

// settle empties the garbage set-up left, so the measured loop starts
// from a settled heap.
func settle() { runtime.GC() }

// abChunkRounds is the length of one traced or untraced chunk of rounds.
const abChunkRounds = 25

// warmCorePop is the set-up both single-array workloads time: build the
// server, store the clips, admit the population, run the warm-up rounds.
func warmCorePop(cfg core.Config, seed int64, size coreSize) (*corePop, error) {
	pop, err := newCorePop(cfg, seed, size.nclips, size.clipBlocks, size.streams)
	if err != nil {
		return nil, err
	}
	for i := 0; i < size.warmup; i++ {
		if err := pop.round(); err != nil {
			return nil, err
		}
	}
	return pop, nil
}

// runSteady: one declustered array, d=64 p=4 q=192 f=16, 4000 healthy
// streams over 16 clips, closed loop, rounds back to back.
func runSteady(p params) (*result, error) {
	r := newResult(wlSteady, p)
	size := steadySize(p)
	cfg := arrayConfig(size.d, size.q, 0)
	pop, setup, err := repeatSetup(p.setups(3), p.processStart, func() (*corePop, error) {
		return warmCorePop(cfg, p.seed, size)
	}, nil)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, p.setups(3))
	rounds := p.scale(250, 20)
	r.note("closed loop, 1 goroutine, %d streams, %d measured rounds after %d warm-up, deadline %.2f ms",
		size.streams, rounds, size.warmup, pop.srv.RoundDuration().Seconds()*1e3)

	ab := newABMeters(pop, p, rounds)
	settle()
	start, before, t0 := pop.counts(), readGoCounters(), time.Now()
	for i, n := 0, ab.chunks(rounds); i < n; i++ {
		if _, err := ab.pick(i/abChunkRounds).round(nil, ""); err != nil {
			return nil, err
		}
	}
	ab.loopNs = int64(time.Since(t0))
	ab.report(r, before, readGoCounters())
	c := pop.counts().since(start)
	if err := ab.finish(r, c); err != nil {
		return nil, err
	}
	if want := int64(ab.chunks(rounds)) * int64(size.streams); pop.reopened == 0 && c.attempted != want {
		return nil, fmt.Errorf("attempted %d stream-rounds, want %d", c.attempted, want)
	}
	if p.traced {
		lay, store := standaloneStore(cfg, size, p.seed)
		replayReadPath(r, cfg, size, lay, store)
		if err := parallelPass(r, cfg, size, p); err != nil {
			return nil, err
		}
		if err := writeSpans(ab.tr, p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// parallelPass runs a short extra steady stretch on a second server with
// TickWorkers 0 (one worker per CPU) and reports sequential over sharded
// round time. Below 1 the sharded tick is slower.
func parallelPass(r *result, cfg core.Config, size coreSize, p params) error {
	cfg.TickWorkers = 0
	pop, err := warmCorePop(cfg, p.seed, size)
	if err != nil {
		return err
	}
	n := p.scale(60, 10)
	m := newCoreMeter(pop, time.Now(), nil, n)
	for i := 0; i < n; i++ {
		if _, err := m.round(nil, ""); err != nil {
			return err
		}
	}
	r.set("parallel.tick_speedup", r.Metrics["round_p50_ms"].Value/quietQuantile(m.log.walls(), 0.5), m.log.rounds())
	return pop.audit()
}

// cycleStats collects, per fail-rebuild-rejoin cycle, the failure
// round's wall (ms), the FailDisk call (ms) and the FailDisk-to-healthy
// wall (s), plus the cycles' rounds and rebuild reads.
type cycleStats struct {
	failRound, failDisk, rebuild []float64
	rounds, reads                int64
}

// runRebuild: one array with unlimited spares; cycle k fails disk
// k mod d the moment the array is healthy again. A round is FailDisk
// (when due) + Tick + drain, because a detector-declared failure runs
// the same handler inside Tick.
func runRebuild(p params) (*result, error) {
	r := newResult(wlRebuild, p)
	size := rebuildSize(p)
	cfg := arrayConfig(size.d, size.q, 1<<30)
	pop, setup, err := repeatSetup(p.setups(3), p.processStart, func() (*corePop, error) {
		return warmCorePop(cfg, p.seed, size)
	}, nil)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, p.setups(3))
	cycles := p.scale(4, 2)
	r.note("closed loop, 1 goroutine, %d streams, %d fail-rebuild-rejoin cycles, deadline %.2f ms",
		size.streams, cycles, pop.srv.RoundDuration().Seconds()*1e3)

	// cycle fails the disk and runs rounds on m until the array is
	// healthy again.
	cycle := func(m *coreMeter, cs *cycleStats, disk int) error {
		reads0 := pop.srv.Stats().RebuildReads
		tFail := time.Now()
		var failNs int64
		wall, err := m.round(func() error {
			t := time.Now()
			err := pop.srv.FailDisk(disk)
			failNs = int64(time.Since(t))
			return err
		}, "core.Server.FailDisk")
		if err != nil {
			return err
		}
		cs.failRound = append(cs.failRound, float64(wall)/1e6)
		cs.failDisk = append(cs.failDisk, float64(failNs)/1e6)
		cs.rounds++ // the failure round
		for n := 0; pop.srv.Mode() != core.ModeHealthy; n++ {
			if n > 100000 {
				return fmt.Errorf("rebuild of disk %d does not finish", disk)
			}
			if _, err := m.round(nil, ""); err != nil {
				return err
			}
			cs.rounds++
		}
		cs.rebuild = append(cs.rebuild, time.Since(tFail).Seconds())
		cs.reads += pop.srv.Stats().RebuildReads - reads0
		if err := pop.srv.CheckAdmission(); err != nil {
			return fmt.Errorf("after rebuilding disk %d: %w", disk, err)
		}
		return nil
	}

	ab := newABMeters(pop, p, 16*cycles)
	var cs, discard cycleStats
	settle()
	start, before, t0 := pop.counts(), readGoCounters(), time.Now()
	done0 := pop.srv.Stats().RebuildsDone
	for k, n := 0, ab.chunks(cycles); k < n; k++ {
		m, stats := ab.pick(k), &cs
		if m == ab.off {
			stats = &discard
		}
		if err := cycle(m, stats, k%size.d); err != nil {
			return nil, err
		}
	}
	ab.loopNs = int64(time.Since(t0))
	ab.report(r, before, readGoCounters())
	r.set("fail_round_p50_ms", median(cs.failRound), cycles)
	r.set("rebuild_p50_s", median(cs.rebuild), cycles)
	r.set("core.faildisk_ms", median(cs.failDisk), cycles)
	r.set("core.rebuild_rounds", float64(cs.rounds)/float64(cycles), 0)
	r.set("core.rebuild_reads_per_round", float64(cs.reads)/float64(cs.rounds), 0)
	if done := pop.srv.Stats().RebuildsDone - done0; done != ab.chunks(cycles) {
		return nil, fmt.Errorf("%d rebuilds completed, want %d", done, ab.chunks(cycles))
	}
	if err := ab.finish(r, pop.counts().since(start)); err != nil {
		return nil, err
	}
	if p.traced {
		lay, store := standaloneStore(cfg, size, p.seed)
		replayReadPath(r, cfg, size, lay, store)
		replayRepair(r, cfg, size, store, p.seed)
		if err := writeSpans(ab.tr, p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func writeSpans(tr *tracer, p params) error {
	if p.spanFile == "" {
		return nil
	}
	return tr.write(p.spanFile)
}
