package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"ftcms/internal/cluster"
	"ftcms/internal/core"
)

// zipfS is the clip-popularity skew of the churn workload.
const zipfS = 1.1

// abandonOneIn sessions are closed by the viewer before the clip ends.
const abandonOneIn = 16

// churnSize sizes the churn workload.
type churnSize struct {
	nodes, d, q, rep int
	nclips           int
	clipBlocks       int
	target           int // session population the refill aims at
	attempts         int // OpenStream attempts per round at most
	warmup           int
	auditEvery       int
}

func churnSizeOf(p params) churnSize {
	if p.smoke {
		return churnSize{nodes: 2, d: 32, q: 128, rep: 2, nclips: 32, clipBlocks: 4,
			target: 200, attempts: 100, warmup: 5, auditEvery: 5}
	}
	return churnSize{nodes: 4, d: 32, q: 128, rep: 2, nclips: 256, clipBlocks: 8,
		target: 4000, attempts: 1000, warmup: 60, auditEvery: 100}
}

// session is one viewer of the churn workload.
type session struct {
	st   *cluster.Stream
	clip int
	pos  int64
	// quitAt, when positive, is the byte position at which the viewer
	// abandons the session with Close.
	quitAt int64
	check  bool // byte-compare every block against the generator
}

// churnPop is a session population on a cluster, driven from one
// goroutine: Tick, Read every session, abandon some, refill.
type churnPop struct {
	size      churnSize
	seed      int64
	cl        *cluster.Cluster
	names     []string
	bs        int
	clipBytes int64
	rng       *rand.Rand
	picks     *rand.Zipf
	sessions  []session
	opened    int64 // sessions admitted so far; every 64th is checked

	scratch, want []byte

	attempted, missed, bytes      int64
	completed                     int64
	opens, rejects                int64
	record                        bool // off during set-up
	openNs, admittedNs, closeNs   []float64
	roundOpenNs, roundOpenCount   int64
	roundCloseNs, roundCloseCount int64
}

func newChurnPop(size churnSize, seed int64) (*churnPop, error) {
	cfg := cluster.Config{Replication: size.rep, TickWorkers: 1}
	for i := 0; i < size.nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, arrayConfig(size.d, size.q, 0))
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	bs := int(blockBits.Bytes())
	rng := rand.New(rand.NewSource(seed))
	p := &churnPop{
		size: size, seed: seed, cl: cl, bs: bs,
		clipBytes: int64(size.clipBlocks * bs),
		rng:       rng,
		picks:     rand.NewZipf(rng, zipfS, 1, uint64(size.nclips-1)),
		scratch:   make([]byte, bs), want: make([]byte, bs),
	}
	buf := make([]byte, p.clipBytes)
	for c := 0; c < size.nclips; c++ {
		fillClip(buf, bs, seed, c)
		p.names = append(p.names, clipName(c))
		if err := cl.AddClip(p.names[c], buf); err != nil {
			return nil, err
		}
	}
	for i := 0; i < size.warmup; i++ {
		if err := p.cl.Tick(); err != nil {
			return nil, err
		}
		if err := p.serve(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// serve is the part of a round after Tick: read every session's block,
// retire finished and abandoned sessions, then refill.
func (p *churnPop) serve() error {
	p.roundOpenNs, p.roundOpenCount, p.roundCloseNs, p.roundCloseCount = 0, 0, 0, 0
	keep := p.sessions[:0]
	for i := range p.sessions {
		s := &p.sessions[i]
		p.attempted++
		n, err := s.st.Read(p.scratch)
		if n == 0 && errors.Is(err, core.ErrNoData) {
			p.missed++
			s.check = false // offsets no longer line up with the generator
			keep = append(keep, *s)
			continue
		}
		if err != nil || n != p.bs {
			return fmt.Errorf("session on %s at byte %d: read %d bytes: %v", p.names[s.clip], s.pos, n, err)
		}
		if s.check {
			fillBlock(p.want, p.seed, s.clip, s.pos/int64(p.bs))
			if !bytes.Equal(p.scratch, p.want) {
				return fmt.Errorf("session on %s: block %d differs from the generated clip", p.names[s.clip], s.pos/int64(p.bs))
			}
		}
		s.pos += int64(n)
		p.bytes += int64(n)
		switch {
		case s.pos >= p.clipBytes:
			// The next Read reports the end of the clip, which is what
			// retires the session inside the cluster.
			if n, err := s.st.Read(p.scratch); n != 0 || err != io.EOF {
				return fmt.Errorf("session on %s: read past the end gave %d bytes, %v", p.names[s.clip], n, err)
			}
			p.completed++
		case s.quitAt > 0 && s.pos >= s.quitAt:
			t0 := time.Now()
			s.st.Close()
			d := int64(time.Since(t0))
			p.roundCloseNs += d
			p.roundCloseCount++
			if p.record {
				p.closeNs = append(p.closeNs, float64(d))
			}
		default:
			keep = append(keep, *s)
		}
	}
	for i := len(keep); i < len(p.sessions); i++ {
		p.sessions[i] = session{}
	}
	p.sessions = keep

	for a := 0; a < p.size.attempts && len(p.sessions) < p.size.target; a++ {
		c := int(p.picks.Uint64())
		t0 := time.Now()
		st, err := p.cl.OpenStream(p.names[c])
		d := int64(time.Since(t0))
		p.roundOpenNs += d
		p.roundOpenCount++
		p.opens++
		if p.record {
			p.openNs = append(p.openNs, float64(d))
		}
		if errors.Is(err, core.ErrAdmission) {
			p.rejects++ // not retried this round
			continue
		}
		if err != nil {
			return err
		}
		if p.record {
			p.admittedNs = append(p.admittedNs, float64(d))
		}
		s := session{st: st, clip: c, check: p.opened%verifyEvery == 0}
		if p.rng.Intn(abandonOneIn) == 0 && p.size.clipBlocks > 1 {
			s.quitAt = int64(1+p.rng.Intn(p.size.clipBlocks-1)) * int64(p.bs)
		}
		p.opened++
		p.sessions = append(p.sessions, s)
	}
	return nil
}

// audit checks every node's ledger against the admitted population.
func (p *churnPop) audit() error {
	for i := 0; i < p.cl.NodeCount(); i++ {
		srv := p.cl.NodeServer(i)
		if err := srv.CheckAdmission(); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if st := srv.Stats(); st.Overflows != 0 || st.LostBlocks != 0 {
			return fmt.Errorf("node %d reports overflows=%d lost_blocks=%d, want 0", i, st.Overflows, st.LostBlocks)
		}
	}
	return nil
}

// runChurn: short Zipf-picked sessions on a 4-node cluster. Session
// lifecycle dominates and steady-state reads are the minority.
func runChurn(p params) (*result, error) {
	r := newResult(wlChurn, p)
	size := churnSizeOf(p)
	pop, setup, err := repeatSetup(p.setups(5), p.processStart, func() (*churnPop, error) {
		return newChurnPop(size, p.seed)
	}, nil)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, p.setups(5))
	rounds := p.scale(115, 20)
	deadlineNs := int64(pop.cl.NodeServer(0).RoundDuration().Seconds() * 1e9)
	r.note("closed loop, 1 goroutine, %d nodes x replication %d, target %d sessions of %d blocks, %d measured rounds after %d warm-up, deadline %.2f ms",
		size.nodes, size.rep, size.target, size.clipBlocks, rounds, size.warmup, float64(deadlineNs)/1e6)

	epoch := time.Now()
	// roundStats is what the rounds of one kind (spans on, or off) add
	// up to. A traced run alternates chunks of both kinds; see abMeters.
	type roundStats struct {
		log            roundLog
		tickNs, readNs []float64
		sessions       []int64
		late           int64
	}
	newRoundStats := func() *roundStats {
		return &roundStats{
			log:    newRoundLog(rounds),
			tickNs: make([]float64, 0, rounds), readNs: make([]float64, 0, rounds),
			sessions: make([]int64, 0, rounds),
		}
	}
	var tr *tracer
	if p.traced {
		tr = newTracer(5 * rounds)
	}
	round := func(i int, ss *roundStats, tr *tracer) error {
		att0, miss0, done0 := pop.attempted, pop.missed, pop.completed
		t0 := nowNs(epoch)
		root := tr.add("round", "bench", -1, i, t0, t0, 1)
		if err := pop.cl.Tick(); err != nil {
			return err
		}
		tTick := nowNs(epoch)
		if err := pop.serve(); err != nil {
			return err
		}
		tEnd := nowNs(epoch)
		due := pop.attempted - att0
		delivered := due - (pop.missed - miss0)
		ss.log.add(t0, tEnd, delivered)
		ss.sessions = append(ss.sessions, pop.completed-done0)
		// Reads, closes and opens interleave inside serve; the aggregated
		// spans carry each kind's summed time and count.
		readNs := tEnd - tTick - pop.roundOpenNs - pop.roundCloseNs
		tr.add("cluster.Cluster.Tick", "cluster", root, i, t0, tTick, 1)
		tr.add("cluster.Stream.Read", "cluster", root, i, tTick, tTick+readNs, int(due))
		tr.add("cluster.Stream.Close", "cluster", root, i, tTick+readNs, tTick+readNs+pop.roundCloseNs, int(pop.roundCloseCount))
		tr.add("cluster.Cluster.OpenStream", "cluster", root, i, tEnd-pop.roundOpenNs, tEnd, int(pop.roundOpenCount))
		tr.setEnd(root, tEnd)
		if due > 0 {
			ss.tickNs = append(ss.tickNs, float64(tTick-t0)/float64(due))
			ss.readNs = append(ss.readNs, float64(readNs)/float64(due))
		}
		if tEnd-t0 > deadlineNs {
			ss.late += delivered
		}
		if (i+1)%size.auditEvery == 0 {
			if err := pop.audit(); err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
		}
		return nil
	}

	total := rounds
	if p.traced {
		total = 2 * rounds
	}
	// Sized for the worst case so that recording a sample never
	// reallocates inside a measured round.
	pop.openNs = make([]float64, 0, total*size.attempts)
	pop.admittedNs = make([]float64, 0, total*size.attempts)
	pop.record = true
	settle()
	att0, miss0, bytes0, opens0, rejects0 := pop.attempted, pop.missed, pop.bytes, pop.opens, pop.rejects
	before, loop0 := readGoCounters(), time.Now()
	ss, off := newRoundStats(), newRoundStats()
	for i := 0; i < total; i++ {
		if p.traced && (i/abChunkRounds)%2 == 0 {
			err = round(i, off, nil)
		} else {
			err = round(i, ss, tr)
		}
		if err != nil {
			return nil, err
		}
	}
	loopNs := int64(time.Since(loop0))
	after := readGoCounters()
	if err := pop.audit(); err != nil {
		return nil, err
	}
	attempted, missed := pop.attempted-att0, pop.missed-miss0
	opens, rejects := pop.opens-opens0, pop.rejects-rejects0
	if got, want := pop.bytes-bytes0, (attempted-missed)*int64(pop.bs); got != want {
		return nil, fmt.Errorf("readers received %d bytes, %d delivered blocks make %d", got, attempted-missed, want)
	}
	if st := pop.cl.Stats(); int64(st.Rejected) != pop.rejects || int64(st.Served) != pop.completed {
		return nil, fmt.Errorf("cluster counts %d rejects and %d served, harness %d and %d",
			st.Rejected, st.Served, pop.rejects, pop.completed)
	}

	walls := ss.log.walls()
	r.Attempted, r.Failed = attempted, missed
	r.set("round_p50_ms", quietQuantile(walls, 0.50), rounds)
	r.set("round_p95_ms", quietQuantile(walls, 0.95), rounds)
	rate := ss.log.quietRate(ss.log.delivered, nil)
	r.set("stream_rounds_per_s", rate, 0)
	r.set("delivered_mb_per_s", rate*float64(pop.bs)/1e6, 0)
	r.set("sessions_per_s", ss.log.quietRate(ss.sessions, nil), 0)
	r.set("open_p50_us", quietQuantile(pop.openNs, 0.5)/1e3, len(pop.openNs))
	r.set("reject_ratio", float64(rejects)/float64(opens), 0)
	r.set("miss_ratio", float64(missed+ss.late+off.late)/float64(attempted), 0)
	admitted := quietQuantile(pop.admittedNs, 0.5)
	r.set("cluster.open_ns", admitted, len(pop.admittedNs))
	r.set("cluster.open_p99_us", quietQuantile(pop.openNs, 0.99)/1e3, len(pop.openNs))
	r.set("cluster.close_ns", quietQuantile(pop.closeNs, 0.5), len(pop.closeNs))
	r.set("cluster.tick_ns_per_sr", quietQuantile(ss.tickNs, 0.5), len(ss.tickNs))
	r.set("cluster.read_ns_per_sr", quietQuantile(ss.readNs, 0.5), len(ss.readNs))
	r.set("cluster.opens", float64(opens), 0)
	r.set("cluster.rejects", float64(rejects), 0)
	r.set("verify.delivered_bytes", float64(pop.bytes-bytes0), 0)
	r.set("harness.overhead_ns_per_round", float64(loopNs-ss.log.wallNs()-off.log.wallNs())/float64(total), 0)
	r.setGo(before, after)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, 0)
	if p.traced {
		r.set("trace.overhead_ratio", median(walls)/median(off.log.walls()), rounds)
		coreOpen := replayOpen(r, arrayConfig(size.d, size.q, 0), size, p.seed)
		r.set("cluster.route_overhead_ns", admitted-coreOpen, 0)
		if err := writeSpans(tr, p); err != nil {
			return nil, err
		}
	}
	return r, nil
}
