package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"ftcms/internal/units"
)

// This file adds silent-corruption and patrol-scrub accounting to the
// round-granularity simulator, mirroring the core server's integrity
// subsystem at aggregate scale: scripted corruption events drop rotten
// blocks at pseudo-random positions on a disk, a per-disk scrub cursor
// sweeps the address space with whatever idle capacity the round leaves
// under q (streams always come first), a cursor passing a rotten block
// detects it, and each detected block owes p−1 reconstruction reads that
// are paid from the round's leftover idle pool. Scrubbing pauses while
// any failure is outstanding — during degraded mode and rebuilds every
// idle read belongs to reconstruction — and a disk that fails takes its
// undetected rot with it (the rebuild writes clean blocks).

// CorruptionEvent scripts one burst of silent at-rest corruption:
// Blocks rotten blocks land on Disk at time At, at pseudo-random
// positions drawn from the run's seed. The flips are silent — only the
// patrol scrub (Config.ScrubRate) detects and repairs them.
type CorruptionEvent struct {
	Disk   int
	At     units.Duration
	Blocks int
}

// rotBlock is one outstanding undetected rotten block.
type rotBlock struct {
	pos   int64 // position on the disk, in blocks
	round int64 // round the rot landed (for detection-latency stats)
}

// scrubModel is the per-run integrity state; nil when the run scripts no
// corruption and no scrubbing.
type scrubModel struct {
	rate      int   // verify reads per disk per round; <0 = idle-bounded
	blocksPer int64 // blocks per disk
	// repairCost is reconstruction reads per repaired block: p−1 group
	// members, except streaming RAID where the group read that serves
	// the clip already carries every member (one slot).
	repairCost int64
	cursor     []int64
	wraps      []int64
	rot        [][]rotBlock
	rng        *rand.Rand
	events     []CorruptionEvent
	nextEvent  int
	// undetected→detected→repaired pipeline counters live in res;
	// pendingRepairs is the detected-but-not-yet-repaired backlog.
	pendingRepairs int64
	detectRounds   int64 // summed injection→detection latency
}

// initScrub validates and arms the integrity model.
func (e *engine) initScrub() error {
	if e.cfg.ScrubRate == 0 && len(e.cfg.Corruptions) == 0 {
		return nil
	}
	for _, ev := range e.cfg.Corruptions {
		if ev.Disk < 0 || ev.Disk >= e.cfg.D {
			return fmt.Errorf("sim: corruption disk %d out of range [0, %d)", ev.Disk, e.cfg.D)
		}
		if ev.At < 0 || ev.Blocks <= 0 {
			return fmt.Errorf("sim: corruption event needs At >= 0 and Blocks > 0, got %+v", ev)
		}
	}
	m := &scrubModel{
		rate:       e.cfg.ScrubRate,
		blocksPer:  int64(e.cfg.Disk.Capacity / e.op.Block),
		repairCost: int64(e.cfg.P - 1),
		cursor:     make([]int64, e.cfg.D),
		wraps:      make([]int64, e.cfg.D),
		rot:        make([][]rotBlock, e.cfg.D),
		rng:        rand.New(rand.NewSource(e.cfg.Seed + 2)),
		events:     append([]CorruptionEvent(nil), e.cfg.Corruptions...),
	}
	if e.cfg.Scheme.GroupFetch() {
		m.repairCost = 1 // the group read yields the parity
	}
	if m.blocksPer < 1 {
		m.blocksPer = 1
	}
	sort.SliceStable(m.events, func(i, j int) bool { return m.events[i].At < m.events[j].At })
	e.scrub = m
	return nil
}

// dropRot discards disk x's undetected rot: the disk failed, and its
// rebuild writes clean reconstructed blocks over whatever had rotted.
func (e *engine) dropRot(x int) {
	if e.scrub != nil {
		e.scrub.rot[x] = nil
	}
}

// scrubStep runs one round of the integrity model: land due corruption
// events, advance the patrol cursors through idle capacity, detect rot
// the cursors pass, and pay repair reads from the leftover idle pool.
func (e *engine) scrubStep(now int64) {
	m := e.scrub
	if m == nil {
		return
	}
	for m.nextEvent < len(m.events) {
		ev := m.events[m.nextEvent]
		if int64(float64(ev.At)/float64(e.roundDur)) > now {
			break
		}
		m.nextEvent++
		for k := 0; k < ev.Blocks; k++ {
			m.rot[ev.Disk] = append(m.rot[ev.Disk], rotBlock{
				pos:   m.rng.Int63n(m.blocksPer),
				round: now,
			})
		}
		e.res.CorruptionsInjected += int64(ev.Blocks)
	}
	// The patrol yields entirely while any failure is outstanding:
	// degraded service and rebuilds own every idle read.
	if m.rate == 0 || len(e.failures) > 0 {
		return
	}

	// The round's idle capacity is one shared pool: patrol reads land on
	// the swept disk and repair reads on the group's members, but at
	// round granularity only the total matters — the core server's
	// per-disk Load < q check is what this aggregates.
	idle := make([]int64, e.cfg.D)
	var pool int64
	for i := range idle {
		if v := int64(e.op.Q) - e.dueLoad(now, i); v > 0 {
			idle[i] = v
			pool += v
		}
	}
	pay := func() {
		if m.pendingRepairs <= 0 || pool < m.repairCost {
			return
		}
		n := pool / m.repairCost
		if n > m.pendingRepairs {
			n = m.pendingRepairs
		}
		m.pendingRepairs -= n
		pool -= n * m.repairCost
		e.res.CorruptionsRepaired += n
	}
	// Backlogged repairs outrank fresh patrol reads for the pool.
	pay()
	for i := 0; i < e.cfg.D; i++ {
		adv := idle[i]
		if m.rate > 0 && int64(m.rate) < adv {
			adv = int64(m.rate)
		}
		if adv > pool {
			adv = pool
		}
		if adv > m.blocksPer {
			adv = m.blocksPer
		}
		if adv <= 0 {
			continue
		}
		pool -= adv
		lo := m.cursor[i]
		hi := lo + adv
		keep := m.rot[i][:0]
		for _, r := range m.rot[i] {
			// Detected when the cursor passes the position, including
			// across a wrap of the C-SCAN sweep.
			hit := r.pos >= lo && r.pos < hi
			if hi > m.blocksPer && r.pos < hi-m.blocksPer {
				hit = true
			}
			if hit {
				e.res.CorruptionsDetected++
				m.detectRounds += now - r.round
				m.pendingRepairs++
			} else {
				keep = append(keep, r)
			}
		}
		m.rot[i] = keep
		m.cursor[i] = hi % m.blocksPer
		if hi >= m.blocksPer {
			m.wraps[i]++
		}
	}
	// Fresh detections can still be repaired this round from whatever
	// idle the patrol left.
	pay()
}

// finishScrub folds the model's terminal state into the result.
func (e *engine) finishScrub() {
	m := e.scrub
	if m == nil {
		return
	}
	sweeps := int64(-1)
	for _, w := range m.wraps {
		if sweeps < 0 || w < sweeps {
			sweeps = w
		}
	}
	if sweeps > 0 {
		e.res.ScrubSweeps = sweeps
	}
	if e.res.CorruptionsDetected > 0 {
		e.res.MeanDetection = units.Duration(m.detectRounds) * e.roundDur /
			units.Duration(e.res.CorruptionsDetected)
	}
}
