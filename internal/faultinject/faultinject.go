// Package faultinject turns the storage array's single fail-stop switch
// into a programmable fault model. A Plan scripts, deterministically and
// reproducibly from a seed, the fault regimes real arrays exhibit beyond
// the paper's instant fail-stop assumption:
//
//   - FailStop: every read of a disk hard-errors from a given round on —
//     the paper's §2 failure, but *undetected* until the health layer
//     notices (the array's failure flag is NOT set by the injector).
//   - BadBlock: a latent sector error — one block unreadable, the rest of
//     the disk fine. The cure is per-block reconstruction, not disk
//     failure.
//   - Transient: reads error with probability p inside a round window —
//     a flaky cable or a recovering head. Retries may succeed.
//   - Slow: reads succeed but take a multiple of their nominal service
//     time inside a window — the "limping disk" that timeout detection,
//     not error counting, must catch.
//   - SilentCorruption: bits of a stored block flip at rest and the read
//     returns wrong bytes with NO error — the one fault the ReadHook
//     cannot express (hooks may veto a read, not rewrite its data).
//     The injector therefore emits CorruptionOrders via CorruptionsDue,
//     which the round driver applies to the array with CorruptBits;
//     only the checksum layer ever notices.
//
// The Injector compiles a Plan into a storage.ReadHook. It keeps its own
// round clock, advanced by whoever drives rounds (core.Server ticks it);
// all randomness is drawn from the plan's seed, so a given plan and read
// sequence replays exactly.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"

	"ftcms/internal/storage"
)

// FailStop fails every read of Disk from round Round onward (writes are
// unaffected — detection, not the injector, fail-stops the device).
type FailStop struct {
	Disk  int
	Round int64
}

// BadBlock makes one block of a healthy disk unreadable (ErrBadBlock)
// until cleared — a latent sector error. A rewrite of the block remaps
// the sector: the injector clears the entry when told via ClearBadBlock.
type BadBlock struct {
	Disk  int
	Block int64
}

// Transient makes reads of Disk fail with probability Prob during rounds
// [From, Until) (Until == 0 means forever). The errors are hard
// (storage.ErrFailed) but non-sticky: a retry re-rolls.
type Transient struct {
	Disk        int
	Prob        float64
	From, Until int64
}

// Slow multiplies the service time of reads of Disk by Factor during
// rounds [From, Until) (Until == 0 means forever). Reads still return
// correct data; only timing degrades.
type Slow struct {
	Disk        int
	Factor      float64
	From, Until int64
}

// SilentCorruption scripts at-rest bit rot on a disk. With Block >= 0
// it flips bits of that one block exactly once, at the first round at
// or after From the injector sees. With Block < 0 it runs a per-round
// Rate coin during [From, Until) (Until == 0 means forever) and, on
// heads, corrupts one pseudo-randomly chosen written block. Bits is the
// number of distinct bit positions to flip (0 selects 1). The flips are
// silent: reads of the block succeed at the device level and only the
// checksum layer can tell.
type SilentCorruption struct {
	Disk        int
	Block       int64
	Rate        float64
	From, Until int64
	// Bits is how many distinct bits flip per corruption event.
	Bits int
}

// CorruptionOrder is one bit-flip the driver must apply to the array
// (storage.Array.CorruptBits / CorruptRandomBlock). Block < 0 means
// "some written block", selected by Pick over the disk's written blocks
// in ascending order.
type CorruptionOrder struct {
	Disk  int
	Block int64
	Pick  uint64
	Bits  []uint64
}

// Plan scripts a run's faults. The zero value injects nothing.
type Plan struct {
	// Seed drives the transient-error and corruption coin flips.
	Seed        int64
	FailStops   []FailStop
	BadBlocks   []BadBlock
	Transients  []Transient
	Slows       []Slow
	Corruptions []SilentCorruption
}

// Overlap schedules the double-failure scenario the P+Q scheme is built
// for: disk1 fail-stops at round, disk2 follows within window rounds
// (window 0 means the same round — a simultaneous double failure). The
// plan gains two FailStops; pick two disks of one parity group to make
// the overlap actually stress a group's second redundancy column.
func (p *Plan) Overlap(disk1, disk2 int, round, window int64) {
	p.FailStops = append(p.FailStops,
		FailStop{Disk: disk1, Round: round},
		FailStop{Disk: disk2, Round: round + window},
	)
}

// Stats counts what the injector actually did, for test assertions.
type Stats struct {
	// HardErrors counts injected fail-stop and transient read errors.
	HardErrors int64
	// BadBlockErrors counts injected latent-sector errors.
	BadBlockErrors int64
	// SlowReads counts reads that were slowed.
	SlowReads int64
	// Corruptions counts silent-corruption orders emitted.
	Corruptions int64
}

// Injector applies a Plan to an array's reads. Install its Hook with
// storage.Array.SetReadHook and advance its clock with SetRound. Safe
// for concurrent use.
type Injector struct {
	mu    sync.Mutex
	plan  Plan
	rng   *rand.Rand
	round int64
	bad   map[[2]int64]bool // (disk, block) → latent error active
	corr  []corruptionEntry
	stats Stats
}

// corruptionEntry is a SilentCorruption plus its one-shot latch.
type corruptionEntry struct {
	SilentCorruption
	fired bool // explicit-block entries corrupt exactly once
}

// New compiles a plan. The plan is copied; later mutations go through
// the Add* methods.
func New(plan Plan) *Injector {
	in := &Injector{
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.Seed)),
		bad:  make(map[[2]int64]bool),
	}
	for _, b := range plan.BadBlocks {
		in.bad[[2]int64{int64(b.Disk), b.Block}] = true
	}
	for _, c := range plan.Corruptions {
		in.corr = append(in.corr, corruptionEntry{SilentCorruption: c})
	}
	return in
}

// SetRound moves the injector's round clock; round-scoped events key off
// it. The driver calls this once per service round.
func (in *Injector) SetRound(r int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.round = r
}

// Round returns the injector's current round.
func (in *Injector) Round() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.round
}

// AddFailStop schedules a fail-stop at runtime (the cmcluster FAIL demo
// alias injects through this).
func (in *Injector) AddFailStop(f FailStop) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan.FailStops = append(in.plan.FailStops, f)
}

// AddBadBlock marks a block as latently unreadable at runtime.
func (in *Injector) AddBadBlock(b BadBlock) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.bad[[2]int64{int64(b.Disk), b.Block}] = true
}

// AddTransient schedules a transient-error window at runtime.
func (in *Injector) AddTransient(tr Transient) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan.Transients = append(in.plan.Transients, tr)
}

// AddSlow schedules a slow-disk window at runtime.
func (in *Injector) AddSlow(s Slow) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan.Slows = append(in.plan.Slows, s)
}

// AddSilentCorruption schedules at-rest bit rot at runtime (the cmcluster
// CORRUPT demo alias injects through this).
func (in *Injector) AddSilentCorruption(c SilentCorruption) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.corr = append(in.corr, corruptionEntry{SilentCorruption: c})
}

// CorruptionsDue returns the silent-corruption orders due at the current
// round, advancing each entry's state: explicit-block entries fire once
// at the first round ≥ From; rate entries roll their per-round coin. The
// round driver must call this exactly once per round, after SetRound and
// before serving reads, so the seeded RNG sequence stays reproducible.
func (in *Injector) CorruptionsDue() []CorruptionOrder {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []CorruptionOrder
	for i := range in.corr {
		c := &in.corr[i]
		if c.Block >= 0 {
			if !c.fired && in.round >= c.From {
				c.fired = true
				out = append(out, CorruptionOrder{Disk: c.Disk, Block: c.Block, Bits: in.randBits(c.Bits)})
			}
			continue
		}
		if window(in.round, c.From, c.Until) && in.rng.Float64() < c.Rate {
			out = append(out, CorruptionOrder{Disk: c.Disk, Block: -1, Pick: in.rng.Uint64(), Bits: in.randBits(c.Bits)})
		}
	}
	in.stats.Corruptions += int64(len(out))
	return out
}

// randBits draws n distinct pseudo-random bit offsets (n ≤ 0 selects 1).
// Distinctness matters: two flips of the same bit cancel, and an order
// that nets out to zero flips would be "corruption" nothing can detect.
func (in *Injector) randBits(n int) []uint64 {
	if n <= 0 {
		n = 1
	}
	bits := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	for len(bits) < n {
		b := in.rng.Uint64()
		if seen[b] {
			continue
		}
		seen[b] = true
		bits = append(bits, b)
	}
	return bits
}

// ClearBadBlock removes a latent error — the model of a sector remap
// after the block is reconstructed and rewritten.
func (in *Injector) ClearBadBlock(disk int, block int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.bad, [2]int64{int64(disk), block})
}

// ClearDisk removes every scripted fault targeting the disk — the model
// of physically swapping a spare in for the failed device. The new drive
// inherits none of the old one's fail-stops, bad blocks, transients or
// slowdowns; events added afterwards target the new disk normally.
func (in *Injector) ClearDisk(disk int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	filterFS := in.plan.FailStops[:0]
	for _, f := range in.plan.FailStops {
		if f.Disk != disk {
			filterFS = append(filterFS, f)
		}
	}
	in.plan.FailStops = filterFS
	filterTR := in.plan.Transients[:0]
	for _, tr := range in.plan.Transients {
		if tr.Disk != disk {
			filterTR = append(filterTR, tr)
		}
	}
	in.plan.Transients = filterTR
	filterSL := in.plan.Slows[:0]
	for _, sl := range in.plan.Slows {
		if sl.Disk != disk {
			filterSL = append(filterSL, sl)
		}
	}
	in.plan.Slows = filterSL
	filterCO := in.corr[:0]
	for _, c := range in.corr {
		if c.Disk != disk {
			filterCO = append(filterCO, c)
		}
	}
	in.corr = filterCO
	for key := range in.bad {
		if key[0] == int64(disk) {
			delete(in.bad, key)
		}
	}
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

func window(round, from, until int64) bool {
	return round >= from && (until == 0 || round < until)
}

// Hook is the storage.ReadHook: it decides, per physical read, whether
// to inject an error and/or a slowdown. Precedence: fail-stop, then bad
// block, then transient; slowdowns stack multiplicatively with whichever
// verdict wins (a limping disk limps even while erroring).
func (in *Injector) Hook(disk int, block int64) (float64, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	slow := 1.0
	for _, s := range in.plan.Slows {
		if s.Disk == disk && s.Factor > 1 && window(in.round, s.From, s.Until) {
			slow *= s.Factor
		}
	}
	if slow > 1 {
		in.stats.SlowReads++
	}
	for _, f := range in.plan.FailStops {
		if f.Disk == disk && in.round >= f.Round {
			in.stats.HardErrors++
			return slow, fmt.Errorf("faultinject: fail-stop disk %d (round %d): %w", disk, in.round, storage.ErrFailed)
		}
	}
	if in.bad[[2]int64{int64(disk), block}] {
		in.stats.BadBlockErrors++
		return slow, fmt.Errorf("faultinject: latent error disk %d block %d: %w", disk, block, storage.ErrBadBlock)
	}
	for _, tr := range in.plan.Transients {
		if tr.Disk == disk && window(in.round, tr.From, tr.Until) && in.rng.Float64() < tr.Prob {
			in.stats.HardErrors++
			return slow, fmt.Errorf("faultinject: transient error disk %d (round %d): %w", disk, in.round, storage.ErrFailed)
		}
	}
	return slow, nil
}
