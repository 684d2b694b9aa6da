package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"ftcms/internal/faultinject"
	"ftcms/internal/health"
	"ftcms/internal/layout"
)

// scrubServer builds a declustered server with fault injection armed and
// one clip loaded, returning the server and the clip bytes.
func scrubServer(t *testing.T, cfg Config, clipLen int) (*Server, []byte) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clip := clipBytes(3, clipLen)
	if err := s.AddClip("a", clip); err != nil {
		t.Fatal(err)
	}
	return s, clip
}

func tick(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
	}
}

// TestScrubDisabledByDefault pins that ScrubRate 0 (the zero value)
// leaves rot latent: no sweeps run, nothing is detected, and the
// checksum audit still sees the mismatch.
func TestScrubDisabledByDefault(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	s, _ := scrubServer(t, cfg, 64_000)
	s.InjectFaults(faultinject.Plan{Seed: 7})
	addr := s.lay.Place(2)
	s.injector.AddSilentCorruption(faultinject.SilentCorruption{
		Disk: addr.Disk, Block: addr.Block, From: 1, Bits: 3,
	})
	tick(t, s, 10)
	st := s.Stats()
	if st.CorruptionsInjected != 1 {
		t.Fatalf("CorruptionsInjected = %d, want 1", st.CorruptionsInjected)
	}
	if st.CorruptionsDetected != 0 || st.CorruptionRepairs != 0 || st.ScrubCycles != 0 {
		t.Fatalf("scrub ran while disabled: %+v", st)
	}
	if audit := s.store.Array.AuditChecksums(); len(audit) != 1 {
		t.Fatalf("audit = %v, want exactly the injected mismatch", audit)
	}
}

// TestScrubDetectsAndRepairsCorruption: a silent bit flip on a data
// block is caught by the patrol sweep and rewritten byte-exactly from
// its parity group, with no stream ever touching the block.
func TestScrubDetectsAndRepairsCorruption(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.ScrubRate = -1
	s, clip := scrubServer(t, cfg, 64_000)
	s.InjectFaults(faultinject.Plan{Seed: 7})
	addr := s.lay.Place(2)
	s.injector.AddSilentCorruption(faultinject.SilentCorruption{
		Disk: addr.Disk, Block: addr.Block, From: 1, Bits: 3,
	})
	tick(t, s, 6)
	st := s.Stats()
	if st.CorruptionsInjected != 1 || st.CorruptionsDetected != 1 || st.CorruptionRepairs != 1 {
		t.Fatalf("injected/detected/repaired = %d/%d/%d, want 1/1/1",
			st.CorruptionsInjected, st.CorruptionsDetected, st.CorruptionRepairs)
	}
	if st.ScrubCycles < 1 {
		t.Fatalf("ScrubCycles = %d, want >= 1", st.ScrubCycles)
	}
	if audit := s.store.Array.AuditChecksums(); len(audit) != 0 {
		t.Fatalf("audit after repair = %v, want clean", audit)
	}
	bb := s.cfg.Block.Bytes()
	got, err := readLogical(s, 2)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if !bytes.Equal(got, clip[2*bb:3*bb]) {
		t.Fatal("repaired block is not byte-exact")
	}
}

// TestScrubLeavesNoMark: the patrol's verify read copies and drops the
// bytes instead of borrowing them, so after a whole sweep every block's
// next write still lands in the buffer its slot holds and allocates
// nothing.
func TestScrubLeavesNoMark(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.ScrubRate = -1
	s, clip := scrubServer(t, cfg, 64_000)
	for s.Stats().ScrubCycles == 0 {
		tick(t, s, 1)
	}
	bb := s.cfg.Block.Bytes()
	for i := int64(0); i < 8; i++ {
		a, b := s.lay.Place(i), clip[i*bb:(i+1)*bb]
		if n := mallocs(func() { _ = s.store.Array.Write(a.Disk, a.Block, b) }); n != 0 {
			t.Errorf("block %d: a write after the sweep allocated %d objects, want 0", i, n)
		}
	}
}

// TestScrubStalledRepairCountsOnce: a rotten block at the end of a
// round's sweep finds its group's other disks out of idle slots, so its
// repair stalls and the patrol reads it again the next round. The rot is
// detected once, in the round the repair runs, not once per visit.
func TestScrubStalledRepairCountsOnce(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.ScrubRate = -1
	s, _ := scrubServer(t, cfg, 400_000)
	// The first sweep reads q rows a round, disk by disk: the last disk's
	// block of row q−1 comes after every other disk has spent its q slots.
	a := layout.BlockAddr{Disk: cfg.D - 1, Block: int64(cfg.Q - 1)}
	if err := s.store.Array.CorruptBits(a.Disk, a.Block, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	visits, read := 0, false
	s.store.Array.SetReadHook(func(disk int, block int64) (float64, error) {
		read = read || disk == a.Disk && block == a.Block
		return 0, nil
	})
	for round := 0; round < 10 && s.Stats().CorruptionRepairs == 0; round++ {
		read = false
		tick(t, s, 1)
		if read {
			visits++
		}
	}
	st := s.Stats()
	if visits != 2 {
		t.Fatalf("the patrol read the rotten block in %d rounds, want 2: the first repair must stall", visits)
	}
	if st.CorruptionsDetected != 1 || st.CorruptionRepairs != 1 {
		t.Fatalf("detected/repaired = %d/%d, want 1/1", st.CorruptionsDetected, st.CorruptionRepairs)
	}
}

// TestScrubStopsAtItsDeclaration: when the patrol's own verify read
// pushes a disk over the corruption threshold, the patrol stops in that
// read: the round's idle slots left after it belong to the rebuild the
// declaration starts, and the patrol makes no further read.
func TestScrubStopsAtItsDeclaration(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.ScrubRate = -1
	cfg.Spares = 1
	cfg.Health = health.Config{CorruptionThreshold: 4}
	s, _ := scrubServer(t, cfg, 400_000)
	inj := s.InjectFaults(faultinject.Plan{Seed: 11})
	inj.AddSilentCorruption(faultinject.SilentCorruption{
		Disk: s.lay.Place(0).Disk, Block: -1, Rate: 1, From: 1, Bits: 1,
	})
	var declared int64
	after := 0
	s.store.Array.SetReadHook(func(disk int, block int64) (float64, error) {
		if s.stats.DetectedFailures > declared {
			after++
		}
		return inj.Hook(disk, block)
	})
	for round := 0; round < 60; round++ {
		declared = s.stats.DetectedFailures
		tick(t, s, 1)
		if s.stats.DetectedFailures > declared {
			if after != 0 {
				t.Fatalf("round %d: the patrol read %d blocks after its read declared a disk failed, want 0", round, after)
			}
			return
		}
	}
	t.Fatal("the rotting disk was never declared failed")
}

// TestScrubRepairsParityBlock: rot on a parity block (which no stream
// ever reads) is found and recomputed from the group's data members.
func TestScrubRepairsParityBlock(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.ScrubRate = -1
	s, _ := scrubServer(t, cfg, 64_000)
	s.InjectFaults(faultinject.Plan{Seed: 7})
	g := groupOf(s.lay, 2)
	s.injector.AddSilentCorruption(faultinject.SilentCorruption{
		Disk: g.Parity.Disk, Block: g.Parity.Block, From: 1, Bits: 1,
	})
	tick(t, s, 6)
	st := s.Stats()
	if st.CorruptionsDetected != 1 || st.CorruptionRepairs != 1 {
		t.Fatalf("detected/repaired = %d/%d, want 1/1", st.CorruptionsDetected, st.CorruptionRepairs)
	}
	if audit := s.store.Array.AuditChecksums(); len(audit) != 0 {
		t.Fatalf("audit after repair = %v, want clean", audit)
	}
	if err := s.store.VerifyParity(2); err != nil {
		t.Fatalf("VerifyParity after repair: %v", err)
	}
}

// TestReadPathRepairsCorruption: with the scrubber off, a stream that
// hits a rotten block gets the true bytes via the contingency
// reconstruction path, and the block is rewritten in place.
func TestReadPathRepairsCorruption(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	s, clip := scrubServer(t, cfg, 64_000)
	s.InjectFaults(faultinject.Plan{Seed: 7})
	addr := s.lay.Place(4)
	s.injector.AddSilentCorruption(faultinject.SilentCorruption{
		Disk: addr.Disk, Block: addr.Block, From: 1, Bits: 2,
	})
	st, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s, st, 200)
	if !bytes.Equal(got, clip) {
		t.Fatal("stream bytes diverge after read-path repair")
	}
	stats := s.Stats()
	if stats.CorruptionsDetected != 1 || stats.CorruptionRepairs != 1 {
		t.Fatalf("detected/repaired = %d/%d, want 1/1", stats.CorruptionsDetected, stats.CorruptionRepairs)
	}
	if stats.Hiccups != 0 {
		t.Fatalf("Hiccups = %d, want 0 (repair rides contingency bandwidth)", stats.Hiccups)
	}
	if audit := s.store.Array.AuditChecksums(); len(audit) != 0 {
		t.Fatalf("audit = %v, want clean (read path rewrites)", audit)
	}
}

// TestScrubPausesWhileNotHealthy: in degraded mode every idle slot
// belongs to reconstruction, so the sweep freezes — rot injected during
// the outage stays latent — and resumes after the disk is repaired.
func TestScrubPausesWhileNotHealthy(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.ScrubRate = -1
	s, _ := scrubServer(t, cfg, 64_000)
	s.InjectFaults(faultinject.Plan{Seed: 7})
	tick(t, s, 3)
	cycles0 := s.Stats().ScrubCycles
	if cycles0 < 1 {
		t.Fatalf("ScrubCycles = %d before failure, want >= 1", cycles0)
	}

	if err := s.FailDisk(4); err != nil {
		t.Fatal(err)
	}
	// Rot a block whose group does not touch the failed disk, so repair
	// is possible the moment the scrubber is allowed to run again.
	var target layout.BlockAddr
	found := false
	for i := int64(0); i < s.nextFree && !found; i++ {
		addr, g := s.lay.Place(i), groupOf(s.lay, i)
		if addr.Disk == 4 || g.Parity.Disk == 4 {
			continue
		}
		ok := true
		for _, a := range g.DataAddr {
			if a.Disk == 4 {
				ok = false
			}
		}
		if ok {
			target, found = addr, true
		}
	}
	if !found {
		t.Fatal("no block with a group avoiding disk 4")
	}
	s.injector.AddSilentCorruption(faultinject.SilentCorruption{
		Disk: target.Disk, Block: target.Block, From: s.engine.Round() + 1, Bits: 1,
	})

	tick(t, s, 5)
	st := s.Stats()
	if st.Mode != ModeDegraded {
		t.Fatalf("Mode = %v, want degraded (no spares)", st.Mode)
	}
	if st.ScrubCycles != cycles0 || st.CorruptionsDetected != 0 {
		t.Fatalf("scrub advanced while degraded: cycles %d->%d, detected %d",
			cycles0, st.ScrubCycles, st.CorruptionsDetected)
	}
	if audit := s.store.Array.AuditChecksums(); len(audit) != 1 {
		t.Fatalf("audit while degraded = %v, want the latent mismatch", audit)
	}

	if err := s.RepairDisk(4); err != nil {
		t.Fatal(err)
	}
	tick(t, s, 6)
	st = s.Stats()
	if st.ScrubCycles <= cycles0 || st.CorruptionRepairs != 1 {
		t.Fatalf("scrub did not resume after repair: cycles %d->%d, repairs %d",
			cycles0, st.ScrubCycles, st.CorruptionRepairs)
	}
	if audit := s.store.Array.AuditChecksums(); len(audit) != 0 {
		t.Fatalf("audit after resume = %v, want clean", audit)
	}
}

// TestCorruptionThresholdEscalatesToRebuild: a disk rotting faster than
// the scrubber can excuse crosses CorruptionThreshold, is declared
// failed by the detector, and takes the normal hot-spare rebuild exit.
func TestCorruptionThresholdEscalatesToRebuild(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.ScrubRate = -1
	cfg.Spares = 1
	cfg.Health = health.Config{CorruptionThreshold: 4}
	s, clip := scrubServer(t, cfg, 64_000)
	s.InjectFaults(faultinject.Plan{Seed: 11})
	rotten := s.lay.Place(0).Disk
	s.injector.AddSilentCorruption(faultinject.SilentCorruption{
		Disk: rotten, Block: -1, Rate: 1, From: 1, Bits: 1,
	})

	declared := false
	for i := 0; i < 60; i++ {
		tick(t, s, 1)
		if st := s.Stats(); st.RebuildsDone == 1 && st.Mode == ModeHealthy {
			declared = true
			break
		}
	}
	if !declared {
		t.Fatal("rotten disk was never declared failed and rebuilt")
	}
	st := s.Stats()
	if st.DetectedFailures != 1 || st.SparesLeft != 0 {
		t.Fatalf("DetectedFailures/SparesLeft = %d/%d, want 1/0", st.DetectedFailures, st.SparesLeft)
	}
	if got := len(st.DetectLatencies); got != 1 {
		t.Fatalf("detector declared %d disks, want 1", got)
	}
	// Replacement cleared the rot plan; a few more sweeps leave the
	// array byte-perfect.
	tick(t, s, 4)
	if audit := s.store.Array.AuditChecksums(); len(audit) != 0 {
		t.Fatalf("audit after rebuild = %v, want clean", audit)
	}
	str, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, s, str, 200); !bytes.Equal(got, clip) {
		t.Fatal("clip bytes diverge after corruption-declared rebuild")
	}
}

// TestChaosCorruptionIntegrity is the end-to-end integrity acceptance
// test: a three-phase corruption campaign — a storm across three disks,
// rot concurrent with a fail-stop and its rebuild, then a disk rotting
// past CorruptionThreshold into a second hot-spare rebuild — runs under
// live verified streams. Every injected flip must be detected and
// repaired byte-exactly, the Equation-1 budget audited every round, and
// no admitted stream may miss a round. Run with -race.
func TestChaosCorruptionIntegrity(t *testing.T) {
	const d, p = 7, 3
	cfg := testConfig(Declustered, d, p)
	cfg.Buffer = 256 * 1000 * 1000 * 8
	cfg.Spares = 2
	cfg.ScrubRate = -1
	cfg.Health = health.Config{CorruptionThreshold: 40}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(faultinject.Plan{
		Seed:      42,
		FailStops: []faultinject.FailStop{{Disk: 0, Round: 100}},
	})
	clips := make([][]byte, 8)
	for i := range clips {
		clips[i] = clipBytes(int64(2000+i), 56_000+i*8000)
		if err := s.AddClip(string(rune('a'+i)), clips[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Explicit corruption targets with pairwise-disjoint parity groups:
	// single parity repairs any one rotten member, so the storm must
	// never hold two flips in one group at once. Confining each target
	// to a fresh group guarantees that regardless of repair latency.
	usedGroup := make(map[layout.BlockAddr]bool)
	pickTargets := func(want int, ok func(layout.BlockAddr, layout.Group) bool) []layout.BlockAddr {
		var out []layout.BlockAddr
		for i := int64(0); i < s.nextFree && len(out) < want; i++ {
			addr, g := s.lay.Place(i), groupOf(s.lay, i)
			if usedGroup[g.Parity] || !ok(addr, g) {
				continue
			}
			usedGroup[g.Parity] = true
			out = append(out, addr)
		}
		return out
	}

	// Phase A (rounds 10..61): storm across disks 1, 2 and 3.
	stormA := pickTargets(18, func(a layout.BlockAddr, g layout.Group) bool {
		return a.Disk >= 1 && a.Disk <= 3
	})
	if len(stormA) < 10 {
		t.Fatalf("phase A found only %d disjoint-group targets", len(stormA))
	}
	for k, a := range stormA {
		s.injector.AddSilentCorruption(faultinject.SilentCorruption{
			Disk: a.Disk, Block: a.Block, From: int64(10 + 3*k), Bits: 1 + k%3,
		})
	}
	// Phase C (rounds 100..114, concurrent with disk 0's fail-stop and
	// rebuild): rot only blocks whose groups avoid disk 0, so every one
	// stays repairable while the rebuild owns that disk.
	stormC := pickTargets(8, func(a layout.BlockAddr, g layout.Group) bool {
		if a.Disk == 0 || g.Parity.Disk == 0 {
			return false
		}
		for _, m := range g.DataAddr {
			if m.Disk == 0 {
				return false
			}
		}
		return true
	})
	if len(stormC) < 4 {
		t.Fatalf("phase C found only %d disjoint-group targets", len(stormC))
	}
	for k, a := range stormC {
		s.injector.AddSilentCorruption(faultinject.SilentCorruption{
			Disk: a.Disk, Block: a.Block, From: int64(100 + 2*k), Bits: 2,
		})
	}
	explicit := int64(len(stormA) + len(stormC))
	// Phase D (round 200 until replacement): disk 5 rots one random
	// written block per round — a group holds at most one block per
	// disk, so single-disk rot never double-faults a group. The detector
	// crosses CorruptionThreshold and retires the disk to the last spare.
	s.injector.AddSilentCorruption(faultinject.SilentCorruption{
		Disk: 5, Block: -1, Rate: 1, From: 200, Bits: 1,
	})

	rng := rand.New(rand.NewSource(9))
	var streams []*chaosStream
	buf := make([]byte, 64<<10)
	verified, completed := 0, 0
	readAll := func(cs *chaosStream) {
		for {
			n, err := cs.st.Read(buf)
			if n > 0 {
				want := cs.clip[cs.offset : cs.offset+int64(n)]
				if !bytes.Equal(buf[:n], want) {
					t.Fatalf("stream bytes diverge at offset %d", cs.offset)
				}
				cs.offset += int64(n)
				verified += n
			}
			if errors.Is(err, io.EOF) {
				if cs.offset != int64(len(cs.clip)) {
					t.Fatalf("EOF at offset %d of %d", cs.offset, len(cs.clip))
				}
				completed++
				return
			}
			if errors.Is(err, ErrNoData) || n == 0 {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	for round := 0; round < 300; round++ {
		if len(streams) < 6 && rng.Intn(3) == 0 {
			id := rng.Intn(len(clips))
			st, err := s.OpenStream(string(rune('a' + id)))
			if err == nil {
				streams = append(streams, &chaosStream{st: st, clip: clips[id]})
			} else if !errors.Is(err, ErrAdmission) {
				t.Fatal(err)
			}
		}
		if err := s.Tick(); err != nil {
			t.Fatalf("round %d: Tick: %v", round, err)
		}
		if err := s.CheckAdmission(); err != nil {
			t.Fatalf("round %d: admission audit: %v", round, err)
		}
		live := streams[:0]
		for _, cs := range streams {
			readAll(cs)
			if !cs.st.done {
				live = append(live, cs)
			}
		}
		streams = live
	}

	st := s.Stats()
	if st.Hiccups != 0 {
		t.Fatalf("Hiccups = %d, want 0: the storm must never cost a deadline", st.Hiccups)
	}
	if st.Overflows != 0 {
		t.Fatalf("Overflows = %d, want 0: scrub and repair stay under q", st.Overflows)
	}
	if st.Terminated != 0 {
		t.Fatalf("Terminated = %d, want 0", st.Terminated)
	}
	if verified == 0 || completed == 0 {
		t.Fatalf("verified %d bytes, %d completions — chaos did not exercise streams", verified, completed)
	}
	if st.CorruptionsInjected < explicit {
		t.Fatalf("CorruptionsInjected = %d, want >= %d", st.CorruptionsInjected, explicit)
	}
	// Every explicit flip hit a distinct block, so each must show up as
	// its own detection and byte-exact repair; phase D adds more.
	if st.CorruptionRepairs < explicit {
		t.Fatalf("CorruptionRepairs = %d, want >= %d", st.CorruptionRepairs, explicit)
	}
	if st.CorruptionsDetected < st.CorruptionRepairs {
		t.Fatalf("detected %d < repaired %d", st.CorruptionsDetected, st.CorruptionRepairs)
	}
	if st.DetectedFailures != 2 || st.RebuildsDone != 2 {
		t.Fatalf("DetectedFailures/RebuildsDone = %d/%d, want 2/2 (fail-stop + rot threshold)",
			st.DetectedFailures, st.RebuildsDone)
	}
	if st.Mode != ModeHealthy || st.SparesLeft != 0 {
		t.Fatalf("Mode/SparesLeft = %v/%d, want healthy/0", st.Mode, st.SparesLeft)
	}
	if got := len(st.DetectLatencies); got != 2 {
		t.Fatalf("detector declared %d disks, want 2", got)
	}
	if st.ScrubCycles < 10 {
		t.Fatalf("ScrubCycles = %d, want >= 10", st.ScrubCycles)
	}
	// 100% repair: no block in the array fails its checksum, and every
	// clip reads back byte-exactly through the store.
	if audit := s.store.Array.AuditChecksums(); len(audit) != 0 {
		t.Fatalf("final audit = %v, want clean", audit)
	}
	bb := s.cfg.Block.Bytes()
	for i, clip := range clips {
		ci := s.clips[string(rune('a'+i))]
		for n := int64(0); n < ci.blocks; n++ {
			got, err := readLogical(s, ci.block(n))
			if err != nil {
				t.Fatalf("clip %d block %d: %v", i, n, err)
			}
			lo := n * bb
			hi := min(lo+bb, int64(len(clip)))
			if !bytes.Equal(got[:hi-lo], clip[lo:hi]) {
				t.Fatalf("clip %d block %d not byte-exact after campaign", i, n)
			}
		}
	}
}

// TestScrubPatrolsQColumn: under P+Q the sweep visits Q blocks too, and
// a scrub repair charges exactly the disks it reads. One Q block and one
// data block of another group rot; one full sweep on an otherwise idle
// array must find and repair both inside the round budget.
func TestScrubPatrolsQColumn(t *testing.T) {
	cfg := testConfig(DeclusteredPQ, 13, 4)
	cfg.ScrubRate = -1
	s, clip := scrubServer(t, cfg, 800_000)
	arr := s.store.Array
	data, q := s.lay.Place(7), groupOf(s.lay, 60).Q
	if g := groupOf(s.lay, 7); g.Q == q || q == data {
		t.Fatal("test wants rot in two different groups")
	}
	for _, a := range []layout.BlockAddr{data, q} {
		if err := arr.CorruptBits(a.Disk, a.Block, []uint64{5, 77}); err != nil {
			t.Fatal(err)
		}
	}
	reads := countReads(s)
	charged := make([]int, cfg.D)
	for round := 0; s.Stats().ScrubCycles == 0; round++ {
		if round > 200 {
			t.Fatal("sweep never completed")
		}
		tick(t, s, 1)
		for d := range charged {
			charged[d] += s.engine.Load(d)
		}
	}
	st := s.Stats()
	if st.CorruptionsDetected != 2 || st.CorruptionRepairs != 2 || st.Overflows != 0 {
		t.Fatalf("detected/repaired/overflows = %d/%d/%d, want 2/2/0",
			st.CorruptionsDetected, st.CorruptionRepairs, st.Overflows)
	}
	if audit := arr.AuditChecksums(); len(audit) != 0 {
		t.Fatalf("audit after sweep = %v, want clean", audit)
	}
	// Every charge is one read reaching its disk, except that the verify
	// read finding rot reached it twice for one charge: the detector
	// retries a corrupt block once before surfacing it.
	for d := range charged {
		want := reads[d]
		for _, a := range []layout.BlockAddr{data, q} {
			if a.Disk == d {
				want--
			}
		}
		if charged[d] != want {
			t.Errorf("disk %d: charged %d, want %d (reads less the retry at rot found)", d, charged[d], want)
		}
	}
	bb := s.cfg.Block.Bytes()
	if got, err := readLogical(s, 7); err != nil || !bytes.Equal(got, clip[7*bb:8*bb]) {
		t.Fatalf("repaired data block: err %v, byte-exact %v", err, err == nil)
	}
	for _, i := range []int64{7, 60} {
		if err := s.store.VerifyParity(i); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScrubReportsUnrecoverableGroup: two data members of one group rot.
// Under single parity each one's repair needs the other, so the patrol
// counts both as detected and lost once, and later sweeps pass them by
// instead of re-reading them until the detector declares their disks
// failed. P+Q closes both erasures and repairs them.
func TestScrubReportsUnrecoverableGroup(t *testing.T) {
	for _, tc := range []struct {
		scheme        Scheme
		repairs, lost int64
	}{
		{Declustered, 0, 2},
		{DeclusteredPQ, 2, 0},
	} {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			cfg := testConfig(tc.scheme, 13, 4)
			cfg.ScrubRate = -1
			s, _ := scrubServer(t, cfg, 400_000)
			g := groupOf(s.lay, 30)
			for _, a := range g.DataAddr[:2] {
				if err := s.store.Array.CorruptBits(a.Disk, a.Block, []uint64{9}); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 400 && s.Stats().ScrubCycles < 4; round++ {
				tick(t, s, 1)
				if err := s.CheckAdmission(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			st := s.Stats()
			if st.CorruptionsDetected != 2 || st.CorruptionRepairs != tc.repairs || st.LostBlocks != tc.lost {
				t.Fatalf("detected/repaired/lost = %d/%d/%d over %d sweeps, want 2/%d/%d",
					st.CorruptionsDetected, st.CorruptionRepairs, st.LostBlocks, st.ScrubCycles, tc.repairs, tc.lost)
			}
			if len(st.FailedDisks) != 0 || st.DetectedFailures != 0 || st.ScrubCycles < 4 {
				t.Fatalf("disks declared failed %v (%d failures), %d sweeps; want none and 4",
					st.FailedDisks, st.DetectedFailures, st.ScrubCycles)
			}
		})
	}
}
