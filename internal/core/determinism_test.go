package core

// Determinism pin for the round tick: the same scenario run twice must
// produce bit-identical delivered bytes, Stats counters, and per-round
// rebuild/scrub progress. Two scenarios cover four regimes — healthy
// rounds, corruption-plus-repair rounds, a detected single fail-stop with
// spare rebuild, and the P+Q overlapping double failure.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"ftcms/internal/faultinject"
	"ftcms/internal/layout"
)

// runTrack follows one stream through a scenario run.
type runTrack struct {
	st   *Stream
	got  []byte
	done bool
	err  error
}

// drain pulls everything the stream has after a Tick.
func (tr *runTrack) drain(t *testing.T, buf []byte) {
	t.Helper()
	if tr.done {
		return
	}
	for {
		n, err := tr.st.Read(buf)
		tr.got = append(tr.got, buf[:n]...)
		switch {
		case errors.Is(err, io.EOF):
			tr.done = true
			return
		case errors.Is(err, ErrStreamLost):
			tr.done, tr.err = true, err
			return
		case errors.Is(err, ErrNoData) || n == 0:
			return
		case err != nil:
			t.Fatalf("Read: %v", err)
		}
	}
}

// runResult is everything one scenario run produced that two runs must
// agree on.
type runResult struct {
	trace []string // one compact state line per round
	bytes [][]byte // delivered bytes per stream, in open order
	stats Stats
}

// runScenario builds a server, loads clips, staggers streams open
// round-robin over the clips (ticking through admission refusals), and
// runs rounds until every stream drains. hook runs before each Tick
// with the upcoming round index so scenarios can script mid-run events.
func runScenario(t *testing.T, cfg Config, plan faultinject.Plan, clips [][]byte, streams, maxRounds int,
	hook func(t *testing.T, s *Server, tracks []*runTrack, round int)) runResult {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(plan)
	for i, c := range clips {
		if err := s.AddClip(fmt.Sprintf("c%03d", i), c); err != nil {
			t.Fatal(err)
		}
	}
	var (
		tracks []*runTrack
		trace  []string
		buf    = make([]byte, 64<<10)
		round  = 0
	)
	tick := func() {
		if hook != nil {
			hook(t, s, tracks, round)
		}
		if err := s.Tick(); err != nil {
			t.Fatalf("Tick round %d: %v", round, err)
		}
		for _, tr := range tracks {
			tr.drain(t, buf)
		}
		st := s.Stats()
		trace = append(trace, fmt.Sprintf(
			"r%d m=%s act=%d srv=%d hic=%d ovf=%d term=%d det=%d rbd=%d rbp=%d/%d rbr=%d ci=%d cd=%d cr=%d sc=%d/%d bb=%d lb=%d",
			st.Rounds, st.Mode, st.Active, st.Served, st.Hiccups, st.Overflows,
			st.Terminated, st.DetectedFailures, st.RebuildsDone, st.RebuildPending,
			st.RebuildTotal, st.RebuildReads, st.CorruptionsInjected,
			st.CorruptionsDetected, st.CorruptionRepairs, st.ScrubScanned,
			st.ScrubTotal, st.BadBlockRepairs, st.LostBlocks))
		round++
	}
	for len(tracks) < streams {
		st, err := s.OpenStream(fmt.Sprintf("c%03d", len(tracks)%len(clips)))
		if errors.Is(err, ErrAdmission) {
			if round >= maxRounds {
				t.Fatalf("only %d/%d streams admitted in %d rounds", len(tracks), streams, round)
			}
			tick()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		tracks = append(tracks, &runTrack{st: st})
	}
	for {
		alldone := true
		for _, tr := range tracks {
			if !tr.done {
				alldone = false
				break
			}
		}
		if alldone {
			break
		}
		if round >= maxRounds {
			t.Fatalf("streams not drained after %d rounds", maxRounds)
		}
		tick()
	}
	res := runResult{trace: trace, stats: s.Stats()}
	for _, tr := range tracks {
		if tr.err != nil {
			t.Fatalf("stream terminated: %v", tr.err)
		}
		res.bytes = append(res.bytes, tr.got)
	}
	return res
}

// compareRuns asserts two runs agree on every observable: per-round
// progress, final counters, and each stream's delivered bytes.
func compareRuns(t *testing.T, a, b runResult) {
	t.Helper()
	if len(a.trace) != len(b.trace) {
		t.Fatalf("round counts differ: %d vs %d", len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("round %d diverged:\n  first:  %s\n  second: %s", i, a.trace[i], b.trace[i])
		}
	}
	if !reflect.DeepEqual(a.stats, b.stats) {
		t.Fatalf("final stats diverged:\n  first:  %+v\n  second: %+v", a.stats, b.stats)
	}
	if len(a.bytes) != len(b.bytes) {
		t.Fatalf("stream counts differ: %d vs %d", len(a.bytes), len(b.bytes))
	}
	for i := range a.bytes {
		if !bytes.Equal(a.bytes[i], b.bytes[i]) {
			t.Fatalf("stream %d delivered different bytes (%d vs %d)",
				i, len(a.bytes[i]), len(b.bytes[i]))
		}
	}
}

// declusteredScenario: healthy rounds, then mid-run silent corruption
// repaired on the read path (a paused stream seeks back over the rotten
// block), then a scripted fail-stop with detection, spare rebuild and
// rejoin — all while the patrol scrubber advances.
func declusteredScenario(t *testing.T) runResult {
	t.Helper()
	cfg := testConfig(Declustered, 64, 8)
	cfg.Spares = 1
	cfg.ScrubRate = 4
	// Fail a disk outside logical block 2's parity group: the scenario
	// also rots that block (clip 0 is first, so its block 2 is logical
	// 2), and a repair colliding with the failed disk would make the
	// group legitimately unrecoverable instead of exercising repair.
	lay, err := layout.NewDeclustered(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.GroupOf(2)
	inGroup := map[int]bool{lay.Place(2).Disk: true, g.Parity.Disk: true}
	for _, a := range g.DataAddr {
		inGroup[a.Disk] = true
	}
	failDisk := 0
	for inGroup[failDisk] {
		failDisk++
	}
	plan := faultinject.Plan{
		Seed:      11,
		FailStops: []faultinject.FailStop{{Disk: failDisk, Round: 16}},
	}
	clips := make([][]byte, 64)
	for i := range clips {
		clips[i] = clipBytes(int64(100+i), 320_000)
	}
	hook := func(t *testing.T, s *Server, tracks []*runTrack, round int) {
		switch round {
		case 8:
			// Rot a block near the front of clip 0 after every opening
			// stream has read past it; the round-10 seek rereads it.
			addr := s.lay.Place(s.clips["c000"].block(2))
			s.injector.AddSilentCorruption(faultinject.SilentCorruption{
				Disk: addr.Disk, Block: addr.Block, From: 9, Bits: 3,
			})
		case 10:
			tr := tracks[0]
			if err := tr.st.Pause(); err != nil {
				t.Fatalf("Pause: %v", err)
			}
			if err := tr.st.SeekTo(0); err != nil {
				t.Fatalf("SeekTo: %v", err)
			}
		}
		// Re-admit the seeked stream as soon as the full population
		// leaves room (its slot was given away by Pause).
		if round >= 10 && tracks[0].st.paused {
			if err := tracks[0].st.Resume(); err != nil && !errors.Is(err, ErrAdmission) {
				t.Fatalf("Resume: %v", err)
			}
		}
	}
	res := runScenario(t, cfg, plan, clips, 280, 600, hook)
	st := res.stats
	if st.CorruptionsInjected != 1 || st.CorruptionsDetected < 1 || st.CorruptionRepairs < 1 {
		t.Fatalf("corruption regime not exercised: injected/detected/repaired = %d/%d/%d",
			st.CorruptionsInjected, st.CorruptionsDetected, st.CorruptionRepairs)
	}
	if st.DetectedFailures != 1 || st.RebuildsDone != 1 {
		t.Fatalf("failure regime not exercised: detected=%d rebuilds=%d",
			st.DetectedFailures, st.RebuildsDone)
	}
	return res
}

// pqScenario: healthy rounds, then the P+Q overlapping double fail-stop
// inside block 0's parity group, survived by every stream and drained by
// a dual spare rebuild.
func pqScenario(t *testing.T) runResult {
	t.Helper()
	cfg := testConfig(DeclusteredPQ, 57, 8)
	cfg.Spares = 2
	lay, err := layout.NewDeclusteredPQ(57, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Plan{Seed: 3}
	plan.Overlap(lay.Place(0).Disk, lay.GroupOf(0).Parity.Disk, 12, 1)
	clips := make([][]byte, 64)
	for i := range clips {
		clips[i] = clipBytes(int64(500+i), 320_000)
	}
	res := runScenario(t, cfg, plan, clips, 280, 600, nil)
	st := res.stats
	if st.DetectedFailures != 2 || st.RebuildsDone != 2 {
		t.Fatalf("double-failure regime not exercised: detected=%d rebuilds=%d",
			st.DetectedFailures, st.RebuildsDone)
	}
	if st.Terminated != 0 || st.LostBlocks != 0 {
		t.Fatalf("P+Q overlap lost streams: terminated=%d lost=%d", st.Terminated, st.LostBlocks)
	}
	return res
}

func TestTickShardDeterminismDeclustered(t *testing.T) {
	compareRuns(t, declusteredScenario(t), declusteredScenario(t))
}

func TestTickShardDeterminismPQ(t *testing.T) {
	compareRuns(t, pqScenario(t), pqScenario(t))
}
