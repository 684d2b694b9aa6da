package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ftcms/internal/faultinject"
	"ftcms/internal/layout"
)

// The P+Q double-failure acceptance tests: two seeded overlapping
// fail-stops inside one parity group, detected by the health layer (no
// operator command), survived by every admitted stream byte-exactly
// with zero missed deadlines, while a dual online rebuild drains both
// failures on idle round capacity only — the Equation-1 budget audited
// on every round.

// pqTrack follows one stream, verifying every delivered byte in place.
type pqTrack struct {
	st   *Stream
	want []byte
	got  int64
	err  error // terminal: nil (EOF) or the termination reason
	done bool
}

// drainTick pulls everything a stream has after a Tick, comparing
// against want as it goes.
func (tr *pqTrack) drainTick(t *testing.T, buf []byte) {
	t.Helper()
	if tr.done {
		return
	}
	for {
		n, err := tr.st.Read(buf)
		if n > 0 {
			if tr.got+int64(n) > int64(len(tr.want)) {
				t.Fatalf("stream delivered %d bytes past clip end", tr.got+int64(n)-int64(len(tr.want)))
			}
			if !bytes.Equal(buf[:n], tr.want[tr.got:tr.got+int64(n)]) {
				t.Fatalf("corrupt byte delivered at offset %d", tr.got)
			}
			tr.got += int64(n)
		}
		if errors.Is(err, io.EOF) {
			tr.done = true
			return
		}
		if errors.Is(err, ErrStreamLost) {
			tr.done, tr.err = true, err
			return
		}
		if errors.Is(err, ErrNoData) || n == 0 {
			return
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
}

// pqOverlapServer builds the scenario: a (13, 4) projective-plane P+Q
// array with the given spares, and a fault plan fail-stopping block 0's
// own disk and its group's P disk within a 3-round window. It returns the
// server and the group's data, P and Q disks.
func pqOverlapServer(t *testing.T, spares int) (*Server, [3]int) {
	t.Helper()
	cfg := testConfig(DeclusteredPQ, 13, 4)
	cfg.Spares = spares
	lay, err := layout.NewDeclusteredPQ(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := groupOf(lay, 0)
	d1 := lay.Place(0).Disk
	d2 := g.Parity.Disk
	d3 := g.Q.Disk
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Plan{Seed: 3}
	plan.Overlap(d1, d2, 5, 1)
	s.InjectFaults(plan)
	return s, [3]int{d1, d2, d3}
}

// TestPQDoubleFailureChaos is the headline acceptance run: overlapping
// fail-stops on two disks of one parity group, four concurrent streams.
// Every stream must complete byte-exact with zero hiccups, the budget
// must balance every round, and both disks must rebuild and rejoin on
// idle capacity alone.
func TestPQDoubleFailureChaos(t *testing.T) {
	s, _ := pqOverlapServer(t, 2)
	// Clips big enough that each rebuild queue spans many rounds of
	// idle capacity — the two rebuilds must demonstrably overlap.
	clips := map[string][]byte{
		"a": clipBytes(21, 2_400_000),
		"b": clipBytes(22, 2_000_000),
		"c": clipBytes(23, 1_600_000),
	}
	for name, data := range clips {
		if err := s.AddClip(name, data); err != nil {
			t.Fatal(err)
		}
	}
	var tracks []*pqTrack
	for _, name := range []string{"a", "b", "c", "a"} {
		st, err := s.OpenStream(name)
		if err != nil {
			t.Fatalf("OpenStream(%s): %v", name, err)
		}
		tracks = append(tracks, &pqTrack{st: st, want: clips[name]})
	}

	buf := make([]byte, 64<<10)
	sawDual := false
	for round := 0; round < 4000; round++ {
		if err := s.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		st := s.Stats()
		// The budget audit, every round: no disk charged past q, and the
		// admitted population still satisfies the static invariant.
		if st.Overflows != 0 {
			t.Fatalf("round %d: %d budget overflows", round, st.Overflows)
		}
		if err := s.CheckAdmission(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(st.RebuildingDisks) == 2 {
			sawDual = true
		}
		for _, tr := range tracks {
			tr.drainTick(t, buf)
		}
		allDone := true
		for _, tr := range tracks {
			allDone = allDone && tr.done
		}
		if allDone && st.RebuildsDone == 2 {
			break
		}
	}

	for i, tr := range tracks {
		if !tr.done || tr.err != nil {
			t.Fatalf("stream %d: done=%v err=%v", i, tr.done, tr.err)
		}
		if tr.got != int64(len(tr.want)) {
			t.Fatalf("stream %d delivered %d of %d bytes", i, tr.got, len(tr.want))
		}
	}
	st := s.Stats()
	if !sawDual {
		t.Fatal("never observed two concurrent rebuilds")
	}
	if st.Hiccups != 0 {
		t.Fatalf("%d missed deadlines", st.Hiccups)
	}
	if st.Terminated != 0 || st.LostBlocks != 0 {
		t.Fatalf("terminated=%d lostBlocks=%d on a two-failure run", st.Terminated, st.LostBlocks)
	}
	if st.RebuildsDone != 2 || st.Mode != ModeHealthy {
		t.Fatalf("rebuildsDone=%d mode=%v, want 2 rebuilds and healthy", st.RebuildsDone, st.Mode)
	}
	if st.DetectedFailures != 2 {
		t.Fatalf("DetectedFailures = %d, want 2", st.DetectedFailures)
	}
	if st.RebuildReads == 0 {
		t.Fatal("rebuild read ledger stayed zero across a dual rebuild")
	}
	if lats := s.RebuildLatencies(); len(lats) != 2 {
		t.Fatalf("RebuildLatencies = %v, want two entries", lats)
	}
	// The store must be whole again: every block of every clip verifies
	// against both parity columns.
	for _, name := range clipNames(s) {
		ci := s.clips[name]
		for n := int64(0); n < ci.blocks; n++ {
			if err := s.store.VerifyParity(ci.block(n)); err != nil {
				t.Fatalf("after rejoin: %v", err)
			}
		}
	}
}

// TestPQThirdFailureGraceful overlaps a third fail-stop in the same
// parity group while the dual rebuild is in flight. Only streams whose
// remaining playback truly needs a stranded group may end — each with an
// explicit ErrStreamLost — and every other stream completes byte-exact.
func TestPQThirdFailureGraceful(t *testing.T) {
	s, disks := pqOverlapServer(t, 2)
	clips := map[string][]byte{
		"a": clipBytes(31, 2_400_000),
		"b": clipBytes(32, 96_000), // 12 blocks: may dodge the stranded groups
		"c": clipBytes(33, 2_000_000),
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := s.AddClip(name, clips[name]); err != nil {
			t.Fatal(err)
		}
	}
	var tracks []*pqTrack
	for _, name := range []string{"a", "b", "c"} {
		st, err := s.OpenStream(name)
		if err != nil {
			t.Fatal(err)
		}
		tracks = append(tracks, &pqTrack{st: st, want: clips[name]})
	}

	buf := make([]byte, 64<<10)
	thirdFailed := false
	expectLost := map[int]bool{}
	for round := 0; round < 4000; round++ {
		if err := s.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		st := s.Stats()
		if st.Overflows != 0 {
			t.Fatalf("round %d: %d budget overflows", round, st.Overflows)
		}
		if err := s.CheckAdmission(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !thirdFailed && len(st.RebuildingDisks) == 2 {
			// Both rebuilds in flight: land the third overlapping failure
			// now and record, from the reference damage set, which streams
			// are truly lost.
			if err := s.FailDisk(disks[2]); err != nil {
				t.Fatal(err)
			}
			thirdFailed = true
			lost := map[int64]bool{}
			for _, i := range refUnrecoverableGroups(s) {
				lost[i] = true
			}
			if len(lost) == 0 {
				t.Fatal("third member failure stranded no groups")
			}
			for idx, tr := range tracks {
				if tr.done {
					continue
				}
				for n := tr.st.nextDeliver; n < tr.st.clip.blocks; n++ {
					if lost[tr.st.clip.block(n)] {
						expectLost[idx] = true
						break
					}
				}
			}
		}
		for _, tr := range tracks {
			tr.drainTick(t, buf)
		}
		allDone := true
		for _, tr := range tracks {
			allDone = allDone && tr.done
		}
		if allDone && thirdFailed {
			break
		}
	}
	if !thirdFailed {
		t.Fatal("dual rebuild never ran; third failure not injected")
	}

	lostCount := 0
	for idx, tr := range tracks {
		if !tr.done {
			t.Fatalf("stream %d never finished", idx)
		}
		if expectLost[idx] {
			lostCount++
			if !errors.Is(tr.err, ErrStreamLost) {
				t.Fatalf("stream %d needed a stranded group but ended with %v", idx, tr.err)
			}
			continue
		}
		if tr.err != nil {
			t.Fatalf("stream %d lost nothing but ended with %v", idx, tr.err)
		}
		if tr.got != int64(len(tr.want)) {
			t.Fatalf("stream %d delivered %d of %d bytes", idx, tr.got, len(tr.want))
		}
	}
	if lostCount == 0 {
		t.Fatal("no stream crossed a stranded group; scenario too weak")
	}
	st := s.Stats()
	if st.Hiccups != 0 {
		t.Fatalf("%d missed deadlines — loss must be explicit, never late", st.Hiccups)
	}
	if st.Terminated != lostCount {
		t.Fatalf("Terminated = %d, want %d", st.Terminated, lostCount)
	}
}
