package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ftcms/internal/layout"
	"ftcms/internal/recovery"
)

// TestRebuildReplayPin replays one seeded fail → rebuild → rejoin arc
// per parity flavour, under streams that contend for the idle capacity
// the rebuild lives on, and pins the rebuild ledger, the arc's length in
// rounds and the detect→rejoin latency to the values the pre-unification
// code produced: the group-repair routine must read exactly the members
// the per-flavour rebuilds read, in rounds that leave the same slack.
func TestRebuildReplayPin(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		reads  int64
		rounds int
		lat    []int64
	}{
		{Declustered, pinXORReads, pinXORRounds, []int64{pinXORRounds}},
		{DeclusteredPQ, pinPQReads, pinPQRounds, []int64{pinPQRounds}},
	} {
		cfg := testConfig(tc.scheme, 13, 4)
		cfg.Spares = 1
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clips := map[string][]byte{"a": clipBytes(31, 12_000_000), "b": clipBytes(32, 9_000_000)}
		for _, name := range []string{"a", "b"} {
			if err := s.AddClip(name, clips[name]); err != nil {
				t.Fatal(err)
			}
		}
		var tracks []*pqTrack
		for k := 0; k < 24; k++ {
			name := []string{"a", "b"}[k%2]
			tick(t, s, 1+k%3)
			st, err := s.OpenStream(name)
			if err != nil {
				t.Fatal(err)
			}
			tracks = append(tracks, &pqTrack{st: st, want: clips[name]})
		}
		buf := make([]byte, 64<<10)
		drain := func() {
			for _, tr := range tracks {
				tr.drainTick(t, buf)
			}
		}
		tick(t, s, 3)
		drain()
		if err := s.FailDisk(5); err != nil {
			t.Fatal(err)
		}
		rounds := 0
		for ; s.Mode() != ModeHealthy; rounds++ {
			if rounds > 2000 {
				t.Fatalf("%s: rebuild never finished", tc.scheme)
			}
			tick(t, s, 1)
			drain()
		}
		st := s.Stats()
		if st.RebuildReads != tc.reads || rounds != tc.rounds || !reflect.DeepEqual(st.RebuildLatencies, tc.lat) {
			t.Errorf("%s: RebuildReads=%d rounds=%d latencies=%v, want %d, %d, %v",
				tc.scheme, st.RebuildReads, rounds, st.RebuildLatencies, tc.reads, tc.rounds, tc.lat)
		}
		if st.Overflows != 0 || st.Hiccups != 0 || st.LostBlocks != 0 {
			t.Errorf("%s: overflows=%d hiccups=%d lost=%d", tc.scheme, st.Overflows, st.Hiccups, st.LostBlocks)
		}
		// Byte-exactness through and past the rebuilt disk: every stream
		// plays out (drainTick compares each delivered byte).
		for _, tr := range tracks {
			for n := 0; !tr.done; n++ {
				if n > 4000 {
					t.Fatalf("%s: stream never finished", tc.scheme)
				}
				tick(t, s, 1)
				drain()
			}
			if tr.err != nil {
				t.Errorf("%s: stream lost: %v", tc.scheme, tr.err)
			}
		}
	}
}

// Recorded from a run of this test at the parent commit (e0d793f).
const (
	pinXORReads, pinXORRounds = 807, 14
	pinPQReads, pinPQRounds   = 816, 13
)

// repairCase builds a fresh array with one clip stored, picks a fully
// stored parity group and makes the listed members unreadable — by
// fail-stopping their disks, or (spare) by replacing the failed disks
// with empty spares so the members are unwritten blocks on rebuilding
// disks. It returns the server, the group, each member's true bytes and
// the per-disk count of physical reads from then on.
func repairCase(t *testing.T, scheme Scheme, lose []int, spare bool) (*Server, layout.Group, [][]byte, []int) {
	t.Helper()
	s := newServer(t, scheme, 13, 4)
	if err := s.AddClip("a", clipBytes(41, 800_000)); err != nil {
		t.Fatal(err)
	}
	g := s.lay.GroupOf(40)
	arr := s.store.Array
	var want [][]byte
	for idx := 0; idx < len(g.Data)+parityCols(g); idx++ {
		a := memberAddr(g, idx)
		b, err := readAt(s, a.Disk, a.Block)
		if err != nil {
			t.Fatalf("member %d not stored: %v", idx, err)
		}
		want = append(want, b)
	}
	for _, idx := range lose {
		d := memberAddr(g, idx).Disk
		if err := arr.Fail(d); err != nil {
			t.Fatal(err)
		}
		if spare {
			if err := arr.Replace(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, g, want, countReads(s)
}

// ledgerVsReads fails the test unless every disk's round-ledger charge
// equals the physical reads that reached it, and returns the disks read.
func ledgerVsReads(t *testing.T, s *Server, reads []int) []int {
	t.Helper()
	var read []int
	for d := 0; d < s.cfg.D; d++ {
		if charged := s.engine.Load(d); charged != reads[d] {
			t.Errorf("disk %d: charged %d, read %d", d, charged, reads[d])
		}
		if reads[d] > 0 {
			read = append(read, d)
		}
	}
	return read
}

// TestRepairMemberTable drives the one group-repair routine over both
// parity flavours, every kind of target, every kind of second (and
// third) erasure, and both ways a member can be unreadable.
func TestRepairMemberTable(t *testing.T) {
	for _, scheme := range []Scheme{Declustered, DeclusteredPQ} {
		g := newServer(t, scheme, 13, 4).lay.GroupOf(40)
		nd, cols := len(g.Data), parityCols(g)
		for _, target := range []int{0, nd, nd + 1}[:1+cols] {
			// Second erasures: another data member and each parity
			// column; plus one pair, which is past any tolerance here.
			others := []int{1}
			for idx := nd; idx < nd+cols; idx++ {
				others = append(others, idx)
			}
			if target > 0 {
				others[0] = 0
				others = slices.DeleteFunc(others, func(idx int) bool { return idx == target })
			}
			extras := [][]int{nil}
			if len(others) > 1 {
				extras = append(extras, others[:2])
			}
			for _, o := range others {
				extras = append(extras, []int{o})
			}
			for _, extra := range extras {
				for _, spare := range []bool{false, true} {
					name := fmt.Sprintf("%s/target=%d/extra=%v/spare=%v", scheme, target, extra, spare)
					t.Run(name, func(t *testing.T) {
						repairTableCase(t, scheme, cols, target, extra, spare)
					})
				}
			}
		}
	}
}

func repairTableCase(t *testing.T, scheme Scheme, cols, target int, extra []int, spare bool) {
	lose := append([]int{target}, extra...)
	s, g, want, reads := repairCase(t, scheme, lose, spare)
	got, err := s.repairMember(g, target, repairMode{})

	if len(lose) > cols {
		if !errors.Is(err, recovery.ErrUnrecoverable) {
			t.Fatalf("%d erasures over %d parity columns: err = %v, want ErrUnrecoverable", len(lose), cols, err)
		}
		if read := ledgerVsReads(t, s, reads); len(read) != 0 || s.Stats().Overflows != 0 {
			t.Fatalf("unrecoverable repair read disks %v", read)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[target]) {
		t.Fatal("recovered bytes differ from the written bytes")
	}
	read := ledgerVsReads(t, s, reads)
	if len(read) == 0 {
		t.Fatal("repair read nothing")
	}

	// Write back (onto a spare) and repair the other erasures the same
	// way: the group must verify again.
	for _, idx := range lose {
		a := memberAddr(g, idx)
		if !spare {
			if err := s.store.Array.Replace(a.Disk); err != nil {
				t.Fatal(err)
			}
		}
		b, err := s.repairMember(g, idx, repairMode{offRound: true})
		if err != nil {
			t.Fatalf("repairing member %d: %v", idx, err)
		}
		if err := s.store.Array.Write(a.Disk, a.Block, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.store.VerifyParity(g.Data[0]); err != nil {
		t.Fatalf("after write-back: %v", err)
	}

	// Idle-gated: with a disk the ungated repair read already at q, the
	// repair stalls before its first charge. The one exception is a lone
	// data erasure under P+Q, which routes around a busy P disk through
	// Q — and then must really leave P alone.
	for _, busy := range read {
		s, g, want, reads := repairCase(t, scheme, lose, spare)
		for k := 0; k < s.cfg.Q; k++ {
			s.charge(busy)
		}
		var ledger int64
		got, err := s.repairMember(g, target, repairMode{idle: true, ledger: &ledger})
		if g.HasQ && len(lose) == 1 && target < len(g.Data) && busy == g.Parity.Disk {
			if err != nil || !bytes.Equal(got, want[target]) {
				t.Fatalf("P disk busy: rerouted repair failed: %v", err)
			}
			if reads[busy] != 0 || s.Stats().Overflows != 0 {
				t.Fatal("P disk busy: rerouted repair read it anyway")
			}
			continue
		}
		if err != errRepairStalled || ledger != 0 {
			t.Fatalf("disk %d busy: err = %v after %d charged reads, want a stall before the first", busy, err, ledger)
		}
		for d := 0; d < s.cfg.D; d++ {
			if n := reads[d]; n != 0 || (d != busy && s.engine.Load(d) != 0) {
				t.Fatalf("disk %d busy: stalled, yet disk %d read %d / charged %d", busy, d, n, s.engine.Load(d))
			}
		}
	}
}
