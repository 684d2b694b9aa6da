package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"unsafe"

	"ftcms/internal/layout"
)

// readPieces drains what the stream has delivered in reads of len(piece)
// bytes, which straddle block boundaries, appending them to got.
func readPieces(t *testing.T, st *Stream, piece, got []byte) ([]byte, bool) {
	t.Helper()
	for {
		n, err := st.Read(piece)
		got = append(got, piece[:n]...)
		switch {
		case errors.Is(err, io.EOF):
			return got, true
		case errors.Is(err, ErrNoData):
			return got, false
		case err != nil:
			t.Fatal(err)
		}
	}
}

// TestCorruptBetweenTickAndRead: a block delivered in Tick is the store's
// own verified bytes, lent. Rot that lands on the block before the reader
// takes it changes nothing the reader sees, and the next stream to fetch
// the block meets the rot and repairs it.
func TestCorruptBetweenTickAndRead(t *testing.T) {
	s := newServer(t, Declustered, 7, 3)
	want := clipBytes(3, 40_000)
	if err := s.AddClip("m", want); err != nil {
		t.Fatal(err)
	}
	first, err := s.OpenStream("m")
	if err != nil {
		t.Fatal(err)
	}
	tickN(t, s, 1)
	if len(first.readable) != 1 || first.readable[0].owned {
		t.Fatalf("after one round the reader holds %v, want block 0 lent by the store", first.readable)
	}
	a := s.lay.Place(first.clip.block(0))
	if err := s.store.Array.CorruptBits(a.Disk, a.Block, []uint64{5, 999}); err != nil {
		t.Fatal(err)
	}
	bs := s.store.Array.BlockSize()
	piece := make([]byte, 3000)
	got, _ := readPieces(t, first, piece, nil)
	if !bytes.Equal(got, want[:bs]) {
		t.Fatal("rot landed after delivery reached the reader")
	}

	second, err := s.OpenStream("m")
	if err != nil {
		t.Fatal(err)
	}
	tickN(t, s, 1)
	if st := s.Stats(); st.CorruptionsDetected != 1 || st.CorruptionRepairs != 1 {
		t.Fatalf("detected %d, repaired %d corrupt blocks; want 1, 1", st.CorruptionsDetected, st.CorruptionRepairs)
	}
	if len(second.readable) != 1 || !second.readable[0].owned {
		t.Fatal("the repaired block was not delivered in a buffer the stream owns")
	}
	var again []byte
	for done1, done2 := false, false; !done1 || !done2; {
		got, done1 = readPieces(t, first, piece, got)
		again, done2 = readPieces(t, second, piece, again)
		tickN(t, s, 1)
	}
	if !bytes.Equal(got, want) || !bytes.Equal(again, want) {
		t.Fatal("a stream's bytes differ from the clip")
	}
	if bad := s.store.Array.AuditChecksums(); len(bad) != 0 {
		t.Fatalf("repair left %v failing their checksums", bad)
	}
}

// TestSlabSlotIsolated: a clip's blocks share allocations, each slot its
// own view capped at one block, and a lent slot rewritten — repaired after
// rot, or overwritten through Install — leaves both the holder's bytes and
// the slot after it in the same allocation as they were.
func TestSlabSlotIsolated(t *testing.T) {
	s := newServer(t, Declustered, 7, 3)
	want := clipBytes(3, 38_000) // five blocks, the last one short
	if err := s.AddClip("m", want); err != nil {
		t.Fatal(err)
	}
	arr, bs, ci := s.store.Array, s.store.Array.BlockSize(), s.clips["m"]
	slot := map[*byte]layout.BlockAddr{} // every stored slot by its first byte
	for disk := range arr.Disks() {
		for block := range arr.Extent() {
			if b := arr.Peek(disk, block); b != nil {
				if cap(b) != bs {
					t.Fatalf("(%d, %d) has capacity %d, want the block size %d", disk, block, cap(b), bs)
				}
				slot[unsafe.SliceData(b)] = layout.BlockAddr{Disk: disk, Block: block}
			}
		}
	}
	other := clipBytes(9, bs)
	for _, rw := range []struct {
		how     string
		n       int64 // the clip block lent and rewritten
		rewrite func(a layout.BlockAddr)
	}{
		// Block 0's next slot is block 1, which the write leaves as it was.
		{"Install", 0, func(a layout.BlockAddr) {
			if err := s.store.WriteBlock(ci.block(0), other); err != nil {
				t.Fatal(err)
			}
			if got := arr.Peek(a.Disk, a.Block); !bytes.Equal(got, other) {
				t.Fatal("the write did not store its bytes")
			}
		}},
		// Block 1's next slot is its group's parity, which a repair leaves.
		{"repair", 1, func(a layout.BlockAddr) {
			if err := arr.CorruptBits(a.Disk, a.Block, []uint64{3, 777}); err != nil {
				t.Fatal(err)
			}
			c, err := s.readMonitored(a, nil)
			if err != nil || !c.owned || !bytes.Equal(c.buf, want[bs:2*bs]) {
				t.Fatalf("the read of a rotten block got %v, repaired %v", err, c.owned)
			}
			if got := arr.Peek(a.Disk, a.Block); !bytes.Equal(got, want[bs:2*bs]) {
				t.Fatal("the repair did not rewrite the block")
			}
		}},
	} {
		a := s.lay.Place(ci.block(rw.n))
		held, _, err := arr.Lend(a.Disk, a.Block)
		if err != nil {
			t.Fatal(err)
		}
		next, ok := slot[(*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(held)), bs))]
		if !ok {
			t.Fatalf("%s: no slot follows block %d in its allocation", rw.how, rw.n)
		}
		nextBytes := arr.Peek(next.Disk, next.Block)
		heldWas, nextWas := bytes.Clone(held), bytes.Clone(nextBytes)
		rw.rewrite(a)
		if !bytes.Equal(held, heldWas) {
			t.Errorf("%s: the holder's bytes of block %d changed under it", rw.how, rw.n)
		}
		if !bytes.Equal(nextBytes, nextWas) || !bytes.Equal(arr.Peek(next.Disk, next.Block), nextWas) {
			t.Errorf("%s of block %d changed the next slot of its allocation, %v", rw.how, rw.n, next)
		}
	}
}

// TestLaggingReaderAllSchemes: a reader that takes its bytes only every
// fourth round, in pieces that straddle blocks, still gets the clip exactly,
// trimmed last block included.
func TestLaggingReaderAllSchemes(t *testing.T) {
	for _, c := range allSchemes {
		s := newServer(t, c.scheme, c.d, c.p)
		want := clipBytes(7, 123_456) // ~15.5 blocks: the last one is trimmed
		if err := s.AddClip("movie", want); err != nil {
			t.Fatalf("%s: %v", c.scheme, err)
		}
		st, err := s.OpenStream("movie")
		if err != nil {
			t.Fatalf("%s: %v", c.scheme, err)
		}
		var got []byte
		piece := make([]byte, 3000)
		for round, done := 1, false; !done; round++ {
			if round > 200 {
				t.Fatalf("%s: stream did not finish", c.scheme)
			}
			tickN(t, s, 1)
			if round%4 == 0 {
				got, done = readPieces(t, st, piece, got)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: lagging reader got %d bytes, want the clip's %d", c.scheme, len(got), len(want))
		}
	}
}

// TestFreelistAfterFailureArc runs streams through a disk failure, degraded
// deliveries (buffers the streams own) mixed with lent ones, a Pause and
// SeekTo and a Close with unread blocks queued, and the rebuild to rejoin.
// Afterwards no buffer is on the store's freelist twice, none of them is a
// block the store still serves, and every stored block verifies.
func TestFreelistAfterFailureArc(t *testing.T) {
	for _, c := range []struct {
		scheme Scheme
		d, p   int
	}{{Declustered, 7, 3}, {PrefetchFlat, 9, 4}} {
		cfg := testConfig(c.scheme, c.d, c.p)
		cfg.Spares = 1
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clip := clipBytes(41, 400_000)
		if err := s.AddClip("m", clip); err != nil {
			t.Fatal(err)
		}
		type track struct {
			st   *Stream
			got  []byte
			done bool
		}
		var tracks []*track
		piece := make([]byte, 5000)
		read := func() {
			for _, tr := range tracks {
				tr.got, tr.done = readPieces(t, tr.st, piece, tr.got)
			}
		}
		for round := 0; len(tracks) < 4; round++ {
			if round > 20 {
				t.Fatalf("%s: admission stalled", c.scheme)
			}
			if st, err := s.OpenStream("m"); err == nil {
				tracks = append(tracks, &track{st: st})
			} else if !errors.Is(err, ErrAdmission) {
				t.Fatal(err)
			}
			tickN(t, s, 1)
			read()
		}
		tickN(t, s, 2) // lent blocks queue up unread
		seeker, closer := tracks[0], tracks[1]
		if err := s.FailDisk(s.lay.Place(seeker.st.clip.block(seeker.st.nextFetch)).Disk); err != nil {
			t.Fatal(err)
		}
		tickN(t, s, 3) // degraded deliveries join them
		owned := 0
		for _, tr := range tracks {
			for _, ch := range tr.st.readable[tr.st.head:] {
				if ch.owned {
					owned++
				}
			}
		}
		if owned == 0 {
			t.Fatalf("%s: no degraded delivery is queued", c.scheme)
		}
		if err := seeker.st.Pause(); err != nil {
			t.Fatal(err)
		}
		if err := seeker.st.SeekTo(0); err != nil {
			t.Fatal(err)
		}
		seeker.got = seeker.got[:0]
		if err := seeker.st.Resume(); err != nil {
			t.Fatal(err)
		}
		if err := closer.st.Close(); err != nil {
			t.Fatal(err)
		}
		tracks = []*track{seeker, tracks[2], tracks[3]}
		for round := 0; !tracks[0].done || !tracks[1].done || !tracks[2].done || s.Mode() != ModeHealthy; round++ {
			if round > 300 {
				t.Fatalf("%s: streams or rebuild did not finish (mode %s)", c.scheme, s.Mode())
			}
			tickN(t, s, 1)
			read()
		}
		for k, tr := range tracks {
			if !bytes.Equal(tr.got, clip) {
				t.Fatalf("%s: stream %d got %d bytes, not the clip", c.scheme, k, len(tr.got))
			}
		}
		if st := s.Stats(); st.RebuildsDone != 1 || st.Hiccups != 0 {
			t.Fatalf("%s: %d rebuilds done, %d hiccups", c.scheme, st.RebuildsDone, st.Hiccups)
		}

		arr := s.store.Array
		stored := map[*byte]bool{}
		for disk := 0; disk < arr.Disks(); disk++ {
			for block := int64(0); block < arr.Extent(); block++ {
				if b, _, err := arr.Lend(disk, block); err == nil {
					stored[&b[0]] = true
				}
			}
		}
		seen := map[*byte]bool{}
		for range 256 { // more than these streams and repairs ever hold at once
			b := s.getBlock()
			if seen[&b[0]] || stored[&b[0]] {
				t.Fatalf("%s: the freelist hands out a buffer twice or a stored block (stored %v)", c.scheme, stored[&b[0]])
			}
			seen[&b[0]] = true
		}
		if bad := arr.AuditChecksums(); len(bad) != 0 {
			t.Fatalf("%s: blocks %v fail their checksums", c.scheme, bad)
		}
	}
}

// TestCloseFinishedStream: closing a stream the server has already
// finished drops what it delivered and the reader never took. The next
// Read returns io.ErrClosedPipe, not the queued bytes, and an unread
// block the stream owned (a degraded delivery) goes back on the freelist.
func TestCloseFinishedStream(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		s := newServer(t, Declustered, 7, 3)
		if err := s.AddClip("c", clipBytes(5, 10)); err != nil {
			t.Fatal(err)
		}
		st, err := s.OpenStream("c")
		if err != nil {
			t.Fatal(err)
		}
		if degraded {
			if err := s.FailDisk(s.lay.Place(st.clip.block(0)).Disk); err != nil {
				t.Fatal(err)
			}
		}
		tickN(t, s, 5)
		if !st.done || len(st.readable)-st.head != 1 || st.readable[st.head].owned != degraded {
			t.Fatalf("degraded=%v: done=%v, %d blocks queued, want the stream finished with its one block unread",
				degraded, st.done, len(st.readable)-st.head)
		}
		unread := st.readable[st.head].buf
		st.Close()
		if degraded {
			b := s.getBlock()
			if &b[0] != &unread[0] {
				t.Errorf("Close left the unread degraded block off the freelist")
			}
			s.putBlock(b)
		}
		if n, err := st.Read(make([]byte, 64)); n != 0 || !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("degraded=%v: Read after Close = (%d, %v), want (0, io.ErrClosedPipe)", degraded, n, err)
		}
		if s.ActiveStreams() != 0 {
			t.Errorf("degraded=%v: %d streams active after Close", degraded, s.ActiveStreams())
		}
	}
}
