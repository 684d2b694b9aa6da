package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ftcms/internal/units"
)

// tickN advances n rounds, failing the test on error.
func tickN(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

// readAvailable drains whatever the stream has buffered.
func readAvailable(t *testing.T, st *Stream) ([]byte, bool) {
	t.Helper()
	var out []byte
	buf := make([]byte, 64<<10)
	for {
		n, err := st.Read(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out, true
		}
		if errors.Is(err, ErrNoData) || n == 0 {
			return out, false
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPauseResumeByteExact: pausing mid-playback and resuming later
// yields the same bytes as uninterrupted playback.
func TestPauseResumeByteExact(t *testing.T) {
	for _, scheme := range []Scheme{Declustered, DeclusteredDynamic, PrefetchParityDisk} {
		d, p := 8, 4
		if scheme == Declustered || scheme == DeclusteredDynamic {
			d, p = 7, 3
		}
		s := newServer(t, scheme, d, p)
		want := clipBytes(21, 160_000)
		if err := s.AddClip("m", want); err != nil {
			t.Fatal(err)
		}
		st, err := s.OpenStream("m")
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		tickN(t, s, 6)
		part, _ := readAvailable(t, st)
		got = append(got, part...)

		if err := st.Pause(); err != nil {
			t.Fatalf("%s: Pause: %v", scheme, err)
		}
		if s.Stats().Active != 0 {
			t.Fatalf("%s: paused stream still active", scheme)
		}
		// Rounds pass while paused; nothing is delivered.
		tickN(t, s, 5)
		if part, _ := readAvailable(t, st); len(part) != 0 {
			t.Fatalf("%s: paused stream delivered %d bytes", scheme, len(part))
		}

		if err := st.Resume(); err != nil {
			t.Fatalf("%s: Resume: %v", scheme, err)
		}
		for i := 0; i < 120; i++ {
			tickN(t, s, 1)
			part, done := readAvailable(t, st)
			got = append(got, part...)
			if done {
				break
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: pause/resume corrupted stream (got %d want %d bytes)", scheme, len(got), len(want))
		}
		if h := s.Stats().Hiccups; h != 0 {
			t.Fatalf("%s: %d hiccups across pause/resume", scheme, h)
		}
	}
}

// TestPauseFreesCapacity: a paused stream's bandwidth is available to
// other clients, and Resume fails while they hold it.
func TestPauseFreesCapacity(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Buffer = 20 * units.KB // exactly one 2·b reservation fits
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClip("m", clipBytes(5, 300_000)); err != nil {
		t.Fatal(err)
	}
	st1, err := s.OpenStream("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenStream("m"); !errors.Is(err, ErrAdmission) {
		t.Fatal("second stream admitted despite full buffer")
	}
	if err := st1.Pause(); err != nil {
		t.Fatal(err)
	}
	st2, err := s.OpenStream("m")
	if err != nil {
		t.Fatalf("pause did not free capacity: %v", err)
	}
	// While st2 holds the buffer, st1 cannot resume.
	if err := st1.Resume(); !errors.Is(err, ErrAdmission) {
		t.Fatalf("Resume with full buffer: %v, want ErrAdmission", err)
	}
	st2.Close()
	if err := st1.Resume(); err != nil {
		t.Fatalf("Resume after release: %v", err)
	}
	st1.Close()
}

// TestPauseResumeAcrossFailure: pause mid-group, fail the disk of the very
// block the stream resumes at, resume — content still byte-exact. Under
// the pre-fetching schemes the resume lands mid-group, so the lost block
// is rebuilt from its parity block and sibling reads; a second pause, again
// mid-group, then seeks back and replays the clip through the degraded
// pipeline, parity slots and all.
func TestPauseResumeAcrossFailure(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		d, p   int
		seek   int64 // byte offset the second pause seeks to; -1 for no second pause
	}{
		{Declustered, 7, 3, -1},
		{PrefetchParityDisk, 8, 4, 20_000},
		{PrefetchFlat, 9, 4, 20_000},
	} {
		s := newServer(t, tc.scheme, tc.d, tc.p)
		clip := clipBytes(31, 140_000)
		if err := s.AddClip("m", clip); err != nil {
			t.Fatal(err)
		}
		st, err := s.OpenStream("m")
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		play := func(rounds int) {
			for i := 0; i < rounds; i++ {
				tickN(t, s, 1)
				part, done := readAvailable(t, st)
				if got = append(got, part...); done {
					return
				}
			}
		}
		play(4)
		if err := st.Pause(); err != nil {
			t.Fatal(err)
		}
		if depth := s.prefetchDepth; depth > 1 && st.nextDeliver%depth == 0 {
			t.Fatalf("%s: paused at block %d, a group boundary", tc.scheme, st.nextDeliver)
		}
		if err := s.FailDisk(s.lay.Place(st.clip.block(st.nextDeliver)).Disk); err != nil {
			t.Fatal(err)
		}
		if err := st.Resume(); err != nil {
			t.Fatal(err)
		}
		want := clip
		if tc.seek >= 0 {
			play(5)
			if err := st.Pause(); err != nil {
				t.Fatal(err)
			}
			if st.nextDeliver%s.prefetchDepth == 0 {
				t.Fatalf("%s: second pause at block %d, a group boundary", tc.scheme, st.nextDeliver)
			}
			if err := st.SeekTo(tc.seek); err != nil {
				t.Fatal(err)
			}
			want = append(bytes.Clone(got), clip[st.Pos():]...)
			if err := st.Resume(); err != nil {
				t.Fatal(err)
			}
		}
		play(120)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: pause + failure + resume corrupted stream", tc.scheme)
		}
		if h := s.Stats().Hiccups; h != 0 {
			t.Fatalf("%s: %d hiccups", tc.scheme, h)
		}
	}
}

// TestVCRStateEdges: double pause/resume are idempotent; operations on
// finished streams error.
func TestVCRStateEdges(t *testing.T) {
	s := newServer(t, Declustered, 7, 3)
	want := clipBytes(41, 30_000)
	if err := s.AddClip("m", want); err != nil {
		t.Fatal(err)
	}
	st, err := s.OpenStream("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := st.Pause(); err != nil {
		t.Fatal("double pause should be a no-op")
	}
	if err := st.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := st.Resume(); err != nil {
		t.Fatal("double resume should be a no-op")
	}
	got := drainStream(t, s, st, 60)
	if !bytes.Equal(got, want) {
		t.Fatal("bytes differ")
	}
	if err := st.Pause(); err == nil {
		t.Fatal("pause of finished stream should error")
	}
	if err := st.Resume(); err == nil {
		t.Fatal("resume of finished stream should error")
	}
	// Closing a paused stream releases nothing twice.
	st2, err := s.OpenStream("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Active != 0 {
		t.Fatal("streams leaked")
	}
}

// TestSeek: pause → seek → resume delivers exactly the clip's suffix from
// the target byte, under normal and degraded operation.
func TestSeek(t *testing.T) {
	for _, scheme := range []Scheme{Declustered, PrefetchParityDisk} {
		d, p := 7, 3
		if scheme == PrefetchParityDisk {
			d, p = 8, 4
		}
		s := newServer(t, scheme, d, p)
		want := clipBytes(77, 200_000)
		if err := s.AddClip("m", want); err != nil {
			t.Fatal(err)
		}
		st, err := s.OpenStream("m")
		if err != nil {
			t.Fatal(err)
		}
		tickN(t, s, 3)
		readAvailable(t, st) // discard the prefix
		if err := st.SeekTo(100_000); err == nil {
			t.Fatal("Seek on a playing stream should fail")
		}
		if err := st.Pause(); err != nil {
			t.Fatal(err)
		}
		if err := st.SeekTo(100_000); err != nil {
			t.Fatal(err)
		}
		if err := s.FailDisk(2); err != nil {
			t.Fatal(err)
		}
		if err := st.Resume(); err != nil {
			t.Fatal(err)
		}
		var got []byte
		for i := 0; i < 150; i++ {
			tickN(t, s, 1)
			part, done := readAvailable(t, st)
			got = append(got, part...)
			if done {
				break
			}
		}
		// The stream restarted at byte 100000 exactly, inside a block.
		if !bytes.Equal(got, want[100_000:]) {
			t.Fatalf("%s: got %d bytes, want the clip's %d from byte 100000", scheme, len(got), len(want)-100_000)
		}
	}
}

// TestSeekValidation: bad offsets and wrong states are rejected.
func TestSeekValidation(t *testing.T) {
	s := newServer(t, Declustered, 7, 3)
	want := clipBytes(88, 50_000)
	if err := s.AddClip("m", want); err != nil {
		t.Fatal(err)
	}
	st, err := s.OpenStream("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := st.SeekTo(-1); err == nil {
		t.Error("accepted negative offset")
	}
	if err := st.SeekTo(50_000); err == nil {
		t.Error("accepted offset at clip end")
	}
	if err := st.SeekTo(0); err != nil {
		t.Errorf("rejected offset 0: %v", err)
	}
	if err := st.Resume(); err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s, st, 60)
	if !bytes.Equal(got, want) {
		t.Fatal("seek-to-zero replay corrupted")
	}
	if err := st.SeekTo(0); err == nil {
		t.Error("Seek on finished stream accepted")
	}
}

// TestExactStartAllSchemes: OpenStreamAt and SeekTo start the reader at
// the byte asked for — the first, one inside a block, a block's last, one
// inside a pre-fetch group (block 4 of a three-block group) and the
// clip's last — under every scheme, with the disk of the first block read
// failed before it is fetched and rebuilt onto a spare while the stream
// plays.
func TestExactStartAllSchemes(t *testing.T) {
	const size, bs = 123_456, 8000
	clip := clipBytes(17, size)
	for _, c := range allSchemes {
		for _, off := range []int64{0, bs + 123, 2*bs - 1, 4*bs + 500, size - 1} {
			for _, seek := range []bool{false, true} {
				cfg := testConfig(c.scheme, c.d, c.p)
				cfg.Spares = 1
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.AddClip("m", clip); err != nil {
					t.Fatal(err)
				}
				var st *Stream
				if seek {
					if st, err = s.OpenStream("m"); err != nil {
						t.Fatal(err)
					}
					tickN(t, s, 3)
					if err = st.Pause(); err == nil {
						err = st.SeekTo(off)
					}
				} else {
					st, err = s.OpenStreamAt("m", off)
				}
				if err != nil {
					t.Fatalf("%s at %d (seek %v): %v", c.scheme, off, seek, err)
				}
				if st.Pos() != off {
					t.Fatalf("%s at %d (seek %v): Pos %d", c.scheme, off, seek, st.Pos())
				}
				if err := s.FailDisk(s.lay.Place(st.clip.block(st.nextFetch)).Disk); err != nil {
					t.Fatal(err)
				}
				if seek {
					if err := st.Resume(); err != nil {
						t.Fatal(err)
					}
				}
				if got := drainStream(t, s, st, 100); !bytes.Equal(got, clip[off:]) {
					t.Fatalf("%s at %d (seek %v): got %d bytes, want the clip's %d from the offset", c.scheme, off, seek, len(got), size-off)
				}
				if st := s.Stats(); st.Hiccups != 0 || st.DetectedFailures != 1 {
					t.Fatalf("%s at %d (seek %v): %d hiccups, %d failures", c.scheme, off, seek, st.Hiccups, st.DetectedFailures)
				}
			}
		}
	}
}
