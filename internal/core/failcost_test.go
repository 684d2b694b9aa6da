package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/units"
)

// failBench is a d=32 p=4 declustered array with unlimited spares, clips
// of 4 KB blocks and a population of open streams — the shape of the
// repository benchmark's rebuild workload.
type failBench struct {
	s       *Server
	streams []*Stream
	buf     []byte
}

func newFailBench(tb testing.TB, streams, clips int, clipBlocks int64) *failBench {
	tb.Helper()
	s, err := New(Config{
		Scheme: Declustered,
		Disk: diskmodel.Parameters{
			TransferRate: 6 * units.Gbps,
			Settle:       10 * units.Microsecond,
			Seek:         100 * units.Microsecond,
			Capacity:     64 * units.GB,
			PlaybackRate: 1500 * units.Kbps,
		},
		D: 32, P: 4, Block: 4 * units.KB, Q: 64, F: 16,
		Buffer: 2 * units.GB, Spares: 1 << 30,
	})
	if err != nil {
		tb.Fatal(err)
	}
	fb := &failBench{s: s, buf: make([]byte, s.store.Array.BlockSize())}
	clip := make([]byte, clipBlocks*int64(len(fb.buf)))
	for c := 0; c < clips; c++ {
		for i := range clip {
			clip[i] = byte(i*7 + c)
		}
		if err := s.AddClip(fmt.Sprintf("clip-%02d", c), clip); err != nil {
			tb.Fatal(err)
		}
	}
	for rounds := 0; len(fb.streams) < streams; rounds++ {
		if rounds > streams {
			tb.Fatalf("admission stalled at %d of %d streams", len(fb.streams), streams)
		}
		for c := 0; c < clips && len(fb.streams) < streams; c++ {
			st, err := s.OpenStream(fmt.Sprintf("clip-%02d", c))
			if errors.Is(err, ErrAdmission) {
				continue
			}
			if err != nil {
				tb.Fatal(err)
			}
			fb.streams = append(fb.streams, st)
		}
		fb.round(tb)
	}
	return fb
}

// round is one service round: Tick, then every stream's reader takes the
// block it was delivered. It returns the bytes taken.
func (fb *failBench) round(tb testing.TB) (delivered int) {
	tb.Helper()
	if err := fb.s.Tick(); err != nil {
		tb.Fatal(err)
	}
	for _, st := range fb.streams {
		n, _ := st.Read(fb.buf) // io.EOF once played out: nothing more to take
		delivered += n
	}
	return delivered
}

// BenchmarkFailDisk times what a tolerated failure costs inside its round:
// FailDisk plus the first Tick of the rebuild. Neither the open streams
// nor the stored blocks may show in it beyond the work the round itself
// does (stream service, and the rebuild's idle-capacity share).
func BenchmarkFailDisk(b *testing.B) {
	for _, streams := range []int{125, 1000} {
		for _, clipBlocks := range []int64{1024, 8192} {
			b.Run(fmt.Sprintf("streams=%d/clipblocks=%d", streams, clipBlocks), func(b *testing.B) {
				fb := newFailBench(b, streams, 8, clipBlocks)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := fb.s.FailDisk(i % fb.s.cfg.D); err != nil {
						b.Fatal(err)
					}
					fb.round(b)
					b.StopTimer()
					for fb.s.Mode() != ModeHealthy {
						fb.round(b)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// mallocs counts the heap objects f allocates. Like testing.AllocsPerRun
// it runs f at GOMAXPROCS 1, so the global count is f's alone.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFailDiskAllocs pins the failure handler's cost model from the
// allocation side: within tolerance FailDisk allocates a handful of
// objects — the spare's empty medium, the rebuild's state and its one
// queue — however many streams are open and clips stored, and starting a
// scrub sweep allocates nothing a later round of the sweep does not.
func TestFailDiskAllocs(t *testing.T) {
	for _, streams := range []int{50, 800} {
		for _, clips := range []int{2, 8} {
			fb := newFailBench(t, streams, clips, 1024)
			for disk := 0; disk < 3; disk++ {
				n := mallocs(func() {
					if err := fb.s.FailDisk(disk); err != nil {
						t.Fatal(err)
					}
				})
				if n > 16 {
					t.Errorf("%d streams, %d clips: FailDisk(%d) allocated %d objects, want <= 16", streams, clips, disk, n)
				}
				if st := fb.s.Stats(); st.Terminated != 0 || st.Rebuilding != disk {
					t.Fatalf("terminated %d, rebuilding %d", st.Terminated, st.Rebuilding)
				}
				for fb.s.Mode() != ModeHealthy {
					fb.round(t)
				}
			}
		}
	}

	// A repair itself — group fill, survey, plan, reads, solve — allocates
	// nothing, whichever member is the target (TestRebuildAllocs pins the
	// whole rebuild).
	for _, scheme := range []Scheme{Declustered, DeclusteredPQ} {
		s, _ := scrubServer(t, testConfig(scheme, 13, 4), 400_000)
		g := s.lay.GroupOf(17)
		for idx := 0; idx < len(g.Data)+parityCols(g); idx++ {
			a := memberAddr(g, idx)
			if n := testing.AllocsPerRun(20, func() {
				data, err := s.repairAt(a, repairMode{offRound: true})
				if err != nil {
					t.Fatal(err)
				}
				s.putBlock(data)
			}); n != 0 {
				t.Errorf("%s: repairing member %d allocates %v objects", scheme, idx, n)
			}
		}
	}

	cfg := testConfig(Declustered, 13, 4)
	cfg.ScrubRate = 5
	s, _ := scrubServer(t, cfg, 400_000)
	for s.Stats().ScrubCycles == 0 {
		tick(t, s, 1) // a whole sweep, so that the block pool is warm
	}
	if s.scrub.total != 0 {
		t.Fatal("sweep in progress after the cycle count moved")
	}
	start := mallocs(func() { tick(t, s, 1) })
	next := mallocs(func() { tick(t, s, 1) })
	if s.scrub.scanned != 10 || start > next {
		t.Errorf("sweep start allocated %d objects, the next round %d (scanned %d)", start, next, s.scrub.scanned)
	}
}

// TestFailDiskBeyondToleranceAllocs: a failure that crosses the array's
// tolerance sweeps nothing either. Loss is found where a stream reads, so
// FailDisk allocates the same handful of objects however many of the open
// streams the failure dooms.
func TestFailDiskBeyondToleranceAllocs(t *testing.T) {
	for _, streams := range []int{100, 1000} {
		fb := newFailBench(t, streams, 8, 1024)
		if err := fb.s.FailDisk(0); err != nil { // its spare is rebuilding: not serving
			t.Fatal(err)
		}
		n := mallocs(func() {
			if err := fb.s.FailDisk(1); err != nil {
				t.Fatal(err)
			}
		})
		doomed := len(refSweep(fb.s))
		if n > 16 || doomed < streams/2 {
			t.Errorf("%d streams: FailDisk beyond tolerance allocated %d objects with %d streams doomed; want <= 16, and at least half doomed", streams, n, doomed)
		}
	}
}

// TestAddDiskAllocs: AddDisk sets a cursor over the clips, not a list of
// their blocks, so what it allocates does not grow with the blocks stored
// (a list of 2000 would be 16 KB).
func TestAddDiskAllocs(t *testing.T) {
	addDisk := func(size int) uint64 {
		s, _ := scrubServer(t, testConfig(Declustered, 6, 3), size)
		// At GOMAXPROCS 1, as mallocs measures.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC() // twice: empty fmt's sync.Pool, victim cache and all,
		runtime.GC() // whatever the set-up left in it
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.AddDisk(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := addDisk(10*8000), addDisk(2000*8000)
	if large > small+1024 {
		t.Errorf("AddDisk allocated %d bytes over 10 stored blocks and %d over 2000", small, large)
	}
}

// TestRebuildAllocs pins a rebuild's cost per block from the allocation
// side: over blocks no stream has read, a FailDisk → rebuild → rejoin cycle
// allocates nothing per rebuilt block. The spare's slots keep the failed
// medium's buffers, and the rebuild's member reads copy, which leaves their
// blocks unmarked, so every rebuilt block is written into the buffer its
// slot already has. Objects are counted per block as testing.AllocsPerRun
// counts them per run: the cycle's total over its blocks, in whole objects
// (FailDisk's own few objects — the rebuild's state and queue — are shared
// by some hundred blocks).
func TestRebuildAllocs(t *testing.T) {
	fb := newFailBench(t, 0, 4, 1024)
	s := fb.s
	cycle := func(disk int) (rebuilt int64, objects uint64) {
		before := s.rebuiltBlocks
		objects = mallocs(func() {
			if err := s.FailDisk(disk); err != nil {
				t.Fatal(err)
			}
			for s.Mode() != ModeHealthy {
				fb.round(t)
			}
		})
		return s.rebuiltBlocks - before, objects
	}
	cycle(0) // warm: the block freelist, repair scratch, the latency log
	for disk := 1; disk < 4; disk++ {
		rebuilt, objects := cycle(disk)
		if rebuilt < 100 {
			t.Fatalf("disk %d: rebuilt %d blocks, want a disk's worth", disk, rebuilt)
		}
		t.Logf("disk %d: %d objects for %d rebuilt blocks", disk, objects, rebuilt)
		if per := objects / uint64(rebuilt); per != 0 {
			t.Errorf("disk %d: a rebuild cycle allocated %d objects for %d blocks, %d per block; want 0", disk, objects, rebuilt, per)
		}
	}
}

// TestHealthyRoundAllocs pins the steady state from the same side: a
// healthy round — Tick, then every stream takes its block — allocates
// nothing once the population is admitted. 300 streams keep it cheap under
// the race detector; the repository benchmark's steady workload measures
// the same path at 4000 (core.allocs_per_round). newFailBench runs the
// default config, so the pin holds at any GOMAXPROCS: a round is one pass
// on the calling goroutine, with no fan-out to pay for.
func TestHealthyRoundAllocs(t *testing.T) {
	fb := newFailBench(t, 300, 8, 1024)
	delivered := 0
	allocs := testing.AllocsPerRun(100, func() { delivered += fb.round(t) })
	if want := 101 * len(fb.streams) * len(fb.buf); delivered != want {
		t.Fatalf("delivered %d bytes over 101 rounds, want %d: not every stream was served every round", delivered, want)
	}
	if allocs != 0 {
		t.Errorf("a healthy round of %d streams allocates %v objects, want 0", len(fb.streams), allocs)
	}
}

// BenchmarkHealthyRound times TestHealthyRoundAllocs's round at the scale
// of the repository benchmark's steady workload: Tick, then every stream
// takes the block it was delivered. A fresh population replaces one whose
// first stream has played out, outside the clock.
func BenchmarkHealthyRound(b *testing.B) {
	const streams = 1000
	fb := newFailBench(b, streams, 8, 1024)
	served := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fb.s.ActiveStreams() < streams {
			b.StopTimer()
			fb = newFailBench(b, streams, 8, 1024)
			b.StartTimer()
		}
		served += fb.round(b) / len(fb.buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(served), "ns/stream-round")
}

// BenchmarkAddClip times storing a clip on the same array: 1024 blocks of
// 4 KB, the last one short, written group by group with their parity.
// SetBytes makes the figure MB/s of clip. A fresh server replaces one
// holding 16 clips, outside the clock, to keep the heap small.
func BenchmarkAddClip(b *testing.B) {
	clip := clipBytes(1, 1024*4096-100)
	var fb *failBench
	b.SetBytes(int64(len(clip)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			b.StopTimer()
			fb = newFailBench(b, 0, 0, 0)
			b.StartTimer()
		}
		if err := fb.s.AddClip(fmt.Sprint("clip-", i), clip); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLaggingReadAllocs pins the reader that stays three rounds behind:
// once its chunk queue has grown, a round of delivery and of Read calls
// that straddle blocks allocates nothing — the queue slides its unread
// chunks down instead of growing.
func TestLaggingReadAllocs(t *testing.T) {
	fb := newFailBench(t, 8, 8, 1024)
	tickN(t, fb.s, 3)
	piece := make([]byte, 1000)
	round := func() {
		tickN(t, fb.s, 1)
		for _, st := range fb.streams {
			for left := len(fb.buf); left > 0; {
				n, err := st.Read(piece[:min(len(piece), left)])
				if err != nil {
					t.Fatal(err)
				}
				left -= n
			}
		}
	}
	for range 8 {
		round() // grow the queues
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a round of a lagging reader allocates %v objects, want 0", allocs)
	}
	for k, st := range fb.streams {
		if lag := len(st.readable) - st.head; lag != 3 {
			t.Fatalf("stream %d has %d blocks queued, want 3", k, lag)
		}
	}
}

// TestOpenCloseAllocs pins a session's lifecycle at the Stream itself:
// admission, the registry, the one-slot pipeline ring, a delivery onto the
// readable queue, the read that takes it and Close's recycle add nothing.
// (With a map per pipeline side, made at open and again at close, the
// open and close alone cost five objects.)
func TestOpenCloseAllocs(t *testing.T) {
	fb := newFailBench(t, 8, 8, 64)
	allocs := testing.AllocsPerRun(200, func() {
		st, err := fb.s.OpenStream("clip-00")
		if err != nil {
			t.Fatal(err)
		}
		for st.Pos() == 0 {
			fb.round(t)
		}
		if n, err := st.Read(fb.buf); n != len(fb.buf) || err != nil {
			t.Fatalf("Read = (%d, %v), want one whole block", n, err)
		}
		st.Close()
	})
	if allocs > 1 {
		t.Errorf("OpenStream, a delivered block read and Close allocate %v objects, want at most 1", allocs)
	}
}

// TestDetectedFailureReplayPin is TestRebuildReplayPin for a failure the
// health detector declares: a scripted fail-stop, so the handler runs
// inside Tick, under the read that met the dead disk. The ledger, the
// arc's length and both latency clocks are pinned to what the store-wide
// queue build produced for this seed.
func TestDetectedFailureReplayPin(t *testing.T) {
	for _, tc := range []struct {
		scheme        Scheme
		reads         int64
		rounds, total int
		detect, lat   []int64
	}{
		{Declustered, 807, 11, 269, []int64{0}, []int64{11}},
		{DeclusteredPQ, 816, 12, 408, []int64{0}, []int64{12}},
	} {
		cfg := testConfig(tc.scheme, 13, 4)
		cfg.Spares = 1
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.InjectFaults(faultinject.Plan{Seed: 9, FailStops: []faultinject.FailStop{{Disk: 5, Round: 40}}})
		clips := map[string][]byte{"a": clipBytes(31, 12_000_000), "b": clipBytes(32, 9_000_000)}
		for _, name := range []string{"a", "b"} {
			if err := s.AddClip(name, clips[name]); err != nil {
				t.Fatal(err)
			}
		}
		var tracks []*pqTrack
		buf := make([]byte, 64<<10)
		total, rounds := 0, 0
		for round := 1; s.Stats().RebuildsDone == 0; round++ {
			if round > 3000 {
				t.Fatalf("%s: rebuild never finished", tc.scheme)
			}
			if round <= 24 {
				name := []string{"a", "b"}[round%2]
				st, err := s.OpenStream(name)
				if err != nil {
					t.Fatal(err)
				}
				tracks = append(tracks, &pqTrack{st: st, want: clips[name]})
			}
			tick(t, s, 1)
			for _, tr := range tracks {
				tr.drainTick(t, buf)
			}
			if st := s.Stats(); st.Rebuilding >= 0 {
				total = st.RebuildTotal
				rounds++
			}
		}
		st := s.Stats()
		if st.RebuildReads != tc.reads || rounds != tc.rounds || total != tc.total ||
			!reflect.DeepEqual(st.DetectLatencies, tc.detect) || !reflect.DeepEqual(st.RebuildLatencies, tc.lat) {
			t.Errorf("%s: RebuildReads=%d rounds=%d RebuildTotal=%d detect=%v latencies=%v, want %d, %d, %d, %v, %v",
				tc.scheme, st.RebuildReads, rounds, total, st.DetectLatencies, st.RebuildLatencies,
				tc.reads, tc.rounds, tc.total, tc.detect, tc.lat)
		}
		if st.Overflows != 0 || st.Hiccups != 0 || st.LostBlocks != 0 || st.Terminated != 0 {
			t.Errorf("%s: overflows=%d hiccups=%d lost=%d terminated=%d", tc.scheme, st.Overflows, st.Hiccups, st.LostBlocks, st.Terminated)
		}
	}
}
