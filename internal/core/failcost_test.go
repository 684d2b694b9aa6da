package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/layout"
	"ftcms/internal/recovery"
	"ftcms/internal/scheme"
	"ftcms/internal/storage"
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
		g := groupOf(s.lay, 17)
		for idx := 0; idx < len(g.Data)+parityCols(&g); idx++ {
			a := memberAddr(&g, idx)
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

// countingLayout is a layout that counts the calls made on it.
type countingLayout struct {
	layout.Layout
	calls int
}

func (l *countingLayout) Disks() int     { l.calls++; return l.Layout.Disks() }
func (l *countingLayout) GroupSize() int { l.calls++; return l.Layout.GroupSize() }
func (l *countingLayout) Place(i int64) layout.BlockAddr {
	l.calls++
	return l.Layout.Place(i)
}
func (l *countingLayout) LogicalAt(a layout.BlockAddr) int64 {
	l.calls++
	return l.Layout.LogicalAt(a)
}
func (l *countingLayout) GroupAt(a layout.BlockAddr, g *layout.Group) int {
	l.calls++
	return l.Layout.GroupAt(a, g)
}

// TestFailDiskDoesNoLayoutWork: within tolerance FailDisk asks the layout
// nothing, however many blocks are stored — the rebuild queue it installs
// is the store's index of the disk, kept as the blocks were written, and
// holds every block the spare owes.
func TestFailDiskDoesNoLayoutWork(t *testing.T) {
	for _, clipBlocks := range []int64{1024, 8192} {
		fb := newFailBench(t, 50, 1, clipBlocks)
		s := fb.s
		lay := &countingLayout{Layout: s.lay}
		s.lay, s.store.Layout = lay, lay
		for _, disk := range []int{0, 17} {
			lay.calls = 0
			if err := s.FailDisk(disk); err != nil {
				t.Fatal(err)
			}
			if lay.calls != 0 {
				t.Errorf("%d clip blocks: FailDisk(%d) made %d layout calls, want 0", clipBlocks, disk, lay.calls)
			}
			if len(s.rebuilds) != 1 || len(s.rebuilds[0].queue) != s.store.Array.OwedBlocks(disk) {
				t.Fatalf("%d clip blocks: FailDisk(%d) queued no rebuild of the %d blocks owed", clipBlocks, disk, s.store.Array.OwedBlocks(disk))
			}
			for s.Mode() != ModeHealthy {
				fb.round(t)
			}
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
// counts them per run: the cycle's total over the blocks its queue holds
// (Stats().RebuildTotal after FailDisk), in whole objects (FailDisk's own
// few objects — the rebuild's state and queue — and those of the Stats call
// are shared by some hundred blocks).
func TestRebuildAllocs(t *testing.T) {
	fb := newFailBench(t, 0, 4, 1024)
	s := fb.s
	cycle := func(disk int) (rebuilt int, objects uint64) {
		objects = mallocs(func() {
			if err := s.FailDisk(disk); err != nil {
				t.Fatal(err)
			}
			rebuilt = s.Stats().RebuildTotal
			for s.Mode() != ModeHealthy {
				fb.round(t)
			}
		})
		return rebuilt, objects
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

// TestDegradedRoundAllocs: with a disk failed and no spare, a warm round
// of degraded service — parity fetched in a data block's place and XORed
// in at delivery, or a block reconstructed from its group's survivors —
// allocates nothing under any scheme (d = 12, p = 4, 4 streams, disk 1
// failed).
func TestDegradedRoundAllocs(t *testing.T) {
	for _, sc := range scheme.All() {
		t.Run(sc.String(), func(t *testing.T) {
			s := newServer(t, sc, 12, 4)
			if err := s.AddClip("v", clipBytes(3, 2000*8000)); err != nil {
				t.Fatal(err)
			}
			var streams []*Stream
			for len(streams) < 4 {
				st, err := s.OpenStream("v")
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, st)
				if err := s.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.FailDisk(1); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, s.store.Array.BlockSize())
			round := func() {
				if err := s.Tick(); err != nil {
					t.Fatal(err)
				}
				for _, st := range streams {
					for {
						if _, err := st.Read(buf); err != nil {
							if !errors.Is(err, ErrNoData) {
								t.Fatal(err)
							}
							break
						}
					}
				}
			}
			for r := 0; r < 20; r++ {
				round()
			}
			if n := testing.AllocsPerRun(100, round); n != 0 {
				t.Errorf("a degraded round of %d streams allocates %v objects, want 0", len(streams), n)
			}
		})
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

// TestAddClipAllocs pins the ingest's allocations per block: once the
// array's per-disk slices have grown past their first clip, an AddClip of
// 4 096 blocks allocates at most one object per 64 blocks. Its blocks'
// bytes come one allocation per chunk of groups, not one per block.
func TestAddClipAllocs(t *testing.T) {
	s, err := New(Config{Scheme: Declustered, Disk: testDisk(), D: 8, P: 4, Block: 512 * units.Byte, Q: 8, F: 2, Buffer: 64 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 4096
	clip, n := clipBytes(1, blocks*512-100), 0
	names := []string{"a", "b", "c", "d", "e", "f"}
	add := func() {
		if err := s.AddClip(names[n], clip); err != nil {
			t.Fatal(err)
		}
		n++
	}
	add()
	if got := testing.AllocsPerRun(4, add); got > blocks/64 {
		t.Errorf("an AddClip of %d blocks allocated %v objects, want at most %d", blocks, got, blocks/64)
	}
}

// TestAddClipHeapIsClipBytes pins what a stored clip costs the heap: its
// blocks' bytes, with no size-class tail per block, and the per-block index
// of the array and the store. A twin store on the same layout holding the
// same blocks at 8 bytes each measures the index, which is taken off; what
// is left may exceed the stored bytes by half a percent and 64 KB. A
// 4 000-byte block in an allocation of its own takes 4 096 bytes, 2.4 % over.
func TestAddClipHeapIsClipBytes(t *testing.T) {
	s := newFailBench(t, 0, 0, 0).s
	bs := int64(s.store.Array.BlockSize())
	clip := clipBytes(1, int(2048*bs-100))
	grew, stored := heapGrowth(s.store.Array, func() {
		if err := s.AddClip("x", clip); err != nil {
			t.Fatal(err)
		}
	})
	twin, err := storage.NewArray(s.cfg.D, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := recovery.NewStore(s.lay, twin)
	if err != nil {
		t.Fatal(err)
	}
	ci, small := s.clips["x"], make([]byte, 2048*8)
	index, twinStored := heapGrowth(twin, func() {
		if err := ts.WriteRun(ci.start, ci.stride, ci.blocks, small); err != nil {
			t.Fatal(err)
		}
	})
	runtime.KeepAlive(clip) // both stores and both runs' bytes are live at each reading
	runtime.KeepAlive(small)
	runtime.KeepAlive(s)
	runtime.KeepAlive(ts)
	if over := (grew - stored) - (index - twinStored); over > stored/200+64<<10 {
		t.Errorf("storing %d bytes of blocks grew the heap by %d bytes besides the index, %.2f %% over", stored, over, 100*float64(over)/float64(stored))
	}
}

// heapGrowth returns how far f grows the live heap and the bytes of the
// blocks it stores in a.
func heapGrowth(a *storage.Array, f func()) (grew, stored int64) {
	var before, after runtime.MemStats
	blocks := a.WrittenBlocks()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), int64(a.WrittenBlocks()-blocks) * int64(a.BlockSize())
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
// queue build produced for this seed, less the three blocks of each run
// that a stream's repair installs ahead of the rebuild, which it skips.
func TestDetectedFailureReplayPin(t *testing.T) {
	for _, tc := range []struct {
		scheme        Scheme
		reads         int64
		rounds, total int
		detect, lat   []int64
	}{
		{Declustered, 798, 11, 269, []int64{0}, []int64{11}},
		{DeclusteredPQ, 810, 12, 408, []int64{0}, []int64{12}},
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

// TestImportBlockAllocs pins clip migration's per-block paths from the
// allocation side, once warm: an idle import's block write (into the slots
// an aborted import of the same blocks left their buffers) and a migration
// read allocate nothing. A re-layout's copy stores every block on a new
// medium, whose bytes are the shadow array's own; besides them it allocates
// nothing per copied block, counted as testing.AllocsPerRun counts, in
// whole objects (the shadow's per-disk slices grow by doubling, and the
// flip builds the wider geometry's state once).
func TestImportBlockAllocs(t *testing.T) {
	for _, scheme := range []Scheme{Declustered, DeclusteredPQ} {
		t.Run(scheme.Key(), func(t *testing.T) {
			s, clip := scrubServer(t, testConfig(scheme, 6, 3), 200*8000)
			bs := s.store.Array.BlockSize()
			buf := make([]byte, bs)
			const blocks = 40
			var n int64
			imp := func() {
				s.engine.BeginRound()
				if ok, err := s.ImportClipBlockIdle("x", n, clip[n*int64(bs):(n+1)*int64(bs)]); !ok || err != nil {
					t.Fatalf("import of block %d: %v %v", n, ok, err)
				}
				n++
			}
			// The first import stores each block's bytes anew; aborted, it
			// leaves its slots their buffers, which the second writes into.
			for pass := range 2 {
				if err := s.BeginClipImport("x", blocks*int64(bs)); err != nil {
					t.Fatal(err)
				}
				n = 0
				if pass == 1 {
					imp()
					if got := testing.AllocsPerRun(blocks-2, imp); got != 0 {
						t.Errorf("an idle import's block write allocated %v objects, want 0", got)
					}
				}
				for n < blocks {
					imp()
				}
				if err := s.AbortClipImport("x"); err != nil {
					t.Fatal(err)
				}
			}

			n = 0
			read := func() {
				s.engine.BeginRound()
				if ok, err := s.ReadClipBlockIdleInto("a", n%200, buf); !ok || err != nil {
					t.Fatalf("migration read of block %d: %v %v", n, ok, err)
				}
				n++
			}
			if got := testing.AllocsPerRun(100, read); got != 0 {
				t.Errorf("a migration read allocated %v objects, want 0", got)
			}

			if err := s.AddDisk(); err != nil {
				t.Fatal(err)
			}
			// Signed: the shadow's writes gather their blocks' bytes, so they
			// may allocate fewer objects than they write blocks.
			var objects int64
			for s.Relayouting() {
				shadow := s.relayout.store.Array
				before := shadow.WrittenBlocks()
				objects += int64(mallocs(func() {
					s.engine.BeginRound()
					s.relayoutStep()
				}))
				objects -= int64(shadow.WrittenBlocks() - before)
			}
			if copied := s.nextFree; objects >= copied {
				t.Errorf("a re-layout allocated %d objects besides its shadow blocks over %d copied blocks, want under one a block", objects, copied)
			}
		})
	}
}
