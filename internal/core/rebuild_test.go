package core

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ftcms/internal/faultinject"
	"ftcms/internal/health"
	"ftcms/internal/layout"
	"ftcms/internal/recovery"
	"ftcms/internal/storage"
)

var updateHookOrder = flag.Bool("update", false, "rewrite testdata/rebuild_hooks_*.txt and rebuild_midplan.txt from this run")

// hookOrderRun runs a server through a rebuild under faults and returns its
// ledger: one line per round with the number of read-hook calls and an FNV
// hash of their (disk, block) sequence, a line per detector declaration in
// the order it fired, and the final Stats.
func hookOrderRun(t *testing.T, scheme Scheme, plan faultinject.Plan) string {
	t.Helper()
	cfg := testConfig(scheme, 13, 4)
	cfg.Spares = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 6; c++ {
		if err := s.AddClip(fmt.Sprintf("c%d", c), clipBytes(int64(40+c), 4_000_000)); err != nil {
			t.Fatal(err)
		}
	}
	in := s.InjectFaults(plan)
	var (
		out   strings.Builder
		round int64
		calls int
	)
	h := fnv.New64a()
	s.store.Array.SetReadHook(func(disk int, block int64) (float64, error) {
		calls++
		fmt.Fprintf(h, "%d/%d ", disk, block)
		return in.Hook(disk, block)
	})
	s.detector.SetOnFail(func(disk int) {
		fmt.Fprintf(&out, "declare r%d disk %d\n", round, disk)
		s.failDeclared(disk)
	})
	var streams []*Stream
	buf := make([]byte, 64<<10)
	for round = 1; round <= 90; round++ {
		if len(streams) < 12 {
			if st, err := s.OpenStream(fmt.Sprintf("c%d", len(streams)%6)); err == nil {
				streams = append(streams, st)
			}
		}
		calls = 0
		h.Reset()
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
		for _, st := range streams {
			for n, _ := st.Read(buf); n > 0; n, _ = st.Read(buf) {
			}
		}
		fmt.Fprintf(&out, "r%d hooks=%d %016x mode=%s\n", round, calls, h.Sum64(), s.Mode())
	}
	fmt.Fprintf(&out, "stats %+v\n", s.Stats())
	return out.String()
}

// TestRebuildHookOrder holds the rebuild's observable order to a ledger:
// every read-hook call, in order, every detector declaration and the final
// counters, under transient errors on a survivor disk, bit rot landing on
// another while the rebuild reads it, and a second fail-stop mid-rebuild.
// The plan makes each read a live repair makes; only a rotten survivor,
// which ends its batch, moves the rounds after it.
func TestRebuildHookOrder(t *testing.T) {
	plan := faultinject.Plan{
		Seed:       5,
		FailStops:  []faultinject.FailStop{{Disk: 2, Round: 6}, {Disk: 9, Round: 12}},
		Transients: []faultinject.Transient{{Disk: 5, Prob: 0.1, From: 6, Until: 40}},
		Corruptions: []faultinject.SilentCorruption{
			{Disk: 7, Block: -1, Rate: 1, From: 8, Until: 16, Bits: 2},
		},
	}
	for _, scheme := range []Scheme{Declustered, DeclusteredPQ} {
		t.Run(scheme.String(), func(t *testing.T) {
			got := hookOrderRun(t, scheme, plan)
			golden := filepath.Join("testdata", "rebuild_hooks_"+scheme.String()+".txt")
			if *updateHookOrder {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("%s line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
				}
			}
			if len(gl) != len(wl) {
				t.Fatalf("%s: %d lines, want %d", golden, len(gl), len(wl))
			}
		})
	}
}

// midPlanRun rebuilds disk 3 of a P+Q array that has two spares and serves
// no stream, so every read is the rebuild's. In the rebuild's second round,
// once its plan has read 40 times, survivor disk 8 fails its reads until
// the detector declares it, and the second spare is swapped in: Replace
// blanks the disk in the middle of the plan, after entries that probed it.
// It returns the ledger hookOrderRun keeps, the bytes both spares ended
// with and how many blocks each still owes.
func midPlanRun(t *testing.T) string {
	t.Helper()
	const a, x = 3, 8
	cfg := testConfig(DeclusteredPQ, 13, 4)
	cfg.Spares = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if err := s.AddClip(fmt.Sprint("c", c), clipBytes(int64(60+c), 2_000_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FailDisk(a); err != nil {
		t.Fatal(err)
	}
	var (
		out          strings.Builder
		round, calls int
		failing      bool
	)
	h := fnv.New64a()
	arr := s.store.Array
	arr.SetReadHook(func(disk int, block int64) (float64, error) {
		calls++
		fmt.Fprintf(h, "%d/%d ", disk, block)
		if failing = failing || round == 2 && calls == 40; failing && disk == x {
			return 1, storage.ErrFailed
		}
		return 1, nil
	})
	s.detector.SetOnFail(func(disk int) {
		fmt.Fprintf(&out, "declare r%d disk %d after %d reads\n", round, disk, calls)
		failing = false
		s.failDeclared(disk)
	})
	for round = 1; s.Mode() != ModeHealthy && round <= 40; round++ {
		calls = 0
		h.Reset()
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "r%d hooks=%d %016x mode=%s\n", round, calls, h.Sum64(), s.Mode())
	}
	fmt.Fprintf(&out, "stats %+v\n", s.Stats())
	for _, d := range []int{a, x} {
		fmt.Fprintf(&out, "disk %d image %016x owes %d\n", d, diskImage(arr, d), arr.OwedBlocks(d))
	}
	return out.String()
}

// TestRebuildDeclaredMidPlan: the pool runs each entry as soon as the plan
// has finished it, so a declaration in the middle of the plan lands after
// the pool read bytes it takes away. The feed is drained before the
// declaration and every entry runs again after the plan, so the spares'
// bytes, the lost blocks, the ledger, the hook order and Stats are those
// of the sequential plan → pool → commit (testdata/rebuild_midplan.txt) at
// any GOMAXPROCS.
func TestRebuildDeclaredMidPlan(t *testing.T) {
	golden := filepath.Join("testdata", "rebuild_midplan.txt")
	if *updateHookOrder {
		if err := os.WriteFile(golden, []byte(midPlanRun(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(want), "declare r2 disk 8") {
		t.Fatalf("%s: disk 8 is not declared in round 2", golden)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := midPlanRun(t); got != string(want) {
			t.Fatalf("GOMAXPROCS=%d: the ledger differs from %s:\n%s", procs, golden, got)
		}
	}
}

// TestMembersOnMatchesSort: on the repository benchmark's geometry
// (declustered, p = 4), where a disk's data keys walked in block order come
// nearly sorted but not sorted, the queue a failure installs equals every
// block the replaced disk owes, keyed by the layout and fully sorted
// (TestRebuildOrderMatchesReference holds the seven schemes' small
// geometries to the store-wide reference).
func TestMembersOnMatchesSort(t *testing.T) {
	for _, d := range []int{32, 64} {
		s := newServer(t, Declustered, d, 4)
		for k := 0; k < 3; k++ {
			if err := s.AddClip(fmt.Sprint("clip-", k), clipBytes(int64(k), 1_000_000+k*77_777)); err != nil {
				t.Fatal(err)
			}
		}
		arr := s.store.Array
		for _, disk := range []int{0, 1, d / 2, d - 1} {
			got := installedQueue(t, s, disk)
			var want []recovery.Member
			for b := arr.NextOwed(disk, 0); b >= 0; b = arr.NextOwed(disk, b+1) {
				var g layout.Group
				key := int64(0)
				if idx := s.lay.GroupAt(layout.BlockAddr{Disk: disk, Block: b}, &g); idx < len(g.Data) {
					key = g.Data[idx]
				} else {
					key = slices.Min(g.Data)
				}
				want = append(want, recovery.Member{Key: key, Block: b})
			}
			slices.SortFunc(want, func(a, b recovery.Member) int { return cmp.Compare(a.Key, b.Key) })
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Fatalf("d=%d disk %d: queue of %d members differs from the sorted %d", d, disk, len(got), len(want))
			}
		}
	}
}

// diskImage fingerprints every block of a disk: its stored bytes, or that
// it holds none or holds rot.
func diskImage(arr *storage.Array, disk int) uint64 {
	h := fnv.New64a()
	for b := int64(0); b < arr.Extent(); b++ {
		fmt.Fprint(h, arr.Written(disk, b))
		h.Write(arr.Peek(disk, b))
	}
	return h.Sum64()
}

// TestRebuildBatchWritesOnlySpare: while a rebuild's batch runs — plan,
// pool pass, commit — the only disk written is the one it rebuilds, so the
// bytes the pool verified stay true, and none outlives its batch. Two
// overlapping P+Q rebuilds each run their own batch in the same rounds.
func TestRebuildBatchWritesOnlySpare(t *testing.T) {
	cfg := testConfig(DeclusteredPQ, 13, 4)
	cfg.Spares = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := s.AddClip(fmt.Sprint("clip-", k), clipBytes(int64(k), 800_000)); err != nil {
			t.Fatal(err)
		}
	}
	arr := s.store.Array
	for _, disk := range []int{3, 8} {
		if err := s.FailDisk(disk); err != nil {
			t.Fatal(err)
		}
	}
	batches := 0
	for round := 0; s.Mode() != ModeHealthy; round++ {
		if round > 500 {
			t.Fatal("rebuild does not finish")
		}
		s.engine.BeginRound()
		for _, rb := range slices.Clone(s.rebuilds) {
			before := make([]uint64, cfg.D)
			for d := range before {
				before[d] = diskImage(arr, d)
			}
			s.rebuildOne(rb)
			batches++
			for d := range before {
				if d != rb.disk && diskImage(arr, d) != before[d] {
					t.Fatalf("round %d: the batch rebuilding disk %d wrote disk %d", round, rb.disk, d)
				}
			}
			for i := range s.batch {
				if slices.ContainsFunc(s.batch[i].bufs, func(b []byte) bool { return b != nil }) || s.batch[i].dst != nil {
					t.Fatalf("round %d: batch entry %d keeps stored bytes or a buffer past its batch", round, i)
				}
			}
		}
		s.rebuilds = slices.DeleteFunc(s.rebuilds, func(rb *rebuildState) bool { return rb.next == len(rb.queue) })
	}
	if st := s.Stats(); st.RebuildsDone != 2 || st.LostBlocks != 0 || batches < 4 {
		t.Fatalf("rebuilds done %d, lost %d, batches %d", st.RebuildsDone, st.LostBlocks, batches)
	}
}

// TestRebuildRoundAllocs pins a rebuild round from the allocation side:
// once warm, the rounds of a rebuild allocate nothing but the fresh bytes
// of blocks whose old bytes were lent out, one block-sized object each.
// Every seventh block of each failed disk is lent first, as a stream read
// lends it. Like testing.AllocsPerRun it counts at GOMAXPROCS 1, where the
// three passes run on one goroutine (the pool's own records are
// TestForEachAllocs'), and in whole objects per round: a runtime record or
// a read-error slab, one per 64 misses, rounds down.
func TestRebuildRoundAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fb := newFailBench(t, 0, 4, 1024)
	s, arr := fb.s, fb.s.store.Array
	bs := uint64(arr.BlockSize())
	var rounds, rewrites, objects, bytes uint64
	cycle := func(disk int, count bool) {
		var lent []int64
		for b := int64(0); b < arr.Extent(); b += 7 {
			if arr.Written(disk, b) {
				if _, _, err := arr.Lend(disk, b); err != nil {
					t.Fatal(err)
				}
				lent = append(lent, b)
			}
		}
		if err := s.FailDisk(disk); err != nil {
			t.Fatal(err)
		}
		for s.Mode() != ModeHealthy {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fb.round(t)
			runtime.ReadMemStats(&after)
			if count {
				rounds++
				objects += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
		}
		if count {
			rewrites += uint64(len(lent))
		}
	}
	for disk := 0; disk < 24; disk++ {
		cycle(disk, disk >= 8) // warm: the batch, the freelists, the latency log
	}
	t.Logf("%d rounds: %d objects, %d bytes, %d lent blocks rewritten", rounds, objects, bytes, rewrites)
	// A block's size class is at most an eighth over its length.
	if rewrites < 100 || objects < rewrites || (objects-rewrites)/rounds != 0 || bytes < rewrites*bs || bytes > rewrites*(bs+bs/8)+(objects-rewrites)*4096 {
		t.Errorf("a rebuild round allocated %d objects (%d bytes) beyond its %d lent rewrites of %d bytes, over %d rounds",
			objects-rewrites, bytes-rewrites*bs, rewrites, bs, rounds)
	}
}

// rotArc is one rebuild of the disk holding the parity of a clip's last,
// short group: the disk's blocks before it failed, the fourth queued
// block and, when it rotted, the data member of that block's group that
// rotted before the rebuild's first round, the rebuild's length and its
// read-hook calls.
type rotArc struct {
	s             *Server
	disk          int
	image         [][]byte
	block         int64
	rotten        layout.BlockAddr
	rounds, hooks int
}

func rotRun(t *testing.T, scheme Scheme, rot bool) rotArc {
	t.Helper()
	cfg := testConfig(scheme, 13, 4)
	cfg.Spares = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1201 blocks, a rebuild of four or five rounds. The last group of three
	// (declustered) or two (P+Q) data members holds one, so its others are
	// absent and the pool reads zeroes for them.
	if err := s.AddClip("short", clipBytes(7, 1200*8000+100)); err != nil {
		t.Fatal(err)
	}
	arr := s.store.Array
	r := rotArc{s: s, disk: groupOf(s.lay, 1200).Parity.Disk}
	for b := int64(0); b < arr.Extent(); b++ {
		r.image = append(r.image, bytes.Clone(arr.Peek(r.disk, b)))
	}
	if err := s.FailDisk(r.disk); err != nil {
		t.Fatal(err)
	}
	arr.SetReadHook(func(int, int64) (float64, error) { r.hooks++; return 1, nil })
	var g layout.Group
	r.block = s.rebuilds[0].queue[3].Block
	t0 := s.lay.GroupAt(layout.BlockAddr{Disk: r.disk, Block: r.block}, &g)
	r.rotten = g.DataAddr[(t0+1)%len(g.Data)]
	if rot {
		if err := arr.CorruptBits(r.rotten.Disk, r.rotten.Block, []uint64{9}); err != nil {
			t.Fatal(err)
		}
	}
	for ; len(s.rebuilds) > 0; r.rounds++ {
		if r.rounds > 100 {
			t.Fatalf("%s: the rebuild makes no progress: %d blocks pending", scheme, s.Stats().RebuildPending)
		}
		tick(t, s, 1)
	}
	return r
}

// corruptions reads a detector's corruption count on disk off how many
// more corrupt observations declare the disk failed (at the default
// threshold, 16).
func corruptions(dt *health.Detector, disk int) int {
	dt.SetOnFail(func(int) {})
	n := 1
	for dt.Observe(disk, 1, storage.ErrCorruptBlock) != health.Down {
		n++
	}
	return 16 - n
}

// TestRebuildRotProgress: a survivor the rebuild reads has rotted. The
// plan's probe does not check checksums; the pool's does, and the commit
// refunds the batch from that entry on and repairs the entry live. A clean
// rebuild, absent members of the short group included, reads each member
// once; this one still finishes within a round of it and charges at most
// the parity read the rot pulls in beyond it (at -cpu 1 the pool pass runs
// on the owner, at 4 on helpers). Under P+Q the spare then holds exactly
// the failed disk's bytes and rejoins; under single parity only the rotten
// member's group is lost, and its one block stays owed. The detector scored
// the rot as a live Detector.Read of the member does: twice.
func TestRebuildRotProgress(t *testing.T) {
	for _, scheme := range []Scheme{Declustered, DeclusteredPQ} {
		t.Run(scheme.String(), func(t *testing.T) {
			clean, r := rotRun(t, scheme, false), rotRun(t, scheme, true)
			if reads := clean.s.Stats().RebuildReads; int64(clean.hooks) != reads {
				t.Errorf("a clean rebuild read %d times for %d charged reads: an entry deviated", clean.hooks, reads)
			}
			if r.rounds > clean.rounds+1 {
				t.Errorf("the rebuild took %d rounds, a clean one %d", r.rounds, clean.rounds)
			}
			if got, want := r.s.Stats().RebuildReads, clean.s.Stats().RebuildReads; got > want+int64(r.s.erasures)-1 {
				t.Errorf("the rebuild charged %d reads, a clean one %d: refunded reads count once, the rot adds at most a parity read", got, want)
			}
			arr := r.s.store.Array
			lost := map[int64]bool{}
			if scheme == Declustered {
				lost[r.block] = true
			}
			st := r.s.Stats()
			if st.LostBlocks != int64(len(lost)) || arr.OwedBlocks(r.disk) != len(lost) || (len(lost) == 0) != (arr.State(r.disk) == storage.Healthy) {
				t.Fatalf("lost %d, owed %d, disk %v; want %d lost and owed", st.LostBlocks, arr.OwedBlocks(r.disk), arr.State(r.disk), len(lost))
			}
			for b, want := range r.image {
				if lost[int64(b)] {
					want = nil
				}
				if !bytes.Equal(arr.Peek(r.disk, int64(b)), want) {
					t.Fatalf("block %d (lost %v) differs from the failed disk's", b, lost[int64(b)])
				}
			}
			ref := health.NewDetector(arr.Disks(), health.Config{})
			if _, err := ref.Read(arr, r.rotten.Disk, r.rotten.Block, make([]byte, arr.BlockSize())); !errors.Is(err, storage.ErrCorruptBlock) {
				t.Fatalf("a live read of the rotten member: %v", err)
			}
			if got, want := corruptions(r.s.detector, r.rotten.Disk), corruptions(ref, r.rotten.Disk); got != want || want != 2 {
				t.Errorf("the detector scored %d corruptions on disk %d, a live read %d", got, r.rotten.Disk, want)
			}
		})
	}
}

// TestRebuildDroppedMidStep: under P+Q two rebuilds run at once, and the
// second one's read of a block the first has already rebuilt can get the
// first one's spare declared failed, which drops the first rebuild inside
// the second one's step. When the second then finishes, rebuildStep must
// take it out by identity: both rebuilds leave the list and the step does
// not panic. The state is built by hand: the first rebuild stalls on its
// next entry (every disk outside the second one's group is charged to q)
// and the second owes one block, whose group reads the first one's spare.
func TestRebuildDroppedMidStep(t *testing.T) {
	const a, b = 3, 8
	cfg := testConfig(DeclusteredPQ, 13, 4)
	cfg.Spares = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClip("c", clipBytes(1, 8_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(b); err != nil {
		t.Fatal(err)
	}
	if len(s.rebuilds) != 2 || s.rebuilds[0].disk != a || s.rebuilds[0].next == 0 {
		t.Fatalf("want disk %d's rebuild under way ahead of disk %d's, have %d rebuilds", a, b, len(s.rebuilds))
	}
	ra, rb := s.rebuilds[0], s.rebuilds[1]
	arr := s.store.Array
	disks := func(at layout.BlockAddr) map[int]bool {
		var g layout.Group
		s.lay.GroupAt(at, &g)
		set := map[int]bool{}
		for idx := 0; idx < len(g.Data)+2; idx++ {
			set[memberAddr(&g, idx).Disk] = true
		}
		return set
	}
	next := disks(layout.BlockAddr{Disk: a, Block: ra.queue[ra.next].Block})
	// The entry of the second rebuild to keep: its group reads a block the
	// first has rebuilt, and leaves out a disk the first one's next entry
	// reads, which the charges below then stall.
	var group map[int]bool
	for _, m := range rb.queue {
		var g layout.Group
		t := s.lay.GroupAt(layout.BlockAddr{Disk: b, Block: m.Block}, &g)
		set := disks(layout.BlockAddr{Disk: b, Block: m.Block})
		readsA, stalls := false, false
		for _, idx := range planReads(&g, []int{t}, nil, nil) {
			ma := memberAddr(&g, idx)
			readsA = readsA || ma.Disk == a && arr.Written(a, ma.Block)
		}
		for d := range next {
			stalls = stalls || d != a && !set[d]
		}
		if readsA && stalls {
			rb.queue, group = []recovery.Member{m}, set
			break
		}
	}
	if group == nil {
		t.Fatal("no entry of the second rebuild reads a block the first has rebuilt")
	}
	arr.SetReadHook(func(disk int, _ int64) (float64, error) {
		if disk == a {
			return 0, errors.New("spare dead")
		}
		return 1, nil
	})
	s.engine.BeginRound()
	for d := 0; d < cfg.D; d++ {
		for !group[d] && s.engine.Load(d) < cfg.Q {
			s.engine.Charge(d)
		}
	}
	s.rebuildStep()
	if !arr.Failed(a) || len(s.rebuilds) != 0 || rb.next != 1 {
		t.Fatalf("disk %d failed %v, %d rebuilds left, second rebuild at %d of 1", a, arr.Failed(a), len(s.rebuilds), rb.next)
	}
}

// TestRebuildChecksMembersSums: a block the pool rebuilds by XOR must sum to
// what its members' stored sums predict. Fed a wrong member — the zero
// block an absent member of a short group stands for, with a bit set — the
// rebuild installs nothing, leaves the block owed and fails the round with
// the block's name; with the member right again the next round rebuilds it.
func TestRebuildChecksMembersSums(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Spares = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := clipBytes(9, 5000) // block 0 of a group whose block 1 is absent
	if err := s.AddClip("c", want); err != nil {
		t.Fatal(err)
	}
	a := s.lay.Place(0)
	if err := s.FailDisk(a.Disk); err != nil {
		t.Fatal(err)
	}
	s.startPool()
	s.joinPool()
	s.zero[17] ^= 4
	err = s.Tick()
	if name := fmt.Sprintf("disk %d block %d", a.Disk, a.Block); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("Tick = %v, want an error naming %s", err, name)
	}
	if b := s.store.Array.NextOwed(a.Disk, a.Block); b != a.Block {
		t.Fatalf("the disk owes block %d first, want %d still owed", b, a.Block)
	}
	s.zero[17] ^= 4
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	got := s.store.Array.Peek(a.Disk, a.Block)
	if s.Mode() != ModeHealthy || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("mode %s: the block was not rebuilt to its bytes", s.Mode())
	}
}
