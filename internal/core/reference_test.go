package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"ftcms/internal/layout"
	"ftcms/internal/recovery"
)

// This file keeps, as test-only references, the store-wide enumerations
// the failure handler and the scrubber ran inside a round before they
// were driven from one disk's addresses or left to the read: the walk
// over every stored member, the rebuild and scrub queues filtered and
// sorted out of it, and the sweep over every stream's remaining blocks.
// The tests below hold the cursor-driven code to exactly their output,
// and the read to the sweep's verdicts.

// groupOf returns the parity group of logical data block i.
func groupOf(l layout.Layout, i int64) layout.Group {
	var g layout.Group
	l.GroupAt(l.Place(i), &g)
	return g
}

// refMember is the old queue entry.
type refMember struct {
	logical int64
	idx     int
	addr    layout.BlockAddr
}

// refStoredBlocks calls fn with the logical index of every stored clip
// block, clips in sorted-name order: the walk the store-wide enumerations
// made.
func refStoredBlocks(s *Server, fn func(i int64)) {
	for _, name := range clipNames(s) {
		ci := s.clips[name]
		for n := int64(0); n < ci.blocks; n++ {
			fn(ci.block(n))
		}
	}
}

// refStoredMembers calls fn once per distinct stored group member: every
// clip data block, plus one entry per P and per Q block, keyed by the
// lowest data member of its group.
func refStoredMembers(s *Server, fn func(m refMember)) {
	refMembersOf(s, refClipBlocks(s), fn)
}

// refClipBlocks lists what refStoredBlocks visits.
func refClipBlocks(s *Server) []int64 {
	var blocks []int64
	refStoredBlocks(s, func(i int64) { blocks = append(blocks, i) })
	return blocks
}

// refMembersOf is refStoredMembers over the given data blocks.
func refMembersOf(s *Server, blocks []int64, fn func(m refMember)) {
	seen := make(map[layout.BlockAddr]bool)
	for _, i := range blocks {
		g := groupOf(s.lay, i)
		nd, x := len(g.Data), slices.Index(g.Data, i)
		fn(refMember{logical: i, idx: x, addr: g.DataAddr[x]})
		for idx := nd; idx < nd+parityCols(&g); idx++ {
			if a := memberAddr(&g, idx); !seen[a] {
				seen[a] = true
				fn(refMember{logical: slices.Min(g.Data), idx: idx, addr: a})
			}
		}
	}
}

func refRebuildQueue(s *Server, disk int) []refMember {
	return refQueuesOf(s, refClipBlocks(s))[disk]
}

// refQueuesOf is every disk's refRebuildQueue over the given data blocks.
func refQueuesOf(s *Server, blocks []int64) [][]refMember {
	queues := make([][]refMember, s.cfg.D)
	refMembersOf(s, blocks, func(m refMember) {
		queues[m.addr.Disk] = append(queues[m.addr.Disk], m)
	})
	for _, queue := range queues {
		sort.Slice(queue, func(a, b int) bool { return queue[a].logical < queue[b].logical })
	}
	return queues
}

// sameQueue reports how got, a rebuild queue of disk, differs from the
// reference queue want: same blocks, same order, same key for every P and
// Q block, and the layout names the same member index for each. It
// returns "" when they agree.
func sameQueue(s *Server, disk int, got []recovery.Member, want []refMember) string {
	if len(got) != len(want) {
		return fmt.Sprintf("disk %d: %d members, want %d", disk, len(got), len(want))
	}
	var g layout.Group
	for k, m := range got {
		a := layout.BlockAddr{Disk: disk, Block: m.Block}
		if idx := s.lay.GroupAt(a, &g); m.Key != want[k].logical || a != want[k].addr || idx != want[k].idx {
			return fmt.Sprintf("disk %d entry %d: key %d addr %v idx %d, want %+v", disk, k, m.Key, a, idx, want[k])
		}
	}
	return ""
}

// installedQueue fails the disk with a spare at hand and returns the queue
// the rebuild it starts was given; the rebuild itself is dropped again.
func installedQueue(t testing.TB, s *Server, disk int) []recovery.Member {
	t.Helper()
	s.stats.SparesLeft, s.rebuilds, s.rebuildQueue = 1, nil, nil
	if err := s.FailDisk(disk); err != nil {
		t.Fatal(err)
	}
	if len(s.rebuilds) != 1 || s.rebuilds[0].disk != disk {
		t.Fatalf("failing disk %d started no rebuild of it", disk)
	}
	q := s.rebuilds[0].queue
	s.rebuilds = nil
	return q
}

func refScrubQueue(s *Server) []refMember {
	var queue []refMember
	refStoredMembers(s, func(m refMember) { queue = append(queue, m) })
	sort.Slice(queue, func(a, b int) bool {
		if queue[a].addr.Block != queue[b].addr.Block {
			return queue[a].addr.Block < queue[b].addr.Block
		}
		return queue[a].addr.Disk < queue[b].addr.Disk
	})
	return queue
}

// refUnrecoverable reports whether logical block i can currently be
// served neither directly nor by reconstruction: more members of its
// group, itself included, are unreadable than the group has parity
// columns.
func refUnrecoverable(s *Server, i int64) bool {
	if s.blockReadable(s.lay.Place(i)) {
		return false
	}
	g := groupOf(s.lay, i)
	return len(s.unreadable(&g, slices.Index(g.Data, i), nil)) > parityCols(&g)
}

// refUnrecoverableGroups lists, in sorted-name clip order, every stored
// clip block refUnrecoverable holds for: the damage failures beyond
// tolerance did.
func refUnrecoverableGroups(s *Server) []int64 {
	var out []int64
	refStoredBlocks(s, func(i int64) {
		if refUnrecoverable(s, i) {
			out = append(out, i)
		}
	})
	return out
}

// activeStreams is the map the server used to keep beside its registry:
// every active stream by id.
func activeStreams(s *Server) map[int]*Stream {
	m := map[int]*Stream{}
	for _, st := range s.reg {
		if st.active {
			m[st.id] = st
		}
	}
	return m
}

// refSweep is the sweep the failure handler once ran over every stream's
// remaining blocks, terminating nothing: each doomed stream's first
// unrecoverable clip block, by stream id.
func refSweep(s *Server) map[int]int64 {
	doomed := map[int]int64{}
	for id, st := range activeStreams(s) {
		for n := st.nextDeliver; n < st.clip.blocks; n++ {
			if refUnrecoverable(s, st.clip.block(n)) {
				doomed[id] = n
				break
			}
		}
	}
	return doomed
}

// sevenSchemes lists every scheme with a geometry it accepts.
var sevenSchemes = []struct {
	scheme Scheme
	d, p   int
}{
	{Declustered, 13, 4},
	{DeclusteredDynamic, 7, 3},
	{PrefetchParityDisk, 8, 4},
	{PrefetchFlat, 9, 4},
	{StreamingRAID, 8, 4},
	{NonClustered, 8, 4},
	{DeclusteredPQ, 13, 4},
}

// rebuildOrderPopulations are TestRebuildOrderMatchesReference's clip
// populations, also FuzzRebuildQueueIndex's seeds.
var rebuildOrderPopulations = map[string][]struct {
	name string
	size int
}{
	"one clip": {{"a", 400_000}},
	// Names sort in an order that is not allocation order, and groups
	// straddle clip boundaries.
	"several clips":    {{"m", 150_000}, {"b", 90_000}, {"z", 210_000}, {"a", 40_000}},
	"last group short": {{"a", 8000 * 37}, {"b", 8000*3 + 1}},
}

// TestRebuildOrderMatchesReference: for every scheme, clip population and
// disk, the queue a failure of the disk installs is exactly the sequence
// the store-wide filter and sort produced (sameQueue), and over all disks
// the queues hold every written block once.
func TestRebuildOrderMatchesReference(t *testing.T) {
	for _, sc := range sevenSchemes {
		for popName, pop := range rebuildOrderPopulations {
			t.Run(fmt.Sprintf("%s/%s", sc.scheme, popName), func(t *testing.T) {
				s := newServer(t, sc.scheme, sc.d, sc.p)
				for k, c := range pop {
					if err := s.AddClip(c.name, clipBytes(int64(k), c.size)); err != nil {
						t.Fatal(err)
					}
				}
				total, written := 0, s.store.Array.WrittenBlocks()
				for disk := 0; disk < sc.d; disk++ {
					want := refRebuildQueue(s, disk)
					got := installedQueue(t, s, disk)
					if diff := sameQueue(s, disk, got, want); diff != "" {
						t.Fatal(diff)
					}
					total += len(got)
				}
				if want := len(refScrubQueue(s)); total != want || written != want {
					t.Errorf("members over all disks %d, written blocks %d, want %d", total, written, want)
				}
			})
		}
	}
}

// TestScrubVisitsMatchReference records every physical read of scrub-only
// rounds and holds the sequence, and the progress Stats reports after each
// round, to the old queue's — at an unlimited and at a small scrub rate,
// across two sweeps.
func TestScrubVisitsMatchReference(t *testing.T) {
	for _, scheme := range []Scheme{Declustered, DeclusteredPQ} {
		for _, rate := range []int{-1, 7} {
			t.Run(fmt.Sprintf("%s/rate=%d", scheme, rate), func(t *testing.T) {
				cfg := testConfig(scheme, 13, 4)
				cfg.ScrubRate = rate
				s, _ := scrubServer(t, cfg, 300_000)
				if err := s.AddClip("b", clipBytes(4, 8000*11+5)); err != nil {
					t.Fatal(err)
				}
				want := refScrubQueue(s)
				var visits []layout.BlockAddr
				s.store.Array.SetReadHook(func(disk int, block int64) (float64, error) {
					visits = append(visits, layout.BlockAddr{Disk: disk, Block: block})
					return 1, nil
				})
				for round := 0; s.Stats().ScrubCycles < 2; round++ {
					if round > 2000 {
						t.Fatal("sweeps never completed")
					}
					tick(t, s, 1)
					st := s.Stats()
					scanned := len(visits) - int(st.ScrubCycles)*len(want)
					if st.ScrubCycles < 2 && scanned > 0 && (st.ScrubTotal != len(want) || st.ScrubScanned != scanned) {
						t.Fatalf("round %d: scrub progress %d/%d, want %d/%d", round, st.ScrubScanned, st.ScrubTotal, scanned, len(want))
					}
				}
				if len(visits) != 2*len(want) {
					t.Fatalf("%d visits over two sweeps, want %d", len(visits), 2*len(want))
				}
				for k, a := range visits {
					if a != want[k%len(want)].addr {
						t.Fatalf("visit %d at %v, want %v", k, a, want[k%len(want)].addr)
					}
				}
			})
		}
	}
}

// gateServer is a server with streams open at staggered positions over
// three clips, for the gate tests: no spares, so disk states stay exactly
// as the test sets them. No stream has been read: each one's readable
// queue holds its clip from byte 0. want maps a stream id to its clip.
func gateServer(t *testing.T, scheme Scheme) (s *Server, want map[int][]byte) {
	t.Helper()
	cfg := testConfig(scheme, 13, 4)
	cfg.Q, cfg.F = 24, 6
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	clips := map[string][]byte{}
	for k, name := range names {
		clips[name] = clipBytes(int64(k), 500_000+k*77_000)
		if err := s.AddClip(name, clips[name]); err != nil {
			t.Fatal(err)
		}
	}
	want = map[int][]byte{}
	for k := 0; k < 30; k++ {
		st, err := s.OpenStream(names[k%3])
		if err != nil {
			t.Fatal(err)
		}
		want[st.id] = clips[names[k%3]]
		tick(t, s, 2)
	}
	return s, want
}

// setDown puts the listed disks out of service behind the handler's back:
// failed, or — when spare is set — the first of them replaced by an empty
// spare (Rebuilding, every block unwritten).
func setDown(t *testing.T, s *Server, spare bool, disks ...int) {
	t.Helper()
	for _, d := range disks {
		if err := s.store.Array.Fail(d); err != nil {
			t.Fatal(err)
		}
	}
	if spare {
		if err := s.store.Array.Replace(disks[0]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestToleranceGateMatchesReference: within the array's tolerance — every
// single disk under single parity, every pair under P+Q, failed or an
// empty rebuilding spare — no stored block is unrecoverable and the
// reference sweep dooms no stream, so the failure handler, which sweeps
// nothing, loses no verdict. Beyond tolerance the read finds the loss:
// each stream the sweep dooms plays byte-exact up to its first
// unrecoverable block and then ends with ErrStreamLost naming that block,
// and every other stream plays its clip to the end.
func TestToleranceGateMatchesReference(t *testing.T) {
	within := func(t *testing.T, s *Server, disks ...int) {
		for _, spare := range []bool{false, true} {
			setDown(t, s, spare, disks...)
			if v := refSweep(s); len(v) != 0 {
				t.Fatalf("disks %v (spare %v): reference sweep dooms %v", disks, spare, v)
			}
			if u := refUnrecoverableGroups(s); len(u) != 0 {
				t.Fatalf("disks %v (spare %v): blocks %v unrecoverable", disks, spare, u)
			}
			for _, d := range disks {
				if err := s.RepairDisk(d); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Run("single parity within", func(t *testing.T) {
		s, _ := gateServer(t, Declustered)
		for d := 0; d < s.cfg.D; d++ {
			within(t, s, d)
		}
	})
	t.Run("P+Q within", func(t *testing.T) {
		s, _ := gateServer(t, DeclusteredPQ)
		for a := 0; a < s.cfg.D; a++ {
			for b := 0; b < s.cfg.D; b++ {
				if a != b {
					within(t, s, a, b)
				}
			}
		}
	})
	for _, tc := range []struct {
		scheme Scheme
		spare  bool
		block  int64 // the down disks are those of this block's group
	}{
		{Declustered, false, 150},
		{Declustered, true, 170},
		{DeclusteredPQ, false, 150},
		{DeclusteredPQ, true, 170},
	} {
		t.Run(fmt.Sprintf("%s beyond spare=%v", tc.scheme, tc.spare), func(t *testing.T) {
			s, want := gateServer(t, tc.scheme)
			g := groupOf(s.lay, tc.block)
			disks := []int{g.Parity.Disk, g.DataAddr[0].Disk}
			if g.HasQ {
				disks = append(disks, g.Q.Disk)
			}
			setDown(t, s, tc.spare, disks...)
			doomed := refSweep(s)
			streams := activeStreams(s)
			if len(doomed) == 0 || len(doomed) == len(streams) || len(streams) != s.ActiveStreams() {
				t.Fatalf("reference dooms %d of %d (%d counted) streams; the case wants some, not all", len(doomed), len(streams), s.ActiveStreams())
			}
			s.onDiskFailed(disks[len(disks)-1]) // the failure that crossed tolerance
			for round := 0; s.ActiveStreams() > 0; round++ {
				if round > 200 {
					t.Fatal("streams never finished")
				}
				tick(t, s, 1)
			}
			bs := int64(s.store.Array.BlockSize())
			for id, st := range streams {
				got, err := io.ReadAll(st)
				n, lost := doomed[id]
				switch {
				case !lost && (err != nil || !bytes.Equal(got, want[id])):
					t.Errorf("stream %d: %d bytes, %v; want its clip's %d", id, len(got), err, len(want[id]))
				case lost && (!bytes.Equal(got, want[id][:n*bs]) || !errors.Is(err, ErrStreamLost) ||
					!strings.Contains(err.Error(), fmt.Sprintf("clip block %d:", n))):
					t.Errorf("stream %d: %d bytes, %v; want %d bytes, then the loss of clip block %d", id, len(got), err, n*bs, n)
				}
			}
			if st := s.Stats(); st.Terminated != len(doomed) || st.Hiccups != 0 {
				t.Errorf("terminated %d, hiccups %d; want %d, 0", st.Terminated, st.Hiccups, len(doomed))
			}
		})
	}
}
