package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ftcms/internal/layout"
)

// The stream pass's pending reads (pending.go) must not show: at any
// GOMAXPROCS a round delivers the same bytes and leaves the same counters,
// detector and round ledger as the serial pass, through every way a plain
// read can go wrong. These scenarios install no read hook, so at GOMAXPROCS
// 2 and 4 the pass lends; at 1 it has no helper and is the serial loop.

// passClips and passStreams size the population: 80 streams of 8 000-byte
// blocks are 640 000 bytes of plain reads a round, over recovery.FanOut,
// and more than one pool item.
const passClips, passStreams = 8, 80

// passRun is what a scenario run produced that every run must agree on.
type passRun struct {
	trace []string // per round: counters, ledger and detector
	got   [][]byte // each stream's delivered bytes, in open order
	errs  []string // each stream's ending: "" for a whole clip
	lent  int      // pool items the stream passes published
	stats Stats    // the counters at the end
}

// passEvent scripts a scenario: it runs before the Tick of each round.
type passEvent func(t *testing.T, s *Server, streams []*Stream, round int)

// passConfig is a declustered array of 16 disks with one spare.
func passConfig() Config {
	cfg := testConfig(Declustered, 16, 4)
	cfg.Spares = 1
	return cfg
}

// runPass opens passStreams streams, two at a time on each of passClips
// clips in turn, ticking through admission refusals, and runs rounds until every stream
// has ended, at GOMAXPROCS procs.
func runPass(t *testing.T, procs int, cfg Config, event passEvent) passRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clips := make([][]byte, passClips)
	for i := range clips {
		clips[i] = clipBytes(int64(700+i), 40*8000-123)
		if err := s.AddClip(fmt.Sprintf("c%d", i), clips[i]); err != nil {
			t.Fatal(err)
		}
	}
	var (
		run     passRun
		streams []*Stream
		done    []bool
		buf     = make([]byte, 8000)
	)
	tick := func(round int) {
		if event != nil {
			event(t, s, streams, round)
		}
		if err := s.Tick(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		run.lent += s.pend.items
		owned := []byte(" owned=") // who owns each delivered chunk: the stream, or the store
		for _, st := range streams {
			for _, c := range st.readable[st.head:] {
				if c.owned {
					owned = append(owned, 'o')
				} else {
					owned = append(owned, 'l')
				}
			}
		}
		for i, st := range streams {
			for !done[i] {
				n, err := st.Read(buf)
				run.got[i] = append(run.got[i], buf[:n]...)
				if errors.Is(err, ErrNoData) {
					break
				}
				if err != nil {
					if done[i] = true; err != io.EOF {
						run.errs[i] = err.Error()
					}
				}
			}
		}
		run.trace = append(run.trace, passLine(s)+string(owned))
	}
	round := 0
	for len(streams) < passStreams {
		st, err := s.OpenStream(fmt.Sprintf("c%d", len(streams)/2%passClips))
		if errors.Is(err, ErrAdmission) {
			tick(round)
			round++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		streams, done = append(streams, st), append(done, false)
		run.got, run.errs = append(run.got, nil), append(run.errs, "")
	}
	for ; slices.Contains(done, false); round++ {
		if round > 400 {
			t.Fatal("streams still playing after 400 rounds")
		}
		tick(round)
	}
	for i := range streams {
		if want := clips[i/2%passClips]; run.errs[i] == "" && !bytes.Equal(run.got[i], want) {
			t.Errorf("GOMAXPROCS %d: stream %d delivered %d bytes unlike its clip's %d", procs, i, len(run.got[i]), len(want))
		}
	}
	run.stats = s.Stats()
	return run
}

// passLine renders what a round left: the counters, every disk's charges
// and the overflow count, and the detector's per-disk state.
func passLine(s *Server) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v ledger=", s.Stats())
	for d := 0; d < s.cfg.D; d++ {
		fmt.Fprintf(&b, "%d,", s.engine.Load(d))
	}
	fmt.Fprintf(&b, " ovf=%d", s.engine.Overflows)
	v := reflect.ValueOf(s.detector).Elem()
	for _, f := range []string{"consec", "corrupt", "state", "suspectAt", "detectLat"} {
		fmt.Fprintf(&b, " %s=%v", f, v.FieldByName(f))
	}
	return b.String()
}

// samePass runs the scenario at GOMAXPROCS 1, 2 and 4 and checks that the
// runs agree, that the pool summed plain reads above 1, and returns the
// serial run.
func samePass(t *testing.T, cfg Config, event passEvent) passRun {
	t.Helper()
	serial := runPass(t, 1, cfg, event)
	if serial.lent != 0 {
		t.Fatalf("GOMAXPROCS 1: the pass published %d pool items, want none: no helper, no pending list", serial.lent)
	}
	for _, procs := range []int{2, 4} {
		got := runPass(t, procs, cfg, event)
		if got.lent == 0 {
			t.Errorf("GOMAXPROCS %d: the pass never lent", procs)
		}
		if len(got.trace) != len(serial.trace) {
			t.Fatalf("GOMAXPROCS %d: %d rounds, serially %d", procs, len(got.trace), len(serial.trace))
		}
		for i := range got.trace {
			if got.trace[i] != serial.trace[i] {
				t.Fatalf("GOMAXPROCS %d: round %d differs:\n  serial: %s\n  pooled: %s", procs, i, serial.trace[i], got.trace[i])
			}
		}
		for i := range got.got {
			if !bytes.Equal(got.got[i], serial.got[i]) || got.errs[i] != serial.errs[i] {
				t.Fatalf("GOMAXPROCS %d: stream %d delivered %d bytes and ended %q; serially %d bytes, %q",
					procs, i, len(got.got[i]), got.errs[i], len(serial.got[i]), serial.errs[i])
			}
		}
	}
	return serial
}

// nextRead returns the address of the block st reads in the next round,
// and false when that read is its last or it has ended.
func nextRead(s *Server, st *Stream) (layout.BlockAddr, bool) {
	if st.done || st.nextFetch+1 >= st.clip.blocks {
		return layout.BlockAddr{}, false
	}
	return s.lay.Place(st.clip.block(st.nextFetch)), true
}

// corrupt flips bits of the block at a.
func corrupt(t *testing.T, s *Server, a layout.BlockAddr) {
	t.Helper()
	if err := s.store.Array.CorruptBits(a.Disk, a.Block, []uint64{7, 4001}); err != nil {
		t.Fatal(err)
	}
}

func TestTickSameAtAnyProcs(t *testing.T) {
	const at = 12 // every stream is open and playing
	t.Run("healthy", func(t *testing.T) {
		samePass(t, passConfig(), nil)
	})
	t.Run("one corrupt block read by two streams", func(t *testing.T) {
		var x layout.BlockAddr
		var rot *byte
		res := samePass(t, passConfig(), func(t *testing.T, s *Server, streams []*Stream, round int) {
			if round == at+1 {
				// The repair rewrote the rotten bytes where they lie, as
				// the serial read does a block no one holds.
				if b := s.store.Array.Peek(x.Disk, x.Block); unsafe.SliceData(b) != rot {
					t.Error("the repair gave the block fresh bytes")
				}
			}
			if round != at {
				return
			}
			for i, a := range streams {
				for _, b := range streams[i+1:] {
					var ok bool
					if x, ok = nextRead(s, a); ok && a.clip == b.clip && a.nextFetch == b.nextFetch {
						corrupt(t, s, x)
						b, _ := s.store.Array.Reserve(x.Disk, x.Block)
						rot = unsafe.SliceData(b)
						return
					}
				}
			}
			t.Fatal("no two streams read the same block")
		})
		if st := res.stats; st.CorruptionsDetected != 1 || st.CorruptionRepairs != 1 || st.Terminated != 0 {
			t.Fatalf("%+v, want one corruption detected and repaired, no stream lost", st)
		}
	})
	t.Run("one corrupt block under P+Q", func(t *testing.T) {
		cfg := passConfig()
		cfg.Scheme = DeclusteredPQ
		res := samePass(t, cfg, func(t *testing.T, s *Server, streams []*Stream, round int) {
			if round == at {
				corrupt(t, s, balanceFlip(t, s, streams))
			}
		})
		if st := res.stats; st.CorruptionRepairs != 1 || st.Terminated != 0 {
			t.Fatalf("%+v, want one corruption repaired, no stream lost", st)
		}
	})
	t.Run("a group beyond repair ends its stream", func(t *testing.T) {
		res := samePass(t, passConfig(), func(t *testing.T, s *Server, streams []*Stream, round int) {
			if round != at {
				return
			}
			x, _ := nextRead(s, streams[len(streams)/2])
			var g layout.Group
			s.lay.GroupAt(x, &g)
			corrupt(t, s, x)
			corrupt(t, s, g.Parity)
		})
		if st := res.stats; st.Terminated == 0 {
			t.Fatalf("%+v, want a stream lost", st)
		}
	})
	t.Run("the detector's threshold crossed mid-pass", func(t *testing.T) {
		cfg := passConfig()
		cfg.Health.CorruptionThreshold = 2 // one corrupt read, tried twice
		res := samePass(t, cfg, func(t *testing.T, s *Server, streams []*Stream, round int) {
			if round != at {
				return
			}
			// Rot the block the first reader of some disk reads, so that
			// a later reader in the same round meets the declared disk.
			first := map[int]layout.BlockAddr{}
			for _, st := range streams {
				x, ok := nextRead(s, st)
				if !ok {
					continue
				}
				if a, seen := first[x.Disk]; !seen {
					first[x.Disk] = x
				} else if a != x {
					corrupt(t, s, a)
					return
				}
			}
			t.Fatal("no disk is read twice in a round")
		})
		if st := res.stats; st.DetectedFailures != 1 || st.RebuildsDone != 1 {
			t.Fatalf("%+v, want a disk declared and rebuilt", st)
		}
	})
	t.Run("a finishing stream's own read fails", func(t *testing.T) {
		var rotted []layout.BlockAddr
		res := samePass(t, passConfig(), func(t *testing.T, s *Server, streams []*Stream, round int) {
			if round == 0 {
				rotted = rotted[:0]
			}
			for _, st := range streams {
				x := s.lay.Place(st.clip.block(st.nextFetch))
				if len(rotted) == 2 || st.done || st.nextFetch != st.clip.blocks-1 || slices.Contains(rotted, x) {
					continue
				}
				// The first finisher's last block is repaired, the
				// second's is beyond repair.
				if corrupt(t, s, x); len(rotted) == 1 {
					var g layout.Group
					s.lay.GroupAt(x, &g)
					corrupt(t, s, g.Parity)
				}
				rotted = append(rotted, x)
			}
		})
		if st := res.stats; st.CorruptionRepairs == 0 || st.Terminated == 0 {
			t.Fatalf("%+v, want a last block repaired and a stream lost on its last", st)
		}
	})
	t.Run("a disk failure and its rebuild", func(t *testing.T) {
		res := samePass(t, passConfig(), func(t *testing.T, s *Server, streams []*Stream, round int) {
			if round == at {
				if err := s.FailDisk(3); err != nil {
					t.Fatal(err)
				}
			}
		})
		if st := res.stats; st.RebuildsDone != 1 || st.Terminated != 0 {
			t.Fatalf("%+v, want the disk rebuilt and no stream lost", st)
		}
	})
}

// balanceFlip returns the block of a stream's next plain read whose P+Q
// repair would route through the other parity column if the charges of the
// round's later reads counted: the one the commit takes back around it.
func balanceFlip(t *testing.T, s *Server, streams []*Stream) layout.BlockAddr {
	t.Helper()
	before, all := make([]int, s.cfg.D), make([]int, s.cfg.D)
	for _, st := range streams {
		if !st.done {
			all[s.lay.Place(st.clip.block(st.nextFetch)).Disk]++
		}
	}
	for _, st := range streams {
		if st.done {
			continue
		}
		a := s.lay.Place(st.clip.block(st.nextFetch))
		before[a.Disk]++
		var g layout.Group
		s.lay.GroupAt(a, &g)
		p, q := g.Parity.Disk, g.Q.Disk
		if _, plain := nextRead(s, st); plain && (before[p] > before[q]) != (all[p] > all[q]) {
			return a
		}
	}
	t.Fatal("no read's parity column depends on the later reads")
	return layout.BlockAddr{}
}

// TestTickErrorExit: a read error that is neither a failed disk nor a
// block's ends the round with that error. Tick joins the round's pool on
// the way out, the next Tick runs, and no helper is left behind.
func TestTickErrorExit(t *testing.T) {
	cfg := testConfig(Declustered, 16, 4)
	cfg.Health.FailThreshold = 100 // the error strikes, but declares nothing
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClip("c", clipBytes(5, 40*8000)); err != nil {
		t.Fatal(err)
	}
	var streams []*Stream
	for len(streams) < passStreams {
		st, err := s.OpenStream("c")
		if errors.Is(err, ErrAdmission) {
			tickN(t, s, 1)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	tickN(t, s, 1)
	idle := runtime.NumGoroutine()
	boom := errors.New("controller fault")
	x := s.lay.Place(streams[len(streams)-1].clip.block(streams[len(streams)-1].nextFetch))
	s.store.Array.SetReadHook(func(disk int, block int64) (float64, error) {
		if disk == x.Disk && block == x.Block {
			return 1, boom
		}
		return 1, nil
	})
	if err := s.Tick(); !errors.Is(err, boom) {
		t.Fatalf("Tick = %v, want %v", err, boom)
	}
	s.store.Array.SetReadHook(nil)
	tickN(t, s, 1)
	for i := 0; runtime.NumGoroutine() > idle; i++ {
		if i == 10_000 {
			t.Fatalf("%d goroutines after the error exit, %d before", runtime.NumGoroutine(), idle)
		}
		runtime.Gosched()
	}
}
