package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/recovery"
	"ftcms/internal/scheme"
	"ftcms/internal/storage"
	"ftcms/internal/units"
)

// testDisk is a fast disk model for unit tests: small latencies allow
// small blocks, keeping test memory and time low while still exercising
// Equation 1.
func testDisk() diskmodel.Parameters {
	return diskmodel.Parameters{
		TransferRate: 45 * units.Mbps,
		Settle:       0.05 * units.Millisecond,
		Seek:         0.1 * units.Millisecond,
		Rotation:     0.1 * units.Millisecond,
		Capacity:     2 * units.GB,
		PlaybackRate: 1.5 * units.Mbps,
	}
}

func testConfig(scheme Scheme, d, p int) Config {
	return Config{
		Scheme: scheme,
		Disk:   testDisk(),
		D:      d,
		P:      p,
		Block:  8 * units.KB, // 8000 bytes
		Q:      8,
		F:      2,
		Buffer: 64 * units.MB,
	}
}

func newServer(t *testing.T, scheme Scheme, d, p int) *Server {
	t.Helper()
	s, err := New(testConfig(scheme, d, p))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// clipNames returns the stored clips' names in sorted order.
func clipNames(s *Server) []string {
	names := make([]string, 0, len(s.clips))
	for name := range s.clips {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// countReads installs a read hook on the server's array that counts the
// physical reads reaching each disk, and returns the counts.
func countReads(s *Server) []int {
	n := make([]int, s.cfg.D)
	s.store.Array.SetReadHook(func(disk int, _ int64) (float64, error) {
		n[disk]++
		return 1, nil
	})
	return n
}

// readAt reads the block at (disk, block) straight off the array.
func readAt(s *Server, disk int, block int64) ([]byte, error) {
	buf := make([]byte, s.store.Array.BlockSize())
	if err := s.store.Array.ReadInto(disk, block, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readLogical is readAt for logical block i.
func readLogical(s *Server, i int64) ([]byte, error) {
	a := s.lay.Place(i)
	return readAt(s, a.Disk, a.Block)
}

func clipBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// drainStream ticks the server until the stream finishes, returning all
// bytes read. maxTicks guards against livelock.
func drainStream(t *testing.T, s *Server, st *Stream, maxTicks int) []byte {
	t.Helper()
	var out []byte
	buf := make([]byte, 64<<10)
	for i := 0; i < maxTicks; i++ {
		if err := s.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		for {
			n, err := st.Read(buf)
			out = append(out, buf[:n]...)
			if errors.Is(err, io.EOF) {
				return out
			}
			if errors.Is(err, ErrNoData) || n == 0 {
				break
			}
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
		}
	}
	t.Fatalf("stream did not finish in %d ticks", maxTicks)
	return nil
}

// TestNewRejectsInvalidScheme: the zero Scheme and an out-of-range value
// are both refused.
func TestNewRejectsInvalidScheme(t *testing.T) {
	for _, sc := range []Scheme{0, 99} {
		if _, err := New(testConfig(sc, 7, 3)); err == nil {
			t.Errorf("accepted scheme %v", sc)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.D = 1
	if _, err := New(cfg); err == nil {
		t.Error("accepted d=1")
	}
	cfg = testConfig(Declustered, 7, 3)
	cfg.Block = 100 // violates Equation 1 at q=8
	if _, err := New(cfg); err == nil {
		t.Error("accepted Equation-1-violating block size")
	}
	// On the Figure 1 disk, q=29 blocks of 100 KB violate Equation 1.
	cfg = testConfig(Declustered, 8, 4)
	cfg.Disk, cfg.Q, cfg.Block = diskmodel.Default(), 29, 100*units.KB
	if _, err := New(cfg); err == nil {
		t.Error("accepted Equation-1-violating configuration")
	}
	cfg = testConfig(StreamingRAID, 7, 3) // p must divide d
	if _, err := New(cfg); err == nil {
		t.Error("accepted p∤d for streaming RAID")
	}
	// Zero disk model defaults to Figure 1 (which needs a bigger block
	// for q=8).
	cfg = testConfig(Declustered, 7, 3)
	cfg.Disk = diskmodel.Parameters{}
	cfg.Block = 2 * units.MB
	if _, err := New(cfg); err != nil {
		t.Errorf("default disk model rejected: %v", err)
	}
}

func TestAddClipErrors(t *testing.T) {
	s := newServer(t, Declustered, 7, 3)
	if err := s.AddClip("a", clipBytes(1, 50_000)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClip("a", clipBytes(1, 100)); err == nil {
		t.Error("accepted duplicate clip name")
	}
	if err := s.AddClip("b", nil); err == nil {
		t.Error("accepted empty clip")
	}
	// Fill the store.
	huge := clipBytes(2, int(s.capacity())*8000)
	if err := s.AddClip("huge", huge); err == nil {
		t.Error("accepted clip beyond capacity")
	}
}

// allSchemes is every scheme at a small geometry it accepts.
var allSchemes = []struct {
	scheme Scheme
	d, p   int
}{
	{Declustered, 7, 3},
	{DeclusteredDynamic, 7, 3},
	{PrefetchParityDisk, 8, 4},
	{PrefetchFlat, 9, 4},
	{StreamingRAID, 8, 4},
	{NonClustered, 8, 4},
	{DeclusteredPQ, 13, 4},
}

// TestAddClipMatchesPerBlockWrites: AddClip writes a clip group by group,
// and leaves every (disk, block) record exactly as writing it block by
// block through WriteBlock, zero-padded, does — under all seven schemes,
// the dynamic scheme's strided rows included. The clips are not whole
// groups long, so a clip's first group straddles the one before, and the
// last is long enough for the pool to fill its groups.
func TestAddClipMatchesPerBlockWrites(t *testing.T) {
	sizes := []int{123_456, 8000, 50_001, 24_000, 7_999, 16_001, 40_000, 2_000_001}
	for _, c := range allSchemes {
		s, ref := newServer(t, c.scheme, c.d, c.p), newServer(t, c.scheme, c.d, c.p)
		bs := int64(s.store.Array.BlockSize())
		buf := make([]byte, bs)
		for k, size := range sizes {
			name, data := fmt.Sprint("clip-", k), clipBytes(int64(k), size)
			if err := s.AddClip(name, data); err != nil {
				t.Fatalf("%s: %v", c.scheme, err)
			}
			ci, err := ref.allocClip(int64(size))
			if err != nil {
				t.Fatal(err)
			}
			for n := int64(0); n < ci.blocks; n++ {
				clear(buf)
				copy(buf, data[min(n*bs, int64(size)):])
				if err := ref.store.WriteBlock(ci.block(n), buf); err != nil {
					t.Fatal(err)
				}
			}
			ref.clips[name] = ci
		}
		// The per-block path is WriteRun's one-block case, so the parity is
		// also held to VerifyParity, which reads every data member.
		for _, ci := range s.clips {
			for n := int64(0); n < ci.blocks; n++ {
				if err := s.store.VerifyParity(ci.block(n)); err != nil {
					t.Fatalf("%s: %v", c.scheme, err)
				}
			}
		}
		a, b := s.store.Array, ref.store.Array
		if a.Extent() != b.Extent() || a.WrittenBlocks() != b.WrittenBlocks() {
			t.Fatalf("%s: extent %d, %d blocks; per-block %d, %d", c.scheme, a.Extent(), a.WrittenBlocks(), b.Extent(), b.WrittenBlocks())
		}
		for disk := 0; disk < c.d; disk++ {
			for block := int64(0); block < a.Extent(); block++ {
				got, _ := readAt(s, disk, block) // nil when not written
				want, _ := readAt(ref, disk, block)
				if a.Written(disk, block) != b.Written(disk, block) || !bytes.Equal(got, want) {
					t.Fatalf("%s: record (%d, %d) differs from the per-block write", c.scheme, disk, block)
				}
			}
		}
	}
}

// TestStreamRoundTripAllSchemes: store clips and stream them back
// byte-exact under every scheme, fault-free.
func TestStreamRoundTripAllSchemes(t *testing.T) {
	for _, c := range allSchemes {
		s := newServer(t, c.scheme, c.d, c.p)
		want := clipBytes(7, 123_456) // ~15.5 blocks: exercises padding
		if err := s.AddClip("movie", want); err != nil {
			t.Fatalf("%s: %v", c.scheme, err)
		}
		st, err := s.OpenStream("movie")
		if err != nil {
			t.Fatalf("%s: OpenStream: %v", c.scheme, err)
		}
		if st.clip.size != int64(len(want)) {
			t.Fatalf("%s: clip size = %d, want %d", c.scheme, st.clip.size, len(want))
		}
		got := drainStream(t, s, st, 100)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: stream bytes differ (got %d, want %d)", c.scheme, len(got), len(want))
		}
		stats := s.Stats()
		if stats.Hiccups != 0 || stats.Overflows != 0 {
			t.Fatalf("%s: fault-free run produced hiccups=%d overflows=%d", c.scheme, stats.Hiccups, stats.Overflows)
		}
		if stats.Served != 1 || stats.Active != 0 {
			t.Fatalf("%s: served=%d active=%d", c.scheme, stats.Served, stats.Active)
		}
	}
}

// TestStreamThroughFailure (E10): fail a disk mid-playback; every scheme
// must still deliver byte-exact content, and the rate-guaranteeing
// schemes must do it without hiccups or budget overflows.
func TestStreamThroughFailure(t *testing.T) {
	cases := []struct {
		scheme Scheme
		d, p   int
	}{
		{Declustered, 7, 3},
		{DeclusteredDynamic, 7, 3},
		{PrefetchParityDisk, 8, 4},
		{PrefetchFlat, 9, 4},
		{StreamingRAID, 8, 4},
		{NonClustered, 8, 4},
		{DeclusteredPQ, 13, 4},
	}
	for _, c := range cases {
		for fail := 0; fail < c.d; fail++ {
			s := newServer(t, c.scheme, c.d, c.p)
			want := clipBytes(11, 200_000)
			if err := s.AddClip("movie", want); err != nil {
				t.Fatal(err)
			}
			st, err := s.OpenStream("movie")
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			buf := make([]byte, 64<<10)
			for tick := 0; tick < 120; tick++ {
				if tick == 5 {
					if err := s.FailDisk(fail); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Tick(); err != nil {
					t.Fatalf("%s fail=%d: Tick: %v", c.scheme, fail, err)
				}
				done := false
				for {
					n, err := st.Read(buf)
					got = append(got, buf[:n]...)
					if errors.Is(err, io.EOF) {
						done = true
						break
					}
					if errors.Is(err, ErrNoData) || n == 0 {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if done {
					break
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s fail=%d: bytes differ (got %d, want %d)", c.scheme, fail, len(got), len(want))
			}
			stats := s.Stats()
			if stats.Hiccups != 0 {
				t.Errorf("%s fail=%d: %d hiccups", c.scheme, fail, stats.Hiccups)
			}
		}
	}
}

// TestAdmissionLimits: the controller refuses streams beyond the caps and
// frees capacity on Close.
func TestAdmissionLimits(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Q = 3
	cfg.F = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClip("m", clipBytes(3, 400_000)); err != nil {
		t.Fatal(err)
	}
	// All streams of the same clip share a start cell; f=1 means one
	// admission per round for that cell.
	st1, err := s.OpenStream("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenStream("m"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("second same-cell stream: %v, want ErrAdmission", err)
	}
	// A round later the phase differs and admission succeeds.
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	st2, err := s.OpenStream("m")
	if err != nil {
		t.Fatalf("next-round admission failed: %v", err)
	}
	st1.Close()
	st2.Close()
	if s.Stats().Active != 0 {
		t.Fatal("Close did not release streams")
	}
	// Closed stream reads report closure.
	if _, err := st1.Read(make([]byte, 10)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestBufferPoolLimit(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Buffer = 20 * units.KB // 2·b = 128 Kbit = 16 KB per clip: exactly one fits
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClip("m", clipBytes(3, 100_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenStream("m"); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if _, err := s.OpenStream("m"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("buffer-exhausted admission: %v, want ErrAdmission", err)
	}
}

// TestRefusedOpenAllocs: a refusal by the caps builds no error, so an
// open the controller turns away allocates nothing.
func TestRefusedOpenAllocs(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Q = 3
	cfg.F = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClip("m", clipBytes(3, 400_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenStream("m"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.OpenStream("m"); !errors.Is(err, ErrAdmission) {
			t.Fatalf("same-cell stream: %v, want ErrAdmission", err)
		}
	})
	if allocs != 0 {
		t.Errorf("refused OpenStream allocates %v objects, want 0", allocs)
	}
}

func TestOpenStreamUnknownClip(t *testing.T) {
	s := newServer(t, Declustered, 7, 3)
	if _, err := s.OpenStream("nope"); err == nil {
		t.Fatal("opened unknown clip")
	}
}

// TestRepairDisk: after repair + rebuild, a *different* disk can fail and
// playback still works — the single-failure guarantee is restored.
func TestRepairDisk(t *testing.T) {
	s := newServer(t, Declustered, 7, 3)
	want := clipBytes(9, 150_000)
	if err := s.AddClip("m", want); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairDisk(2); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(5); err != nil {
		t.Fatal(err)
	}
	st, err := s.OpenStream("m")
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s, st, 100)
	if !bytes.Equal(got, want) {
		t.Fatal("bytes differ after repair + second failure")
	}
}

// TestRepairDiskUnrecoverable: an operator repair that meets a group with
// more members down than its parity covers leaves the disk Rebuilding,
// still owing what it could not restore, and a stream of the clip delivers
// only true bytes before it ends with ErrStreamLost — a hole is never
// XORed into a reconstruction as zeroes.
func TestRepairDiskUnrecoverable(t *testing.T) {
	s := newServer(t, Declustered, 13, 4)
	want := clipBytes(12, 400_000)
	if err := s.AddClip("a", want); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 2} {
		if err := s.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RepairDisk(1); !errors.Is(err, recovery.ErrUnrecoverable) || s.store.Array.State(1) != storage.Rebuilding {
		t.Errorf("RepairDisk(1) = %v with disk 1 %v; want ErrUnrecoverable, rebuilding", err, s.store.Array.State(1))
	}
	st, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; s.ActiveStreams() > 0; round++ {
		if round > 200 {
			t.Fatal("stream never finished")
		}
		tick(t, s, 1)
	}
	got, err := io.ReadAll(st)
	if !errors.Is(err, ErrStreamLost) || !bytes.Equal(got, want[:len(got)]) {
		t.Fatalf("stream read %d bytes (true prefix: %v), then %v; want a true prefix, then ErrStreamLost",
			len(got), bytes.Equal(got, want[:min(len(got), len(want))]), err)
	}
}

// TestConcurrentStreams: several streams of different clips play
// simultaneously and all finish byte-exact.
func TestConcurrentStreams(t *testing.T) {
	s := newServer(t, Declustered, 7, 3)
	clips := map[string][]byte{}
	for _, name := range []string{"a", "b", "c", "d"} {
		data := clipBytes(int64(len(name)*17), 80_000+len(name)*1000)
		clips[name] = data
		if err := s.AddClip(name, data); err != nil {
			t.Fatal(err)
		}
	}
	streams := map[string]*Stream{}
	collected := map[string][]byte{}
	for name := range clips {
		st, err := s.OpenStream(name)
		if err != nil {
			t.Fatalf("OpenStream(%s): %v", name, err)
		}
		streams[name] = st
	}
	buf := make([]byte, 64<<10)
	for tick := 0; tick < 100 && len(streams) > 0; tick++ {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
		for name, st := range streams {
			for {
				n, err := st.Read(buf)
				collected[name] = append(collected[name], buf[:n]...)
				if errors.Is(err, io.EOF) {
					delete(streams, name)
					break
				}
				if errors.Is(err, ErrNoData) || n == 0 {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if len(streams) != 0 {
		t.Fatalf("%d streams unfinished", len(streams))
	}
	for name, want := range clips {
		if !bytes.Equal(collected[name], want) {
			t.Errorf("clip %s bytes differ", name)
		}
	}
	if s.Stats().Served != 4 {
		t.Errorf("Served = %d, want 4", s.Stats().Served)
	}
}

func TestRoundDuration(t *testing.T) {
	s := newServer(t, Declustered, 7, 3)
	want := testDisk().RoundDuration(8 * units.KB)
	if got := s.RoundDuration(); got != want {
		t.Fatalf("RoundDuration = %v, want %v", got, want)
	}
	if s.BlockSize() != 8*units.KB {
		t.Fatalf("BlockSize = %v", s.BlockSize())
	}
	// Streaming RAID rounds cover p−1 blocks.
	sr := newServer(t, StreamingRAID, 8, 4)
	if got := sr.RoundDuration(); got != 3*want {
		t.Fatalf("streaming RAID RoundDuration = %v, want %v", got, 3*want)
	}
}

// TestDynamicMultiRowClips: the §5 scheme spreads clips across
// super-clips (PGT rows) round-robin; clips from different rows play
// concurrently and survive a failure byte-exactly.
func TestDynamicMultiRowClips(t *testing.T) {
	s := newServer(t, DeclusteredDynamic, 7, 3)
	want := map[string][]byte{}
	for i := 0; i < 5; i++ { // more clips than rows (r = 3): rows reused
		name := string(rune('a' + i))
		data := clipBytes(int64(100+i), 60_000+i*3000)
		want[name] = data
		if err := s.AddClip(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		st, err := s.OpenStream(name)
		if err != nil {
			t.Fatalf("OpenStream(%s): %v", name, err)
		}
		got := drainStream(t, s, st, 100)
		if !bytes.Equal(got, w) {
			t.Fatalf("clip %s corrupted", name)
		}
	}
	if h := s.Stats().Hiccups; h != 0 {
		t.Fatalf("hiccups = %d", h)
	}
}

// TestFreeBlocksDynamic: under the dynamic scheme the free space is the sum
// over super-clips of what each row has left, which every clip stored
// takes its blocks from; the cluster's placement reads it.
func TestFreeBlocksDynamic(t *testing.T) {
	s := newServer(t, DeclusteredDynamic, 7, 3)
	free, rows := s.FreeBlocks(), int64(s.pgt.Rows())
	if want := s.capacity() / rows * rows; free != want {
		t.Fatalf("an empty server has %d blocks free, want its %d rows' %d", free, rows, want)
	}
	for i := 0; i < 5; i++ { // more clips than rows (r = 3): rows reused
		name := string(rune('a' + i))
		if err := s.AddClip(name, clipBytes(int64(100+i), 60_000+i*30_000)); err != nil {
			t.Fatal(err)
		}
		free -= s.clips[name].blocks
		if got := s.FreeBlocks(); got != free {
			t.Fatalf("after clip %s (%d blocks): %d blocks free, want %d", name, s.clips[name].blocks, got, free)
		}
	}
}

// TestDynamicRepair: the dynamic scheme's per-row allocation survives the
// repair/rebuild cycle.
func TestDynamicRepair(t *testing.T) {
	s := newServer(t, DeclusteredDynamic, 7, 3)
	want := clipBytes(55, 90_000)
	if err := s.AddClip("m", want); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairDisk(3); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(6); err != nil {
		t.Fatal(err)
	}
	st, err := s.OpenStream("m")
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, s, st, 100); !bytes.Equal(got, want) {
		t.Fatal("bytes differ after dynamic repair cycle")
	}
}

// TestAuditHoldsAtSaturation: each scheme's admission controller, filled
// through OpenStreamAt at every start block until it refuses, audits
// clean every round — its per-unit (and per-class) caps hold as the
// streams rotate, before and after a disk failure.
func TestAuditHoldsAtSaturation(t *testing.T) {
	for _, sc := range scheme.All() {
		t.Run(sc.String(), func(t *testing.T) {
			s := newServer(t, sc, 12, 4)
			if err := s.AddClip("v", clipBytes(5, 400*8000)); err != nil {
				t.Fatal(err)
			}
			var streams []*Stream
			refused := 0
			for b := int64(0); b < 200; b++ {
				st, err := s.OpenStreamAt("v", b*8000)
				if errors.Is(err, ErrAdmission) {
					refused++
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, st)
			}
			if refused == 0 {
				t.Fatalf("all %d opens admitted; the controller never filled", len(streams))
			}
			buf := make([]byte, s.store.Array.BlockSize())
			for r := 0; r < 16; r++ {
				if err := s.CheckAdmission(); err != nil {
					t.Fatalf("round %d, %d streams: %v", r, len(streams), err)
				}
				if r == 6 {
					if err := s.FailDisk(1); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Tick(); err != nil {
					t.Fatal(err)
				}
				for _, st := range streams {
					for {
						if _, err := st.Read(buf); err != nil {
							if !errors.Is(err, ErrNoData) {
								t.Fatalf("round %d: %v", r, err)
							}
							break
						}
					}
				}
			}
		})
	}
}
