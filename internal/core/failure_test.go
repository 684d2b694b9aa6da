package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ftcms/internal/faultinject"
	"ftcms/internal/storage"
)

// drainResult drains a stream to completion OR termination, verifying
// every delivered byte against want as it goes (the "no corrupt byte is
// ever emitted" invariant). It returns the number of verified bytes and
// the terminal error (nil for a clean EOF).
func drainResult(t *testing.T, s *Server, st *Stream, want []byte, maxTicks int) (int64, error) {
	t.Helper()
	var off int64
	buf := make([]byte, 64<<10)
	for i := 0; i < maxTicks; i++ {
		if err := s.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		for {
			n, err := st.Read(buf)
			if n > 0 {
				if off+int64(n) > int64(len(want)) {
					t.Fatalf("stream delivered %d bytes past clip end", off+int64(n)-int64(len(want)))
				}
				if !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
					t.Fatalf("corrupt byte delivered at offset %d", off)
				}
				off += int64(n)
			}
			if errors.Is(err, io.EOF) {
				return off, nil
			}
			if errors.Is(err, ErrStreamLost) {
				return off, err
			}
			if errors.Is(err, ErrNoData) || n == 0 {
				break
			}
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
		}
	}
	t.Fatalf("stream neither finished nor terminated in %d ticks", maxTicks)
	return 0, nil
}

// TestDetectionFlipsDegraded injects a fail-stop through the fault plan —
// no FailDisk operator command anywhere — and checks the health detector
// declares the disk failed from the streaming path's own reads, the
// server flips to degraded mode, and the stream's bytes stay bit-exact
// with zero hiccups.
func TestDetectionFlipsDegraded(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Faults = &faultinject.Plan{
		Seed:      1,
		FailStops: []faultinject.FailStop{{Disk: 2, Round: 3}},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clip := clipBytes(7, 320_000) // 40 blocks, touches every disk repeatedly
	if err := s.AddClip("a", clip); err != nil {
		t.Fatal(err)
	}
	st, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s, st, 200)
	if !bytes.Equal(got, clip) {
		t.Fatal("bytes diverge across detected failure")
	}
	stats := s.Stats()
	if len(stats.FailedDisks) != 1 || stats.FailedDisks[0] != 2 {
		t.Fatalf("FailedDisks = %v, want [2]", stats.FailedDisks)
	}
	if stats.Mode != ModeDegraded {
		t.Fatalf("mode = %v, want degraded", stats.Mode)
	}
	if stats.DetectedFailures != 1 {
		t.Fatalf("DetectedFailures = %d, want 1", stats.DetectedFailures)
	}
	if stats.Hiccups != 0 {
		t.Fatalf("%d hiccups across detection", stats.Hiccups)
	}
	if s.Detector().Stats().Declared != 1 {
		t.Fatalf("detector declared %d disks, want 1", s.Detector().Stats().Declared)
	}
}

// TestSlowDiskDeclaredByTimeout injects a persistent slowdown above the
// detector's SlowFactor: reads still return data, but the timeout strikes
// accumulate and the disk is declared failed — while every delivered byte
// stays exact.
func TestSlowDiskDeclaredByTimeout(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Faults = &faultinject.Plan{
		Seed:  1,
		Slows: []faultinject.Slow{{Disk: 1, Factor: 10, From: 2}},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clip := clipBytes(8, 320_000)
	if err := s.AddClip("a", clip); err != nil {
		t.Fatal(err)
	}
	st, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s, st, 200)
	if !bytes.Equal(got, clip) {
		t.Fatal("bytes diverge across slow-disk declaration")
	}
	stats := s.Stats()
	if len(stats.FailedDisks) != 1 || stats.FailedDisks[0] != 1 {
		t.Fatalf("FailedDisks = %v, want [1]", stats.FailedDisks)
	}
	if ds := s.Detector().Stats(); ds.Timeouts == 0 {
		t.Fatal("no timeout strikes recorded for a 10x-slow disk")
	}
	if stats.Hiccups != 0 {
		t.Fatalf("%d hiccups", stats.Hiccups)
	}
}

// TestBadBlockRepairedInPlace plants a latent bad block under a clip
// block: the read path must reconstruct it from its parity group, rewrite
// it in place (sector remap), clear the injected fault, and never indict
// the whole disk.
func TestBadBlockRepairedInPlace(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Faults = &faultinject.Plan{Seed: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clip := clipBytes(9, 320_000)
	if err := s.AddClip("a", clip); err != nil {
		t.Fatal(err)
	}
	addr := s.lay.Place(s.clips["a"].block(5))
	s.injector.AddBadBlock(faultinject.BadBlock{Disk: addr.Disk, Block: addr.Block})

	st, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s, st, 200)
	if !bytes.Equal(got, clip) {
		t.Fatal("bytes diverge across bad-block repair")
	}
	stats := s.Stats()
	if stats.BadBlockRepairs != 1 {
		t.Fatalf("BadBlockRepairs = %d, want 1", stats.BadBlockRepairs)
	}
	if len(stats.FailedDisks) != 0 || stats.Mode != ModeHealthy {
		t.Fatalf("bad block escalated to disk failure: %v, mode %v", stats.FailedDisks, stats.Mode)
	}
	if stats.Hiccups != 0 {
		t.Fatalf("%d hiccups", stats.Hiccups)
	}
	// The repair rewrote the physical block: a direct read now succeeds.
	if _, err := readAt(s, addr.Disk, addr.Block); err != nil {
		t.Fatalf("bad block not rewritten in place: %v", err)
	}
}

// TestTransientErrorsRetried injects probabilistic transient read errors
// on one disk: the retry loop (and, if the detector loses patience, the
// degraded path) must keep delivery bit-exact with zero hiccups.
func TestTransientErrorsRetried(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Faults = &faultinject.Plan{
		Seed:       42,
		Transients: []faultinject.Transient{{Disk: 3, Prob: 0.35, From: 1}},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clip := clipBytes(10, 320_000)
	if err := s.AddClip("a", clip); err != nil {
		t.Fatal(err)
	}
	st, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s, st, 200)
	if !bytes.Equal(got, clip) {
		t.Fatal("bytes diverge under transient errors")
	}
	if s.injector.Stats().HardErrors == 0 {
		t.Fatal("transient plan injected nothing")
	}
	if stats := s.Stats(); stats.Hiccups != 0 {
		t.Fatalf("%d hiccups", stats.Hiccups)
	}
}

// TestHotSpareRebuildRejoin fails a disk with one hot spare configured:
// the online rebuild must refill the spare byte-accurately from idle
// round capacity, rejoin it, and return the server to healthy mode — all
// while a stream plays through undisturbed.
func TestHotSpareRebuildRejoin(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Spares = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clip := clipBytes(11, 320_000)
	if err := s.AddClip("a", clip); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if got := s.SparesLeft(); got != 0 {
		t.Fatalf("SparesLeft = %d after failure, want 0", got)
	}
	st, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s, st, 200)
	if !bytes.Equal(got, clip) {
		t.Fatal("bytes diverge during online rebuild")
	}
	// Let the rebuild finish on idle rounds.
	for i := 0; i < 200 && s.Mode() != ModeHealthy; i++ {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	stats := s.Stats()
	if stats.Mode != ModeHealthy {
		t.Fatalf("mode = %v after rebuild, want healthy", stats.Mode)
	}
	if stats.RebuildsDone != 1 {
		t.Fatalf("RebuildsDone = %d, want 1", stats.RebuildsDone)
	}
	if st := s.store.Array.State(2); st != storage.Healthy {
		t.Fatalf("disk 2 state = %v after rejoin, want healthy", st)
	}
	// Byte accuracy of the rebuilt disk, two ways. First: every clip
	// block's parity group verifies.
	ci := s.clips["a"]
	for n := int64(0); n < ci.blocks; n++ {
		if err := s.store.VerifyParity(ci.block(n)); err != nil {
			t.Fatalf("after rejoin: %v", err)
		}
	}
	// Second: fail a different disk and replay — reconstruction now XORs
	// the rebuilt disk's blocks in, so any silent corruption surfaces.
	if err := s.FailDisk(4); err != nil {
		t.Fatal(err)
	}
	st2, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, s, st2, 200); !bytes.Equal(got, clip) {
		t.Fatal("replay through rebuilt disk diverges")
	}
	if stats := s.Stats(); stats.Hiccups != 0 {
		t.Fatalf("%d hiccups", stats.Hiccups)
	}
}

// TestSecondFailureDuringRebuild is the acceptance scenario: a seeded
// plan fails one disk, lets the online rebuild get partway, then fails a
// second disk. The server must (a) never emit a corrupt byte, (b) end
// exactly the streams whose remaining playback needs an unrecoverable
// parity group, each with an explicit ErrStreamLost reason, (c) keep
// every surviving stream's rate guarantee (zero hiccups), and (d) never
// rejoin the partially-rebuilt spare.
func TestSecondFailureDuringRebuild(t *testing.T) {
	cfg := testConfig(Declustered, 7, 3)
	cfg.Spares = 1
	cfg.Faults = &faultinject.Plan{
		Seed: 1,
		FailStops: []faultinject.FailStop{
			{Disk: 2, Round: 2},
			{Disk: 5, Round: 3},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clips := map[string][]byte{
		"a": clipBytes(21, 960_000), // 120 blocks each: long enough that
		"b": clipBytes(22, 960_000), // both failures land mid-playback
	}
	for name, data := range clips {
		if err := s.AddClip(name, data); err != nil {
			t.Fatal(err)
		}
	}
	sa, err := s.OpenStream("a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := s.OpenStream("b")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		name  string
		st    *Stream
		bytes int64
		err   error
	}
	var results []result
	// Drive both streams in one loop so the failure cascade hits them at
	// the same rounds, verifying every byte against the source.
	offsets := map[*Stream]int64{sa: 0, sb: 0}
	want := map[*Stream][]byte{sa: clips["a"], sb: clips["b"]}
	live := []*Stream{sa, sb}
	names := map[*Stream]string{sa: "a", sb: "b"}
	buf := make([]byte, 64<<10)
	for tick := 0; tick < 600 && len(live) > 0; tick++ {
		if err := s.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		for i := 0; i < len(live); {
			st := live[i]
			final := false
			var ferr error
			for {
				n, rerr := st.Read(buf)
				if n > 0 {
					w := want[st]
					off := offsets[st]
					if off+int64(n) > int64(len(w)) || !bytes.Equal(buf[:n], w[off:off+int64(n)]) {
						t.Fatalf("stream %s: corrupt byte at offset %d", names[st], off)
					}
					offsets[st] = off + int64(n)
				}
				if errors.Is(rerr, io.EOF) || errors.Is(rerr, ErrStreamLost) {
					final = true
					if !errors.Is(rerr, io.EOF) {
						ferr = rerr
					}
					break
				}
				if errors.Is(rerr, ErrNoData) || n == 0 {
					break
				}
				if rerr != nil {
					t.Fatalf("stream %s: %v", names[st], rerr)
				}
			}
			if final {
				results = append(results, result{names[st], st, offsets[st], ferr})
				live = append(live[:i], live[i+1:]...)
			} else {
				i++
			}
		}
	}
	if len(results) != 2 {
		t.Fatalf("only %d of 2 streams reached a terminal state", len(results))
	}

	stats := s.Stats()
	if stats.Hiccups != 0 {
		t.Fatalf("%d hiccups — surviving streams missed deadlines", stats.Hiccups)
	}
	if len(stats.FailedDisks) != 1 || stats.FailedDisks[0] != 5 {
		t.Fatalf("FailedDisks = %v, want [5] (2 is replaced by the spare)", stats.FailedDisks)
	}
	if stats.DetectedFailures != 2 {
		t.Fatalf("DetectedFailures = %d, want 2", stats.DetectedFailures)
	}
	terminated := 0
	for _, r := range results {
		if r.err != nil {
			terminated++
			if !errors.Is(r.st.Err(), ErrStreamLost) {
				t.Fatalf("stream %s terminated without explicit reason: %v", r.name, r.st.Err())
			}
		} else {
			if r.bytes != int64(len(clips[r.name])) {
				t.Fatalf("stream %s ended cleanly with %d of %d bytes", r.name, r.bytes, len(clips[r.name]))
			}
			if r.st.Err() != nil {
				t.Fatalf("completed stream %s has Err %v", r.name, r.st.Err())
			}
		}
	}
	if terminated != stats.Terminated {
		t.Fatalf("observed %d terminations, stats say %d", terminated, stats.Terminated)
	}
	// The second failure must have stranded some parity groups: the
	// rebuild skipped blocks and the spare must never rejoin.
	if stats.LostBlocks == 0 {
		t.Fatal("no lost blocks — second failure did not overlap the rebuild")
	}
	if stats.RebuildsDone != 0 {
		t.Fatal("a partial rebuild rejoined")
	}
	if st := s.store.Array.State(2); st != storage.Rebuilding {
		t.Fatalf("partially-rebuilt disk 2 is %v, want rebuilding", st)
	}
	if groups := refUnrecoverableGroups(s); len(groups) == 0 {
		t.Fatal("no unrecoverable groups enumerated after double failure")
	}
	// Unrebuilt blocks on the partial spare must error explicitly, never
	// read as zeroes.
	ci := s.clips["a"]
	sawExplicit := false
	for n := int64(0); n < ci.blocks && !sawExplicit; n++ {
		addr := s.lay.Place(ci.block(n))
		if addr.Disk != 2 || s.store.Array.Written(2, addr.Block) {
			continue
		}
		buf := make([]byte, s.store.Array.BlockSize())
		if err := s.store.Array.ReadZeroInto(2, addr.Block, buf); errors.Is(err, storage.ErrNotWritten) {
			sawExplicit = true
		} else {
			t.Fatalf("unrebuilt block read as data: %v", err)
		}
	}
	if !sawExplicit {
		t.Log("note: every disk-2 clip block was rebuilt before the skip — lost blocks were parity-side")
	}
}

// TestFailDiskIdempotent repeats the operator command on a disk that is
// still failed: the lifecycle must run once. On a *rebuilding* slot the
// command is not a repeat — it fails the spare (new hardware can crash
// too), which consumes another spare to restart the rebuild.
func TestFailDiskIdempotent(t *testing.T) {
	// No spares: the disk stays Failed, so the second call is a no-op.
	s := newServer(t, Declustered, 7, 3)
	if err := s.AddClip("a", clipBytes(3, 80_000)); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DetectedFailures; got != 1 {
		t.Fatalf("DetectedFailures = %d after double FailDisk, want 1", got)
	}

	// With spares the slot flips to Rebuilding immediately, so a second
	// FailDisk is a distinct event: the spare itself fails.
	cfg := testConfig(Declustered, 7, 3)
	cfg.Spares = 2
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AddClip("a", clipBytes(3, 80_000)); err != nil {
		t.Fatal(err)
	}
	if err := s2.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s2.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	stats := s2.Stats()
	if stats.DetectedFailures != 2 {
		t.Fatalf("DetectedFailures = %d (fail + spare crash), want 2", stats.DetectedFailures)
	}
	if stats.SparesLeft != 0 {
		t.Fatalf("SparesLeft = %d, want 0 (both spares consumed)", stats.SparesLeft)
	}
	if stats.Rebuilding != 1 {
		t.Fatalf("Rebuilding = %d, want 1 (second spare restarted the rebuild)", stats.Rebuilding)
	}
}

// diskImages is what every disk holds: per disk, each record's bytes, nil
// where the block is not written.
func diskImages(t *testing.T, s *Server) [][][]byte {
	t.Helper()
	arr := s.store.Array
	imgs := make([][][]byte, arr.Disks())
	for disk := range imgs {
		imgs[disk] = make([][]byte, arr.Extent())
		for b := range imgs[disk] {
			if !arr.Written(disk, int64(b)) {
				continue
			}
			data, err := readAt(s, disk, int64(b))
			if err != nil {
				t.Fatal(err)
			}
			imgs[disk][b] = data
		}
	}
	return imgs
}

// TestRebuildRestoresDiskImage: a spare gets back exactly what the failed
// disk held — every record's bytes and whether it is written — under all
// seven schemes, each disk failing in turn. The array holds clips whose
// names sort against their allocation order, the written prefix of an
// aborted import, and a clip half imported when each disk fails; that
// import then finishes, commits, passes VerifyParity and streams
// byte-exact.
func TestRebuildRestoresDiskImage(t *testing.T) {
	for _, sc := range sevenSchemes {
		t.Run(sc.scheme.Key(), func(t *testing.T) {
			cfg := testConfig(sc.scheme, sc.d, sc.p)
			cfg.Spares = sc.d
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k, name := range []string{"m", "b", "z"} {
				if err := s.AddClip(name, clipBytes(int64(k), 60_000+k*17_000)); err != nil {
					t.Fatal(err)
				}
			}
			imports := map[string][]byte{"gone": clipBytes(8, 50_000), "half": clipBytes(7, 90_000)}
			for _, name := range []string{"gone", "half"} {
				if err := s.BeginClipImport(name, int64(len(imports[name]))); err != nil {
					t.Fatal(err)
				}
			}
			importRange(t, s, "gone", imports["gone"], 0, 3)
			importRange(t, s, "half", imports["half"], 0, 6)
			if err := s.AbortClipImport("gone"); err != nil {
				t.Fatal(err)
			}
			for disk := 0; disk < sc.d; disk++ {
				want := diskImages(t, s)
				if err := s.FailDisk(disk); err != nil {
					t.Fatal(err)
				}
				for round := 0; s.Mode() != ModeHealthy; round++ {
					if round > 500 {
						t.Fatalf("disk %d: rebuild never rejoined", disk)
					}
					tick(t, s, 1)
				}
				got := diskImages(t, s)
				for d := range want {
					for b := range want[d] {
						if !bytes.Equal(got[d][b], want[d][b]) {
							t.Fatalf("disk %d rejoined: record (%d, %d) written %v, want %v", disk, d, b, got[d][b] != nil, want[d][b] != nil)
						}
					}
				}
			}
			half := imports["half"]
			importRange(t, s, "half", half, 6, s.imports["half"].dataBlocks)
			for round := 0; ; round++ {
				done, err := s.CommitClipImport("half")
				if err != nil || round > 100 {
					t.Fatalf("commit: %v after %d rounds", err, round)
				}
				if done {
					break
				}
				tick(t, s, 1)
			}
			ci := s.clips["half"]
			for n := int64(0); n < ci.blocks; n++ {
				if err := s.store.VerifyParity(ci.block(n)); err != nil {
					t.Fatal(err)
				}
			}
			st, err := s.OpenStream("half")
			if err != nil {
				t.Fatal(err)
			}
			if got := drainStream(t, s, st, 1000); !bytes.Equal(got, half) {
				t.Fatalf("imported clip streamed %d bytes, not its %d", len(got), len(half))
			}
		})
	}
}
