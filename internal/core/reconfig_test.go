package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// Import a clip block-by-block on idle capacity and verify the
// committed clip plays back byte-exactly, with every import charge
// inside the round budget.
func TestClipImportByteExact(t *testing.T) {
	src := newServer(t, Declustered, 7, 3)
	dst := newServer(t, Declustered, 7, 3)
	data := clipBytes(41, 90_000)
	if err := src.AddClip("movie", data); err != nil {
		t.Fatal(err)
	}
	if err := dst.BeginClipImport("movie", int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.OpenStream("movie"); err == nil {
		t.Fatal("uncommitted import is openable")
	}
	total := src.ClipDataBlocks("movie")
	if total <= 0 {
		t.Fatalf("ClipDataBlocks = %d", total)
	}
	buf := make([]byte, int(src.BlockSize().Bytes()))
	var n int64
	for round := 0; n < total && round < 10_000; round++ {
		if err := src.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := dst.Tick(); err != nil {
			t.Fatal(err)
		}
		for n < total {
			ok, err := src.ReadClipBlockIdleInto("movie", n, buf)
			if err != nil {
				t.Fatalf("read block %d: %v", n, err)
			}
			if !ok {
				break
			}
			wrote, err := dst.ImportClipBlockIdle("movie", n, buf)
			if err != nil {
				t.Fatalf("import block %d: %v", n, err)
			}
			if !wrote {
				// Destination stalled after the source read; in the real
				// migration engine the block is held over. Here idle
				// budgets match, so a stall would be a bug.
				t.Fatalf("import stalled at block %d with idle destination", n)
			}
			n++
		}
	}
	if n < total {
		t.Fatalf("import stuck at %d/%d blocks", n, total)
	}
	for {
		done, err := dst.CommitClipImport("movie")
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if err := dst.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Server{src, dst} {
		if s.Stats().Overflows != 0 {
			t.Fatalf("migration overdrew the round budget: %d overflows", s.Stats().Overflows)
		}
		if s.Stats().MigrateReads == 0 {
			t.Fatal("migration ledger never charged")
		}
	}
	st, err := dst.OpenStream("movie")
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, dst, st, 10_000)
	if !bytes.Equal(got, data) {
		t.Fatalf("imported clip differs: got %d bytes want %d", len(got), len(data))
	}
}

// importRange imports data blocks [from, to) of the in-flight import of
// data, ticking whenever idle capacity runs out.
func importRange(t *testing.T, s *Server, name string, data []byte, from, to int64) {
	t.Helper()
	bs := int64(s.store.Array.BlockSize())
	buf := make([]byte, bs)
	for n, stalls := from, 0; n < to; {
		clear(buf)
		copy(buf, data[n*bs:])
		ok, err := s.ImportClipBlockIdle(name, n, buf)
		switch {
		case err != nil:
			t.Fatal(err)
		case ok:
			n++
		case stalls > 100:
			t.Fatalf("import %q stalled at block %d", name, n)
		default:
			stalls++
			tick(t, s, 1)
		}
	}
}

// Aborting the newest import reclaims its blocks.
func TestClipImportAbortReclaims(t *testing.T) {
	s := newServer(t, Declustered, 6, 3)
	free := s.FreeBlocks()
	if err := s.BeginClipImport("tmp", 50_000); err != nil {
		t.Fatal(err)
	}
	if s.FreeBlocks() >= free {
		t.Fatal("import reserved nothing")
	}
	if err := s.AbortClipImport("tmp"); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeBlocks(); got != free {
		t.Fatalf("FreeBlocks after abort = %d, want %d", got, free)
	}
	if _, err := s.CommitClipImport("tmp"); err == nil {
		t.Fatal("commit after abort succeeded")
	}
}

// AddDisk re-layout, single parity and P+Q through the one PGT path: clips
// play byte-exactly across the flip, which lands in the same round it
// always did (recorded at commit 523f853), capacity grows, admission
// re-audits before, during and after, the migration stays within budget,
// and fault injection still reaches the new array.
func TestAddDiskRelayout(t *testing.T) {
	for _, scheme := range []Scheme{Declustered, DeclusteredPQ} {
		t.Run(scheme.Key(), func(t *testing.T) { addDiskRelayout(t, scheme) })
	}
}

func addDiskRelayout(t *testing.T, scheme Scheme) {
	const wantFlip = 3 // both schemes
	s := newServer(t, scheme, 6, 3)
	data := clipBytes(43, 1_200_000)
	if err := s.AddClip("movie", data); err != nil {
		t.Fatal(err)
	}
	oldCap := s.capacity()
	st, err := s.OpenStream("movie")
	if err != nil {
		t.Fatal(err)
	}
	// 7→8 disks has no BIBD construction at p=3; AddDisk must refuse
	// with the layout's error rather than wedge.
	wide := newServer(t, scheme, 7, 3)
	if err := wide.AddDisk(); err == nil {
		t.Fatal("AddDisk to an unconstructible geometry succeeded")
	}
	if err := s.CheckAdmission(); err != nil {
		t.Fatalf("before AddDisk: %v", err)
	}
	if err := s.AddDisk(); err != nil {
		t.Fatal(err)
	}
	if !s.Relayouting() {
		t.Fatal("AddDisk did not start a re-layout")
	}
	if err := s.AddDisk(); err == nil {
		t.Fatal("second AddDisk during re-layout succeeded")
	}
	if err := s.AddClip("late", clipBytes(5, 8000)); err == nil {
		t.Fatal("AddClip during re-layout succeeded")
	}
	var got []byte
	buf := make([]byte, 64<<10)
	flipped := -1
	for i := 0; i < 10_000; i++ {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckAdmission(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if s.Stats().Overflows != 0 {
			t.Fatalf("round %d: budget overdrawn", i)
		}
		if flipped < 0 && !s.Relayouting() {
			flipped = i
		}
		for {
			n, rerr := st.Read(buf)
			got = append(got, buf[:n]...)
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, ErrNoData) || n == 0 {
				break
			}
			if rerr != nil {
				t.Fatalf("Read: %v", rerr)
			}
		}
		if int64(len(got)) == int64(len(data)) && !s.Relayouting() {
			break
		}
	}
	if s.Relayouting() {
		t.Fatal("re-layout never finished")
	}
	if flipped != wantFlip {
		t.Errorf("flipped in round %d, want %d", flipped, wantFlip)
	}
	if err := s.CheckAdmission(); err != nil {
		t.Fatalf("after the flip: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("stream across flip differs: got %d bytes want %d", len(got), len(data))
	}
	if s.Disks() != 7 {
		t.Fatalf("Disks after flip = %d, want 7", s.Disks())
	}
	if s.capacity() <= oldCap {
		t.Fatalf("capacity did not grow: %d -> %d", oldCap, s.capacity())
	}
	if s.Stats().RelayoutsDone != 1 {
		t.Fatalf("RelayoutsDone = %d, want 1", s.Stats().RelayoutsDone)
	}
	// The wider array is live: a fresh clip stores and plays.
	late := clipBytes(5, 40_000)
	if err := s.AddClip("late", late); err != nil {
		t.Fatal(err)
	}
	st2, err := s.OpenStream("late")
	if err != nil {
		t.Fatal(err)
	}
	if out := drainStream(t, s, st2, 10_000); !bytes.Equal(out, late) {
		t.Fatal("post-flip clip differs")
	}
	// Fault injection must have been re-armed on the new array: fail a
	// disk and confirm degraded mode engages (the injected fail-stop
	// path flows through the array read hook and FailDisk).
	if err := s.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	if s.Mode() != ModeDegraded {
		t.Fatalf("Mode after post-flip failure = %v, want degraded", s.Mode())
	}
}

// TestAddDiskAfterAbortedImport: an import aborted below the allocation
// cursor leaks its blocks, its written prefix included. The re-layout
// copies that prefix, steps over the unwritten rest and completes, and
// every clip reads byte-exact on the wider array.
func TestAddDiskAfterAbortedImport(t *testing.T) {
	s := newServer(t, Declustered, 6, 3)
	clips := map[string][]byte{"a": clipBytes(1, 70_000), "c": clipBytes(3, 50_000)}
	if err := s.AddClip("a", clips["a"]); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginClipImport("b", 90_000); err != nil {
		t.Fatal(err)
	}
	importRange(t, s, "b", clipBytes(2, 90_000), 0, 4)
	if err := s.AddClip("c", clips["c"]); err != nil {
		t.Fatal(err)
	}
	if err := s.AbortClipImport("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDisk(); err != nil {
		t.Fatal(err)
	}
	for i := 0; s.Relayouting(); i++ {
		if i > 1000 {
			t.Fatal("re-layout never finished")
		}
		tick(t, s, 1)
	}
	if s.Disks() != 7 {
		t.Fatalf("Disks = %d, want 7", s.Disks())
	}
	for name, want := range clips {
		st, err := s.OpenStream(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainStream(t, s, st, 1000); !bytes.Equal(got, want) {
			t.Fatalf("clip %q differs on the wider array", name)
		}
	}
}

// The re-layout pauses while the array is degraded or rebuilding and
// resumes to completion after repair.
func TestAddDiskPausesWhileUnhealthy(t *testing.T) {
	s := newServer(t, Declustered, 6, 3)
	if err := s.AddClip("movie", clipBytes(44, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDisk(); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().RelayoutPending == 0 {
		t.Fatal("re-layout finished in one round; cannot observe the pause")
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	pending := s.Stats().RelayoutPending
	for i := 0; i < 5; i++ {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().RelayoutPending; got != pending {
		t.Fatalf("re-layout advanced while degraded: %d -> %d pending", pending, got)
	}
	if err := s.RepairDisk(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000 && s.Relayouting(); i++ {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Relayouting() {
		t.Fatal("re-layout never resumed after repair")
	}
	if s.Disks() != 7 {
		t.Fatalf("Disks = %d, want 7", s.Disks())
	}
}

// AddDisk refuses a degraded array: with no spare, the re-layout would
// wait for a health that never comes, and meanwhile clip imports and,
// once the disk is repaired, AddClip would refuse with "re-layout in
// progress". The refusal leaves both working.
func TestAddDiskRefusesDegraded(t *testing.T) {
	s := newServer(t, Declustered, 6, 3)
	if err := s.AddClip("movie", clipBytes(45, 100_000)); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	const unhealthy = "core: array not healthy; repair before growing"
	if err := s.AddDisk(); err == nil || err.Error() != unhealthy {
		t.Fatalf("AddDisk on a degraded array: %v, want %s", err, unhealthy)
	}
	if err := s.BeginClipImport("extra", 30_000); err != nil {
		t.Fatalf("BeginClipImport after the refusal: %v", err)
	}
	if err := s.AbortClipImport("extra"); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairDisk(2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClip("trailer", clipBytes(46, 50_000)); err != nil {
		t.Fatalf("AddClip after the refusal: %v", err)
	}
}

// Clip imports and the re-layout exclude each other, both ways: AddDisk
// refuses while an import is in flight, and BeginClipImport refuses while
// a re-layout runs.
func TestImportAndRelayoutExclude(t *testing.T) {
	s := newServer(t, Declustered, 6, 3)
	if err := s.BeginClipImport("in", 100_000); err != nil {
		t.Fatal(err)
	}
	const importing = "core: clip imports in flight; retry after they commit"
	if err := s.AddDisk(); err == nil || err.Error() != importing {
		t.Fatalf("AddDisk during an import: %v, want %s", err, importing)
	}
	if err := s.AbortClipImport("in"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDisk(); err != nil {
		t.Fatal(err)
	}
	const relayouting = "core: re-layout in progress; retry after it completes"
	if err := s.BeginClipImport("late", 100_000); err == nil || err.Error() != relayouting {
		t.Fatalf("BeginClipImport during a re-layout: %v, want %s", err, relayouting)
	}
}

// TestIngestArgumentErrors holds each argument check of the ingest API to its
// error, in a sequence that reaches every one: an import block out of order,
// of the wrong length or past the payload, a commit before the last block,
// an AddClip under an import's name, and a migration read outside the payload
// or into a buffer of the wrong length.
func TestIngestArgumentErrors(t *testing.T) {
	s := newServer(t, Declustered, 6, 3)
	bs := s.store.Array.BlockSize()
	block := make([]byte, bs)
	if err := s.AddClip("stored", clipBytes(3, 2*bs)); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginClipImport("in", int64(2*bs)); err != nil {
		t.Fatal(err)
	}
	importBlock := func(n int64, b []byte) func() error {
		return func() error {
			ok, err := s.ImportClipBlockIdle("in", n, b)
			if err == nil && !ok {
				err = errors.New("stalled")
			}
			return err
		}
	}
	readBlock := func(n int64, dst []byte) func() error {
		return func() error { _, err := s.ReadClipBlockIdleInto("stored", n, dst); return err }
	}
	for _, c := range []struct {
		name string
		do   func() error
		want string // "" for a step that must succeed
	}{
		{"first block", importBlock(0, block), ""},
		{"out of order", importBlock(0, block), `core: import "in" block 0 out of order (next is 1)`},
		{"short block", importBlock(1, block[1:]), `core: import "in" block 1: 7999 bytes, want 8000`},
		{"early commit", func() error { _, err := s.CommitClipImport("in"); return err }, `core: import "in" incomplete: 1/2 blocks`},
		{"AddClip over an import", func() error { return s.AddClip("in", block) }, `core: clip "in" import in flight`},
		{"last block", importBlock(1, block), ""},
		{"past the payload", importBlock(2, block), `core: import "in" block 2 beyond payload (2 blocks)`},
		{"read before the payload", readBlock(-1, block), `core: clip "stored" block -1 outside payload`},
		{"read past the payload", readBlock(2, block), `core: clip "stored" block 2 outside payload`},
		{"read into a short buffer", readBlock(1, block[1:]), `core: clip "stored" block 1: dst 7999 bytes, want 8000`},
	} {
		if err := c.do(); c.want == "" && err != nil || c.want != "" && (err == nil || err.Error() != c.want) {
			t.Fatalf("%s: %v, want %q", c.name, err, c.want)
		}
	}
}

// AddDisk on an unsupported scheme errors cleanly.
func TestAddDiskUnsupportedScheme(t *testing.T) {
	s := newServer(t, StreamingRAID, 6, 3)
	if err := s.AddDisk(); err == nil {
		t.Fatal("AddDisk on streaming RAID succeeded")
	}
	// The dynamic scheme shares the PGT layout type with the two schemes
	// that can grow, but ties admission rows to the clip address space.
	dyn := newServer(t, DeclusteredDynamic, 7, 3)
	const want = `core: AddDisk unsupported for scheme "declustered-dynamic"`
	if err := dyn.AddDisk(); err == nil || err.Error() != want {
		t.Fatalf("AddDisk on the dynamic scheme: %v, want %s", err, want)
	}
}
