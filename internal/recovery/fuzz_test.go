package recovery

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ftcms/internal/layout"
	"ftcms/internal/storage"
)

// FuzzXORAlgebra: XOR is commutative, associative and self-inverse over
// arbitrary byte slices (truncated to a common length).
func FuzzXORAlgebra(f *testing.F) {
	f.Add([]byte{0x00}, []byte{0xFF}, []byte{0xA5})
	f.Add([]byte("hello"), []byte("world"), []byte("parit"))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if len(c) < n {
			n = len(c)
		}
		if n == 0 {
			return
		}
		a, b, c = a[:n], b[:n], c[:n]
		ab := make([]byte, n)
		XOR(ab, a, b)
		ba := make([]byte, n)
		XOR(ba, b, a)
		if !bytes.Equal(ab, ba) {
			t.Fatal("XOR not commutative")
		}
		abc1 := make([]byte, n)
		XOR(abc1, ab, c)
		bc := make([]byte, n)
		XOR(bc, b, c)
		abc2 := make([]byte, n)
		XOR(abc2, a, bc)
		if !bytes.Equal(abc1, abc2) {
			t.Fatal("XOR not associative")
		}
		back := make([]byte, n)
		XOR(back, ab, b)
		if !bytes.Equal(back, a) {
			t.Fatal("XOR not self-inverse")
		}
	})
}

// FuzzParityReconstruction: for a randomly chosen group of 3 "blocks",
// parity reconstructs any missing member exactly.
func FuzzParityReconstruction(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6, 7, 8}, []byte{9, 10, 11, 12}, uint8(1))
	f.Fuzz(func(t *testing.T, d0, d1, d2 []byte, lostRaw uint8) {
		n := len(d0)
		if len(d1) < n {
			n = len(d1)
		}
		if len(d2) < n {
			n = len(d2)
		}
		if n == 0 {
			return
		}
		group := [][]byte{d0[:n], d1[:n], d2[:n]}
		parity := make([]byte, n)
		XOR(parity, group...)
		lost := int(lostRaw) % 3
		srcs := [][]byte{parity}
		for i, g := range group {
			if i != lost {
				srcs = append(srcs, g)
			}
		}
		rebuilt := make([]byte, n)
		XOR(rebuilt, srcs...)
		if !bytes.Equal(rebuilt, group[lost]) {
			t.Fatalf("reconstruction of member %d failed", lost)
		}
	})
}

// FuzzChecksumRepair: flipping up to three distinct bits of one stored
// block is always caught by the block's CRC-32C (Castagnoli keeps a
// Hamming distance of at least 4 at these payload lengths) and is always
// repaired byte-exactly from the parity group — the full detect →
// reconstruct → rewrite → re-verify round-trip of the integrity
// subsystem, property-checked.
func FuzzChecksumRepair(f *testing.F) {
	f.Add([]byte("continuous media"), int64(3), uint64(7), uint64(300), uint64(9000), uint8(3))
	f.Add([]byte{0}, int64(0), uint64(0), uint64(1), uint64(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed []byte, blockRaw int64, b0, b1, b2 uint64, nRaw uint8) {
		if len(seed) == 0 {
			return
		}
		const d, p = 7, 3
		const blocks = 12
		l, err := layout.NewDeclustered(d, p)
		if err != nil {
			t.Fatal(err)
		}
		a, err := storage.NewArray(d, bs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(l, a)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, blocks)
		for i := range want {
			blk := make([]byte, bs)
			for j := range blk {
				blk[j] = seed[(i+j)%len(seed)] ^ byte(i)
			}
			want[i] = blk
			if err := s.WriteBlock(int64(i), blk); err != nil {
				t.Fatal(err)
			}
		}
		target := ((blockRaw % blocks) + blocks) % blocks
		// One to three distinct bit positions within the block; CRC-32C
		// detection is only guaranteed below its Hamming distance, so the
		// corpus never flips more.
		distinct := map[uint64]bool{}
		for _, b := range [][]uint64{{b0}, {b0, b1}, {b0, b1, b2}}[nRaw%3] {
			distinct[b%(bs*8)] = true
		}
		bits := make([]uint64, 0, len(distinct))
		for b := range distinct {
			bits = append(bits, b)
		}
		addr := l.Place(target)
		if err := a.CorruptBits(addr.Disk, addr.Block, bits); err != nil {
			t.Fatal(err)
		}
		if _, err := readDirect(s, target); !errors.Is(err, storage.ErrCorruptBlock) {
			t.Fatalf("read of block with %d flipped bits = %v, want ErrCorruptBlock", len(bits), err)
		}
		got, err := s.Reconstruct(target)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[target]) {
			t.Fatal("parity reconstruction of corrupt block diverges from original")
		}
		if err := s.WriteBlock(target, got); err != nil {
			t.Fatal(err)
		}
		back, err := readDirect(s, target)
		if err != nil {
			t.Fatalf("read after repair: %v", err)
		}
		if !bytes.Equal(back, want[target]) {
			t.Fatal("repaired block diverges from original")
		}
		if err := s.VerifyParity(target); err != nil {
			t.Fatalf("parity after repair: %v", err)
		}
	})
}

// FuzzWriteRun holds WriteRun to the per-block path: one run — any start,
// stride and length, the last block short, over neighbours already stored —
// leaves every (disk, block) record of the array exactly as WriteBlock of
// each of its blocks in turn, zero-padded, does. Single parity and P+Q.
func FuzzWriteRun(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(9), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(5), uint8(3), uint8(7), uint8(40), uint8(0x5a), true)
	f.Add(int64(3), uint8(17), uint8(7), uint8(12), uint8(63), uint8(0xff), false)
	f.Add(int64(4), uint8(2), uint8(2), uint8(1), uint8(1), uint8(0x0f), true)
	f.Fuzz(func(t *testing.T, seed int64, first, stride, n, short, neighbours uint8, pq bool) {
		mk := func() *Store {
			if pq {
				return pqStore(t, 13, 4)
			}
			return declusteredStore(t, 7, 3)
		}
		run, ref := mk(), mk()
		// Stored neighbours: the bits of neighbours pick blocks around the
		// run, some inside its groups and some in the run itself.
		for i := int64(0); i < 48; i++ {
			if neighbours>>(i%8)&1 == 1 && i%3 != int64(seed&1) {
				for _, s := range []*Store{run, ref} {
					if err := s.WriteBlock(i, deterministicBlock(i+seed)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		start, by, blocks := int64(first%40), int64(stride%8)+1, int64(n%13)
		data := make([]byte, max(0, blocks*bs-int64(short%bs)))
		rand.New(rand.NewSource(seed)).Read(data)
		if err := run.WriteRun(start, by, blocks, data); err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < blocks; k++ {
			b := make([]byte, bs)
			copy(b, data[min(k*bs, int64(len(data))):])
			if err := ref.WriteBlock(start+k*by, b); err != nil {
				t.Fatal(err)
			}
		}
		sameRecords(t, run.Array, ref.Array)
		// WriteBlock is WriteRun's one-block case, so the two sides share
		// the parity code: hold the parity to VerifyParity too, which reads
		// every data member.
		for k := int64(0); k < blocks; k++ {
			if err := run.VerifyParity(start + k*by); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestWriteRunSameAtAnyProcs holds the ingest's byte pass to its one-core
// loop: a run of two pool-filled batches, its last block short, between
// stored neighbours that share its edge groups, leaves the same records,
// checksums and held index at GOMAXPROCS 1 and 4. Single parity and P+Q.
func TestWriteRunSameAtAnyProcs(t *testing.T) {
	const size, first, n = 4 << 10, 40, 1800 // ≈ 7.4 MB: two batches, each of several chunks
	for name, mk := range map[string]func(d, p int) (*layout.Declustered, error){
		"single parity": layout.NewDeclustered,
		"P+Q":           layout.NewDeclusteredPQ,
	} {
		data := make([]byte, n*size-1000)
		rand.New(rand.NewSource(7)).Read(data)
		write := func(procs int) *Store {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			l, err := mk(13, 4)
			if err != nil {
				t.Fatal(err)
			}
			a, err := storage.NewArray(l.Disks(), size)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewStore(l, a)
			if err != nil {
				t.Fatal(err)
			}
			neighbour := make([]byte, size)
			for i := range int64(first + n + 200) {
				if i == first {
					i += n // the run's blocks
				}
				rand.New(rand.NewSource(i)).Read(neighbour)
				if err := s.WriteBlock(i, neighbour); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.WriteRun(first, 1, n, data); err != nil {
				t.Fatal(err)
			}
			return s
		}
		one, four := write(1), write(4)
		sameRecords(t, four.Array, one.Array)
		if bad := four.Array.AuditChecksums(); len(bad) != 0 {
			t.Fatalf("%s: %d blocks miss their checksums, first %v", name, len(bad), bad[0])
		}
		for disk := range one.Array.Disks() {
			if !slices.Equal(four.Held(disk), one.Held(disk)) {
				t.Fatalf("%s: disk %d holds %v at GOMAXPROCS 4, %v at 1", name, disk, four.Held(disk), one.Held(disk))
			}
		}
	}
}

// sameRecords fails unless two arrays hold the same blocks with the same
// bytes.
func sameRecords(t *testing.T, a, b *storage.Array) {
	t.Helper()
	if a.Extent() != b.Extent() || a.WrittenBlocks() != b.WrittenBlocks() {
		t.Fatalf("extent %d, %d blocks; want %d, %d", a.Extent(), a.WrittenBlocks(), b.Extent(), b.WrittenBlocks())
	}
	ga, gb := make([]byte, a.BlockSize()), make([]byte, b.BlockSize())
	for disk := 0; disk < a.Disks(); disk++ {
		for block := int64(0); block < a.Extent(); block++ {
			if a.Written(disk, block) != b.Written(disk, block) {
				t.Fatalf("(%d, %d): written %v, want %v", disk, block, a.Written(disk, block), b.Written(disk, block))
			}
			if !a.Written(disk, block) {
				continue
			}
			if a.ReadInto(disk, block, ga) != nil || b.ReadInto(disk, block, gb) != nil || !bytes.Equal(ga, gb) {
				t.Fatalf("(%d, %d): record differs from the per-block write", disk, block)
			}
		}
	}
}
