package integrity

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

func TestSumIsCastagnoli(t *testing.T) {
	data := []byte("continuous media server")
	want := crc32.Checksum(data, castagnoliRef)
	if got := Sum(data); got != want {
		t.Fatalf("Sum = %08x, want CRC-32C %08x", got, want)
	}
	if ieee := crc32.ChecksumIEEE(data); Sum(data) == ieee {
		t.Fatalf("Sum matches IEEE polynomial; want Castagnoli")
	}
}

// castagnoliRef is the reference table Sum must match bit for bit.
var castagnoliRef = crc32.MakeTable(crc32.Castagnoli)

// paths lists the ways Sum can run and, for each, the feature this CPU
// lacks for it, if any.
var paths = []struct {
	name     string
	ymm, zmm bool
	missing  string
}{
	{"zmm", true, true, zmmMissing},
	{"ymm", true, false, ymmMissing},
	{"hash-crc32", false, false, ""},
}

// forced sets Sum's path to the one that uses the kernels given and returns
// a func that restores it.
func forced(ymm, zmm bool) (restore func()) {
	oldYMM, oldZMM := useYMM, useZMM
	useYMM, useZMM = ymm, zmm
	return func() { useYMM, useZMM = oldYMM, oldZMM }
}

// TestSumMatchesCRC32C holds Sum to hash/crc32 on every length up to 1100,
// on the stored block sizes and on the lengths around them whose head holds
// fewer than four bytes, at every offset of a cache line: once per path,
// each skipped, naming the missing feature, on a CPU without it.
func TestSumMatchesCRC32C(t *testing.T) {
	buf := make([]byte, 64+65536+3)
	rand.New(rand.NewSource(1)).Read(buf)
	var lengths []int
	for n := 0; n <= 1100; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4000)
	for _, n := range []int{4096, 65536} {
		lengths = append(lengths, n-3, n-2, n-1, n, n+1, n+2, n+3)
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			if path.missing != "" {
				t.Skipf("no %s kernel: missing %s", path.name, path.missing)
			}
			defer forced(path.ymm, path.zmm)()
			for off := 0; off < 64; off++ {
				for _, n := range lengths {
					p := buf[off : off+n]
					if got, want := Sum(p), crc32.Checksum(p, castagnoliRef); got != want {
						t.Fatalf("Sum(%d bytes at offset %d) = %08x, want %08x", n, off, got, want)
					}
				}
			}
		})
	}
}

// TestSumParityIdentity pins the algebra a parity group's sums obey. A
// CRC is affine in its input, Sum(a^b) = Sum(a)^Sum(b)^Sum(zeroes), so
// over p equal-length members whose XOR is zero (p-1 data blocks and
// their parity) the sums XOR to Sum(zeroes) for odd p and to 0 for even
// p: on every path, at lengths that are and are not multiples of 256.
func TestSumParityIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, path := range paths {
		if path.missing != "" {
			continue
		}
		restore := forced(path.ymm, path.zmm)
		for _, p := range []int{2, 3, 4, 5, 8, 16} {
			for _, n := range []int{1, 255, 4000, 4096} {
				parity := make([]byte, n)
				var got uint32
				for range p - 1 {
					d := make([]byte, n)
					rng.Read(d)
					for i := range d {
						parity[i] ^= d[i]
					}
					got ^= Sum(d)
				}
				got ^= Sum(parity)
				var want uint32
				if p%2 == 1 {
					want = Sum(make([]byte, n))
				}
				if got != want {
					t.Errorf("%s: p=%d b=%d: sums XOR to %08x, want %08x", path.name, p, n, got, want)
				}
			}
		}
		restore()
	}
}

// TestSumAllocs pins that Sum allocates nothing on any path.
func TestSumAllocs(t *testing.T) {
	p := make([]byte, 65536)
	for _, path := range paths {
		if path.missing != "" {
			continue
		}
		restore := forced(path.ymm, path.zmm)
		for _, n := range []int{255, 4000, 4096, 65536} {
			if a := testing.AllocsPerRun(100, func() { sumSink = Sum(p[:n]) }); a != 0 {
				t.Errorf("%s: Sum(%d bytes) allocates %v objects, want 0", path.name, n, a)
			}
		}
		restore()
	}
}

func FuzzSum(f *testing.F) {
	f.Add(make([]byte, 300), 0)
	f.Add(make([]byte, 4000), 7)
	f.Add(make([]byte, 4099), 0)
	f.Fuzz(func(t *testing.T, data []byte, offset int) {
		if offset < 0 || offset > len(data) {
			offset = 0
		}
		p := data[offset:]
		want := crc32.Checksum(p, castagnoliRef)
		for _, path := range paths {
			if path.missing != "" {
				continue
			}
			restore := forced(path.ymm, path.zmm)
			got := Sum(p)
			restore()
			if got != want {
				t.Fatalf("%s: Sum(%d bytes) = %08x, want %08x", path.name, len(p), got, want)
			}
		}
	})
}

var sumSink uint32

// BenchmarkSum sums the two block sizes the benchmark stores on each path.
func BenchmarkSum(b *testing.B) {
	for _, path := range paths {
		for _, n := range []int{4000, 64 << 10} {
			p := make([]byte, n)
			rand.New(rand.NewSource(1)).Read(p)
			b.Run(fmt.Sprintf("%s/%dB", path.name, n), func(b *testing.B) {
				if path.missing != "" {
					b.Skipf("no %s kernel: missing %s", path.name, path.missing)
				}
				defer forced(path.ymm, path.zmm)()
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					sumSink = Sum(p)
				}
			})
		}
	}
}
