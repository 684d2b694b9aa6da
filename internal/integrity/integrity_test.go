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

// TestSumMatchesCRC32C holds Sum to hash/crc32 on every length up to 1100
// and on the stored block sizes, at every offset of a cache line: once
// through the carry-less-multiply kernel and once through hash/crc32.
func TestSumMatchesCRC32C(t *testing.T) {
	buf := make([]byte, 64+65536)
	rand.New(rand.NewSource(1)).Read(buf)
	var lengths []int
	for n := 0; n <= 1100; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4000, 4096, 65536)
	check := func(t *testing.T) {
		for off := 0; off < 64; off++ {
			for _, n := range lengths {
				p := buf[off : off+n]
				if got, want := Sum(p), crc32.Checksum(p, castagnoliRef); got != want {
					t.Fatalf("Sum(%d bytes at offset %d) = %08x, want %08x", n, off, got, want)
				}
			}
		}
	}
	t.Run("clmul", func(t *testing.T) {
		if !useCLMUL {
			t.Skipf("no carry-less-multiply kernel: missing %s", clmulMissing)
		}
		check(t)
	})
	t.Run("hash-crc32", func(t *testing.T) {
		defer func(v bool) { useCLMUL = v }(useCLMUL)
		useCLMUL = false
		check(t)
	})
}

func FuzzSum(f *testing.F) {
	f.Add(make([]byte, 300), 0)
	f.Add(make([]byte, 4000), 7)
	f.Fuzz(func(t *testing.T, data []byte, offset int) {
		if offset < 0 || offset > len(data) {
			offset = 0
		}
		p := data[offset:]
		if got, want := Sum(p), crc32.Checksum(p, castagnoliRef); got != want {
			t.Fatalf("Sum(%d bytes) = %08x, want %08x", len(p), got, want)
		}
	})
}

var sumSink uint32

// BenchmarkSum sums the two block sizes the benchmark stores.
func BenchmarkSum(b *testing.B) {
	for _, n := range []int{4000, 64 << 10} {
		p := make([]byte, n)
		rand.New(rand.NewSource(1)).Read(p)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sumSink = Sum(p)
			}
		})
	}
}
