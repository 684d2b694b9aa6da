package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refXOR is the trivially-correct byte-at-a-time reference XOR and
// XORInto are checked against.
func refXOR(dst []byte, srcs ...[]byte) {
	for i := range dst {
		var v byte
		for _, s := range srcs {
			v ^= s[i]
		}
		dst[i] = v
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// TestXORMatchesReference sweeps lengths around the 8-, 16-, 32- and
// 64-byte steps of XORBytes' kernels (odd lengths, short tails, empty)
// and source counts 0..16, with sources deliberately cut at misaligned
// offsets out of a shared backing array, and checks the kernel
// byte-for-byte against the reference.
func TestXORMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65,
		127, 128, 129, 255, 4095, 1 << 12, 4097}
	for _, n := range lengths {
		for nsrc := 0; nsrc <= 16; nsrc++ {
			// Backing array with per-source random offsets so the slices
			// start at every alignment class.
			backing := randBytes(rng, nsrc*(n+8)+8)
			srcs := make([][]byte, nsrc)
			for i := range srcs {
				off := i*(n+8) + rng.Intn(8)
				srcs[i] = backing[off : off+n : off+n]
			}
			dst := randBytes(rng, n)
			want := make([]byte, n)
			refXOR(want, srcs...)
			XOR(dst, srcs...)
			if !bytes.Equal(dst, want) {
				t.Fatalf("XOR mismatch at len=%d nsrc=%d", n, nsrc)
			}
		}
	}
}

// TestXORIntoMatchesReference checks the streaming form: folding sources
// in one at a time must equal the one-shot XOR of dst's old contents with
// all sources.
func TestXORIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, 8, 13, 64, 100, 4096} {
		init := randBytes(rng, n)
		srcs := [][]byte{randBytes(rng, n), randBytes(rng, n), randBytes(rng, n)}
		want := make([]byte, n)
		copy(want, init)
		for _, s := range srcs {
			for i := range want {
				want[i] ^= s[i]
			}
		}
		got := make([]byte, n)
		copy(got, init)
		for _, s := range srcs {
			XORInto(got, s)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("XORInto mismatch at len=%d", n)
		}
	}
}

func TestXORZeroSourcesClears(t *testing.T) {
	dst := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	XOR(dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("dst[%d] = %d after zero-source XOR, want 0", i, v)
		}
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

func TestXORLengthMismatchPanics(t *testing.T) {
	mustPanic(t, "XOR length mismatch", func() {
		XOR(make([]byte, 8), make([]byte, 7))
	})
	mustPanic(t, "XORInto length mismatch", func() {
		XORInto(make([]byte, 8), make([]byte, 9))
	})
}

// TestXORAliasingPanics pins the aliasing contract: the kernel streams
// through dst while sources are still read, so dst overlapping a source
// would corrupt parity silently — it must panic instead.
func TestXORAliasingPanics(t *testing.T) {
	buf := make([]byte, 64)
	mustPanic(t, "XOR full alias", func() {
		XOR(buf[:32], buf[:32])
	})
	mustPanic(t, "XOR partial overlap", func() {
		XOR(buf[:32], buf[16:48])
	})
	mustPanic(t, "XORInto alias", func() {
		XORInto(buf[8:40], buf[0:32])
	})
	// Disjoint halves of one array are fine.
	XOR(buf[:32], buf[32:])
	XORInto(buf[:32], buf[32:])
}

// FuzzXOR cross-checks the kernel against the reference on arbitrary
// splits of fuzzer-provided bytes.
func FuzzXOR(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xAB}, 100), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, nsrc uint8) {
		k := int(nsrc%16) + 1
		n := len(data) / (k + 1)
		dst := append([]byte(nil), data[:n]...)
		srcs := make([][]byte, k)
		for i := range srcs {
			srcs[i] = data[(i+1)*n : (i+2)*n]
		}
		want := make([]byte, n)
		refXOR(want, srcs...)
		XOR(dst, srcs...)
		if !bytes.Equal(dst, want) {
			t.Fatalf("XOR mismatch: n=%d k=%d", n, k)
		}
	})
}

// BenchmarkXOR times the kernel on 4 KB blocks: XOR over 1, 3 and 7
// sources (a copy, a rebuild of a p = 4 group, a p = 8 parity) and
// XORInto of one source, the clip-write fold.
func BenchmarkXOR(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(3))
	dst := make([]byte, n)
	for _, k := range []int{1, 3, 7} {
		srcs := make([][]byte, k)
		for i := range srcs {
			srcs[i] = randBytes(rng, n)
		}
		b.Run(fmt.Sprintf("srcs=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k * n))
			for range b.N {
				XOR(dst, srcs...)
			}
		})
	}
	src := randBytes(rng, n)
	b.Run("into", func(b *testing.B) {
		b.SetBytes(n)
		for range b.N {
			XORInto(dst, src)
		}
	})
}
