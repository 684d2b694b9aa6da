package recovery

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// naiveMul is the bit-by-bit (Russian peasant) GF(2^8) product — the
// independent reference the exp/log arithmetic is checked against.
func naiveMul(a, b byte) byte {
	var out byte
	for b != 0 {
		if b&1 != 0 {
			out ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1d // low byte of 0x11d
		}
		b >>= 1
	}
	return out
}

// naiveQ computes Q = Σ g^k·srcs[k] one byte and one multiply at a
// time, with coefficients from repeated naive doubling.
func naiveQ(srcs [][]byte) []byte {
	out := make([]byte, len(srcs[0]))
	coef := byte(1)
	for _, s := range srcs {
		for i, b := range s {
			out[i] ^= naiveMul(coef, b)
		}
		coef = naiveMul(coef, 2)
	}
	return out
}

func TestGFTablesAgainstNaive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := GMul(byte(a), byte(b)), naiveMul(byte(a), byte(b)); got != want {
				t.Fatalf("GMul(%d, %d) = %d, naive %d", a, b, got, want)
			}
		}
	}
	coef := byte(1)
	for k := 0; k < 300; k++ {
		if got := GExp(k); got != coef {
			t.Fatalf("GExp(%d) = %d, naive %d", k, got, coef)
		}
		coef = naiveMul(coef, 2)
	}
	for a := 1; a < 256; a++ {
		if GMul(byte(a), GInv(byte(a))) != 1 {
			t.Fatalf("GInv(%d) is not an inverse", a)
		}
	}
}

func TestQEncodeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nd := range []int{1, 2, 3, 5, 11} {
		for _, size := range []int{1, 7, 8, 64, 257} {
			srcs := make([][]byte, nd)
			for k := range srcs {
				srcs[k] = make([]byte, size)
				rng.Read(srcs[k])
			}
			got := make([]byte, size)
			QEncode(got, srcs...)
			if want := naiveQ(srcs); !bytes.Equal(got, want) {
				t.Fatalf("QEncode mismatch: nd=%d size=%d", nd, size)
			}
		}
	}
}

// TestQEncodeMisaligned drives the byte-fallback path by slicing into a
// shared array at odd offsets.
func TestQEncodeMisaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	backing := make([]byte, 4096)
	rng.Read(backing)
	srcs := [][]byte{backing[1:101], backing[103:203], backing[205:305]}
	got := make([]byte, 100)
	QEncode(got, srcs...)
	if want := naiveQ(srcs); !bytes.Equal(got, want) {
		t.Fatal("QEncode misaligned mismatch")
	}
}

// TestMulConst scales every field element by every constant: each
// constant's product row, built on demand, against the naive product.
func TestMulConst(t *testing.T) {
	for c := 0; c < 256; c++ {
		got := make([]byte, 256)
		for a := range got {
			got[a] = byte(a)
		}
		MulConst(got, byte(c))
		for a, g := range got {
			if want := naiveMul(byte(c), byte(a)); g != want {
				t.Fatalf("MulConst c=%d: %d·%d = %d, naive %d", c, c, a, g, want)
			}
		}
	}
}

// TestRecoverPQAllPairs loses every pair of members of a group and
// checks byte-exact recovery — the exhaustive form of the fuzz target.
func TestRecoverPQAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const nd, size = 5, 96
	orig := make([][]byte, nd)
	for k := range orig {
		orig[k] = make([]byte, size)
		rng.Read(orig[k])
	}
	p := make([]byte, size)
	q := make([]byte, size)
	XOR(p, orig...)
	QEncode(q, orig...)

	total := nd + 2
	for x := 0; x < total; x++ {
		for y := x; y < total; y++ {
			var missing []int
			if x == y {
				missing = []int{x}
			} else {
				missing = []int{y, x} // deliberately unsorted
			}
			data := make([][]byte, nd)
			for k := range data {
				data[k] = append([]byte(nil), orig[k]...)
			}
			pc := append([]byte(nil), p...)
			qc := append([]byte(nil), q...)
			for _, idx := range missing {
				switch {
				case idx < nd:
					rng.Read(data[idx]) // trash the lost member
				case idx == nd:
					rng.Read(pc)
				default:
					rng.Read(qc)
				}
			}
			if err := RecoverPQ(data, pc, qc, missing); err != nil {
				t.Fatalf("RecoverPQ(%v): %v", missing, err)
			}
			for k := range data {
				if !bytes.Equal(data[k], orig[k]) {
					t.Fatalf("lose %v: data[%d] not recovered", missing, k)
				}
			}
			if !bytes.Equal(pc, p) || !bytes.Equal(qc, q) {
				t.Fatalf("lose %v: parity not recovered", missing)
			}
		}
	}
}

func TestRecoverPQRejectsThreeLosses(t *testing.T) {
	data := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	p, q := make([]byte, 8), make([]byte, 8)
	if err := RecoverPQ(data, p, q, []int{0, 1, 2}); err == nil {
		t.Fatal("RecoverPQ accepted three missing members")
	}
}

// A nil q is a single-parity group: each lone erasure is closed by P, a
// second one is unrecoverable, and there is no member len(data)+1.
func TestRecoverPQSingleParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := [][]byte{randBytes(rng, 24), randBytes(rng, 24), randBytes(rng, 24)}
	p := make([]byte, 24)
	XOR(p, data...)
	for lost := 0; lost <= len(data); lost++ {
		bufs := append(append([][]byte{}, data...), p)
		want := bufs[lost]
		bufs[lost] = make([]byte, 24)
		if err := RecoverPQ(bufs[:3], bufs[3], nil, []int{lost}); err != nil || !bytes.Equal(bufs[lost], want) {
			t.Fatalf("member %d: err %v, byte-exact %v", lost, err, err == nil)
		}
	}
	if err := RecoverPQ(data, p, nil, []int{0, 3}); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("two erasures, one column: err = %v, want ErrUnrecoverable", err)
	}
	if err := RecoverPQ(data, p, nil, []int{4}); err == nil {
		t.Fatal("RecoverPQ accepted a Q index on a group without Q")
	}
}

// benchGroup is a parity group of nd 256 KB data columns with P and Q.
func benchGroup(nd int) (data [][]byte, p, q []byte) {
	const size = 256 << 10
	rng := rand.New(rand.NewSource(11))
	data = make([][]byte, nd)
	for k := range data {
		data[k] = randBytes(rng, size)
	}
	p, q = make([]byte, size), make([]byte, size)
	XOR(p, data...)
	QEncode(q, data...)
	return data, p, q
}

// BenchmarkQEncode times the Q-column kernel beside naiveQ, the reference
// the tests check it against.
func BenchmarkQEncode(b *testing.B) {
	data, _, q := benchGroup(8)
	for _, kernel := range []struct {
		name string
		fn   func()
	}{
		{"kernel", func() { QEncode(q, data...) }},
		{"naive", func() { naiveQ(data) }},
	} {
		b.Run(kernel.name, func(b *testing.B) {
			b.SetBytes(int64(len(q) * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernel.fn()
			}
		})
	}
}

// BenchmarkRecoverPQ times each two-erasure class. The lost members are
// cleared every iteration so that each one is a full reconstruction.
func BenchmarkRecoverPQ(b *testing.B) {
	const nd = 8
	data, p, q := benchGroup(nd)
	members := append(append([][]byte{}, data...), p, q)
	for _, class := range []struct {
		name    string
		missing []int
	}{
		{"data-data", []int{1, 5}},
		{"data-P", []int{2, nd}},
		{"data-Q", []int{3, nd + 1}},
		{"P-Q", []int{nd, nd + 1}},
	} {
		b.Run(class.name, func(b *testing.B) {
			b.SetBytes(int64(len(p) * len(class.missing)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range class.missing {
					clear(members[m])
				}
				if err := RecoverPQ(data, p, q, class.missing); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzPQReconstruct round-trips the codec: derive a group from the fuzz
// input, lose any two of the d+2 members, and require byte-exact
// recovery of everything.
func FuzzPQReconstruct(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), uint8(1), []byte("seed corpus payload"))
	f.Add(int64(42), uint8(6), uint8(5), uint8(7), []byte{0xff, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, seed int64, ndRaw, xRaw, yRaw uint8, payload []byte) {
		nd := int(ndRaw)%8 + 1 // 1..8 data blocks
		size := len(payload)
		if size == 0 {
			size = 1
		}
		rng := rand.New(rand.NewSource(seed))
		orig := make([][]byte, nd)
		for k := range orig {
			orig[k] = make([]byte, size)
			rng.Read(orig[k])
			for i := range payload {
				orig[k][i%size] ^= payload[i]
			}
		}
		p := make([]byte, size)
		q := make([]byte, size)
		XOR(p, orig...)
		QEncode(q, orig...)

		total := nd + 2
		x := int(xRaw) % total
		y := int(yRaw) % total
		missing := []int{x}
		if y != x {
			missing = append(missing, y)
		}
		data := make([][]byte, nd)
		for k := range data {
			data[k] = append([]byte(nil), orig[k]...)
		}
		pc := append([]byte(nil), p...)
		qc := append([]byte(nil), q...)
		for _, idx := range missing {
			switch {
			case idx < nd:
				rng.Read(data[idx])
			case idx == nd:
				rng.Read(pc)
			default:
				rng.Read(qc)
			}
		}
		if err := RecoverPQ(data, pc, qc, missing); err != nil {
			t.Fatalf("RecoverPQ(%v): %v", missing, err)
		}
		for k := range data {
			if !bytes.Equal(data[k], orig[k]) {
				t.Fatalf("lose %v: data[%d] not recovered", missing, k)
			}
		}
		if !bytes.Equal(pc, p) || !bytes.Equal(qc, q) {
			t.Fatalf("lose %v: parity not recovered", missing)
		}
	})
}
