package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ftcms/internal/units"
)

// fingerprint hashes the (arrival, clip) sequence so regression tests can
// pin a trace without storing it.
func fingerprint(reqs []Request) (int, uint64) {
	h := fnv.New64a()
	var buf [16]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(float64(r.Arrival)))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.ClipID))
		h.Write(buf[:])
	}
	return len(reqs), h.Sum64()
}

// TestArrivalGoldenTraces pins the exact seeded sequences the Poisson
// source draws: same seed → byte-identical arrivals. The constants were
// recorded from the slice generators the streaming sources replaced.
// Figure 6 and E19 ride on these traces.
func TestArrivalGoldenTraces(t *testing.T) {
	uni := UniformSelector{N: 1000}
	zipf, err := NewZipfSelector(1000, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		src      func() (*PoissonSource, error)
		wantN    int
		wantHash uint64
	}{
		{"poisson-uniform", func() (*PoissonSource, error) {
			return NewPoissonSource(20, 600*units.Second, uni, 1)
		}, 12161, 0x9b14d99d541b5958},
		{"poisson-zipf", func() (*PoissonSource, error) {
			return NewPoissonSource(20, 600*units.Second, zipf, 7)
		}, 11881, 0x32bdbc418f923fcb},
	}
	for _, tc := range cases {
		src, err := tc.src()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		reqs := Collect(src)
		n, h := fingerprint(reqs)
		if n != tc.wantN || h != tc.wantHash {
			t.Errorf("%s: trace changed: n=%d hash=%#x, want n=%d hash=%#x",
				tc.name, n, h, tc.wantN, tc.wantHash)
		}
		for _, r := range reqs {
			if r.Frac != 0 {
				t.Fatalf("%s: plain generator set Frac=%v", tc.name, r.Frac)
			}
		}
	}
}

func TestSliceSource(t *testing.T) {
	reqs := []Request{
		{Arrival: 1, ClipID: 3},
		{Arrival: 2, ClipID: 4, Frac: 0.5},
	}
	src := NewSliceSource(reqs)
	got := Collect(src)
	if len(got) != 2 || got[0] != reqs[0] || got[1] != reqs[1] {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted slice source yielded a request")
	}
}

func TestSourceValidation(t *testing.T) {
	sel := UniformSelector{N: 3}
	if _, err := NewPoissonSource(0, units.Second, sel, 1); err == nil {
		t.Error("accepted zero rate")
	}
	if _, err := NewPoissonSource(1, 0, sel, 1); err == nil {
		t.Error("accepted zero horizon")
	}
}

// BenchmarkPoissonSource drains a million-request Poisson stream (10k/s
// over 100 s, a fresh source each op, as a simulation run pays for it)
// through the uniform and the Zipf inverse-CDF selector.
func BenchmarkPoissonSource(b *testing.B) {
	zipf, err := NewZipfSelector(1000, 1.1)
	if err != nil {
		b.Fatal(err)
	}
	for _, sel := range []struct {
		name string
		sel  Selector
	}{{"uniform", UniformSelector{N: 1000}}, {"zipf", zipf}} {
		b.Run(sel.name, func(b *testing.B) {
			arrivals := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := NewPoissonSource(10000, 100*units.Second, sel.sel, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				for _, ok := src.Next(); ok; _, ok = src.Next() {
					arrivals++
				}
			}
			b.ReportMetric(float64(arrivals)/b.Elapsed().Seconds(), "arrivals/s")
		})
	}
}
