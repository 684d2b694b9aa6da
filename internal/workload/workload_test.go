package workload

import (
	"math"
	"math/rand"
	"testing"

	"ftcms/internal/units"
)

func TestUniformCatalog(t *testing.T) {
	c, err := UniformCatalog(1000, 50*units.Second, 1.5*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
	clip := c.Clip(42)
	if clip.ID != 42 {
		t.Fatalf("ID = %d", clip.ID)
	}
	// 50 s at 1.5 Mbps = 75 Mbit per clip.
	if clip.Size() != 75_000_000 {
		t.Fatalf("Size = %d, want 75e6", clip.Size())
	}
	// Library S = 75 Gbit = 9.375 GB — the paper-scale library.
	if c.TotalSize() != 75_000_000_000 {
		t.Fatalf("TotalSize = %d", c.TotalSize())
	}
}

func TestUniformCatalogValidation(t *testing.T) {
	if _, err := UniformCatalog(0, units.Second, units.Mbps); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := UniformCatalog(5, 0, units.Mbps); err == nil {
		t.Error("accepted zero length")
	}
	if _, err := UniformCatalog(5, units.Second, 0); err == nil {
		t.Error("accepted zero rate")
	}
}

func TestClipBlocks(t *testing.T) {
	clip := Clip{Length: 50 * units.Second, Rate: 1.5 * units.Mbps}
	// 75 Mbit in 2 Mbit blocks = 37.5 -> 38 (padded).
	if got := clip.Blocks(2_000_000); got != 38 {
		t.Fatalf("Blocks = %d, want 38", got)
	}
	// Exact division.
	if got := clip.Blocks(1_500_000); got != 50 {
		t.Fatalf("Blocks = %d, want 50", got)
	}
}

func TestClipBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Clip{Length: units.Second, Rate: units.Mbps}.Blocks(0)
}

// poisson drains a fresh Poisson source into a slice.
func poisson(t *testing.T, rate float64, horizon units.Duration, sel Selector, seed int64) []Request {
	t.Helper()
	src, err := NewPoissonSource(rate, horizon, sel, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Collect(src)
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	sel := UniformSelector{N: 100}
	a := poisson(t, 20, 60*units.Second, sel, 1)
	b := poisson(t, 20, 60*units.Second, sel, 1)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	c := poisson(t, 20, 60*units.Second, sel, 2)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds gave identical traces")
		}
	}
}

func TestPoissonArrivalsRate(t *testing.T) {
	sel := UniformSelector{N: 10}
	src, err := NewPoissonSource(20, 600*units.Second, sel, 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs := Collect(src)
	// Expect ~12000 arrivals; allow 5σ ≈ 550.
	if n := len(reqs); math.Abs(float64(n)-12000) > 550 {
		t.Fatalf("got %d arrivals for mean 12000", n)
	}
	// Arrivals sorted and in range; clip IDs valid.
	for i, r := range reqs {
		if r.Arrival < 0 || r.Arrival >= 600*units.Second {
			t.Fatalf("arrival %d out of range: %v", i, r.Arrival)
		}
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		if r.ClipID < 0 || r.ClipID >= 10 {
			t.Fatalf("clip ID %d out of range", r.ClipID)
		}
	}
	// An exhausted source stays exhausted.
	if r, ok := src.Next(); ok {
		t.Fatalf("source revived after exhaustion with %+v", r)
	}
}

// TestPoissonArrivalsValidation: negative parameters are refused like
// the zero ones TestSourceValidation checks.
func TestPoissonArrivalsValidation(t *testing.T) {
	sel := UniformSelector{N: 10}
	if _, err := NewPoissonSource(-1, units.Second, sel, 1); err == nil {
		t.Error("accepted negative rate")
	}
	if _, err := NewPoissonSource(1, -units.Second, sel, 1); err == nil {
		t.Error("accepted negative horizon")
	}
}

func TestUniformSelectorCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sel := UniformSelector{N: 10}
	seen := map[int]int{}
	for i := 0; i < 10000; i++ {
		id := sel.Pick(rng)
		if id < 0 || id >= 10 {
			t.Fatalf("out of range pick %d", id)
		}
		seen[id]++
	}
	for i := 0; i < 10; i++ {
		if seen[i] < 800 || seen[i] > 1200 {
			t.Errorf("clip %d picked %d/10000 times, want ~1000", i, seen[i])
		}
	}
}

func TestZipfSelector(t *testing.T) {
	if _, err := NewZipfSelector(0, 1); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewZipfSelector(10, 0); err == nil {
		t.Error("accepted s=0")
	}
	z, err := NewZipfSelector(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		id := z.Pick(rng)
		if id < 0 || id >= 100 {
			t.Fatalf("out of range pick %d", id)
		}
		counts[id]++
	}
	// Rank 0 must dominate rank 10 by roughly 10x (Zipf-1), and the top
	// rank must be the most popular.
	if counts[0] < 5*counts[10] {
		t.Errorf("Zipf skew too weak: rank0=%d rank10=%d", counts[0], counts[10])
	}
	for i := 1; i < 100; i++ {
		if counts[i] > counts[0] {
			t.Errorf("rank %d (%d) more popular than rank 0 (%d)", i, counts[i], counts[0])
		}
	}
}
