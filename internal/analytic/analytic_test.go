package analytic

import (
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

// paperConfig returns the §8 evaluation configuration: 32 Figure-1 disks,
// the given buffer, and a 1000-clip × 50-second MPEG-1 library (9.375 GB,
// so pmin = 2).
func paperConfig(buffer units.Bits) Config {
	return Config{
		Disk:    diskmodel.Default(),
		D:       32,
		Buffer:  buffer,
		Storage: 1000 * 50 * units.Bits(1.5*1e6),
	}
}

func solveAt(t *testing.T, c Config, s scheme.Scheme, p int) Result {
	t.Helper()
	res, err := Solve(c, s, p)
	if err != nil {
		t.Fatalf("Solve(%v, p=%d): %v", s, p, err)
	}
	return res
}

func TestValidate(t *testing.T) {
	c := paperConfig(256 * units.MB)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := c
	bad.D = 1
	if bad.Validate() == nil {
		t.Error("accepted d=1")
	}
	bad = c
	bad.Buffer = 0
	if bad.Validate() == nil {
		t.Error("accepted zero buffer")
	}
	bad = c
	bad.Storage = -1
	if bad.Validate() == nil {
		t.Error("accepted negative storage")
	}
	bad = c
	bad.Storage = 65 * units.GB
	if bad.Validate() == nil {
		t.Error("accepted library beyond raw capacity")
	}
}

func TestMinGroupSize(t *testing.T) {
	c := paperConfig(256 * units.MB)
	if got := c.MinGroupSize(); got != 2 {
		t.Fatalf("pmin = %d, want 2 (9.4 GB library on 64 GB raw)", got)
	}
	// A library that fills 3/4 of raw capacity needs p >= 4.
	c.Storage = 48 * units.GB
	if got := c.MinGroupSize(); got != 4 {
		t.Fatalf("pmin = %d, want 4", got)
	}
	// No storage constraint.
	c.Storage = 0
	if got := c.MinGroupSize(); got != 2 {
		t.Fatalf("pmin = %d, want 2", got)
	}
}

// TestSchemeStrings: the five schemes Solve covers have non-empty labels
// and Result.Scheme prints its key.
func TestSchemeStrings(t *testing.T) {
	if len(scheme.Paper()) != 5 {
		t.Fatalf("scheme.Paper() = %v, want the five §7 schemes", scheme.Paper())
	}
	c := paperConfig(256 * units.MB)
	for _, s := range scheme.Paper() {
		if s.String() == "" || s.Key() == "" || s.Legend() == "" {
			t.Errorf("scheme %d has an empty label", uint8(s))
		}
		if got := solveAt(t, c, s, 4).Scheme.String(); got != s.Key() {
			t.Errorf("Result.Scheme prints %q, want %q", got, s.Key())
		}
	}
	if scheme.Scheme(99).String() != "Scheme(99)" {
		t.Error("unknown scheme String wrong")
	}
}

// TestSolveBasicSanity: every scheme solves at every paper grid point and
// produces internally consistent results.
func TestSolveBasicSanity(t *testing.T) {
	for _, buffer := range []units.Bits{256 * units.MB, 2 * units.GB} {
		c := paperConfig(buffer)
		for _, s := range scheme.Paper() {
			for _, p := range []int{2, 4, 8, 16, 32} {
				res := solveAt(t, c, s, p)
				if res.P != p || res.Scheme != s {
					t.Errorf("%v p=%d: echoed %v p=%d", s, p, res.Scheme, res.P)
				}
				if res.Q < 1 || res.Block <= 0 || res.Clips < 1 {
					t.Errorf("%v p=%d: degenerate result %+v", s, p, res)
				}
				if res.F < 0 || res.F >= res.Q {
					t.Errorf("%v p=%d: f=%d out of range (q=%d)", s, p, res.F, res.Q)
				}
				// Continuity must hold: Equation 1 outside streaming RAID.
				if !s.Continuous(c.Disk, p, res.Q, res.Block) {
					t.Errorf("%v p=%d: continuity violated at q=%d b=%v", s, p, res.Q, res.Block)
				}
				if s != scheme.StreamingRAID && !c.Disk.SatisfiesEquation1(res.Q, res.Block) {
					t.Errorf("%v p=%d: Equation 1 violated at q=%d b=%v", s, p, res.Q, res.Block)
				}
			}
		}
	}
}

// TestDeclusteredContingencyGrows pins the paper's §8.1 observation: at
// p=16 the declustered scheme reserves 1/3 of each disk's bandwidth
// (r = 2 ⇒ f >= (q−f)/2) and at p=32 it reserves 1/2 (r = 1 ⇒ f >= q−f).
func TestDeclusteredContingencyGrows(t *testing.T) {
	c := paperConfig(256 * units.MB)
	r16 := solveAt(t, c, scheme.Declustered, 16)
	if _, rows := scheme.Declustered.Grid(c.D, 16); rows != 2 {
		t.Fatalf("p=16: rows = %d, want 2", rows)
	}
	if 2*r16.F < r16.Q-r16.F {
		t.Fatalf("p=16: row capacity violated: f=%d q=%d", r16.F, r16.Q)
	}
	if frac := float64(r16.F) / float64(r16.Q); frac < 0.25 || frac > 0.45 {
		t.Errorf("p=16: f/q = %.2f, want ≈ 1/3", frac)
	}
	r32 := solveAt(t, c, scheme.Declustered, 32)
	if _, rows := scheme.Declustered.Grid(c.D, 32); rows != 1 {
		t.Fatalf("p=32: rows = %d, want 1", rows)
	}
	if frac := float64(r32.F) / float64(r32.Q); frac < 0.4 || frac > 0.6 {
		t.Errorf("p=32: f/q = %.2f, want ≈ 1/2", frac)
	}
}

// TestFigure5Shape256MB checks the qualitative claims of §8.1 for
// B = 256 MB (E4):
//   - declustered and prefetch-flat decline monotonically in p;
//   - the cluster-based trio rises from p=2 to a peak at 8–16 then falls;
//   - declustered dominates at small p;
//   - non-clustered overtakes declustered at p=16;
//   - non-clustered and prefetch-parity-disk peak at p=16.
func TestFigure5Shape256MB(t *testing.T) {
	c := paperConfig(256 * units.MB)
	grid := []int{2, 4, 8, 16, 32}
	clips := map[scheme.Scheme]map[int]int{}
	for _, s := range scheme.Paper() {
		clips[s] = map[int]int{}
		for _, p := range grid {
			clips[s][p] = solveAt(t, c, s, p).Clips
		}
	}
	// Monotone decline for the two distributed schemes.
	for _, s := range []scheme.Scheme{scheme.Declustered, scheme.PrefetchFlat} {
		for i := 1; i < len(grid); i++ {
			if clips[s][grid[i]] > clips[s][grid[i-1]] {
				t.Errorf("%v: clips rose from p=%d (%d) to p=%d (%d)", s,
					grid[i-1], clips[s][grid[i-1]], grid[i], clips[s][grid[i]])
			}
		}
	}
	// Rise then fall for the cluster trio.
	for _, s := range []scheme.Scheme{scheme.PrefetchParityDisk, scheme.StreamingRAID, scheme.NonClustered} {
		if clips[s][4] <= clips[s][2] {
			t.Errorf("%v: no initial rise: p=2 %d, p=4 %d", s, clips[s][2], clips[s][4])
		}
		if clips[s][32] >= clips[s][16] {
			t.Errorf("%v: no final fall: p=16 %d, p=32 %d", s, clips[s][16], clips[s][32])
		}
	}
	// Declustered dominates everything at p=2 and p=4.
	for _, p := range []int{2, 4} {
		for _, s := range []scheme.Scheme{scheme.PrefetchParityDisk, scheme.StreamingRAID, scheme.NonClustered} {
			if clips[scheme.Declustered][p] <= clips[s][p] {
				t.Errorf("p=%d: declustered (%d) should beat %v (%d)", p, clips[scheme.Declustered][p], s, clips[s][p])
			}
		}
	}
	// Non-clustered overtakes declustered at p=16.
	if clips[scheme.NonClustered][16] <= clips[scheme.Declustered][16] {
		t.Errorf("p=16: non-clustered (%d) should beat declustered (%d)",
			clips[scheme.NonClustered][16], clips[scheme.Declustered][16])
	}
	// Streaming RAID never beats non-clustered or prefetch-parity-disk
	// (its buffer use is roughly double).
	for _, p := range grid {
		if clips[scheme.StreamingRAID][p] > clips[scheme.NonClustered][p] {
			t.Errorf("p=%d: streaming RAID (%d) beats non-clustered (%d)", p,
				clips[scheme.StreamingRAID][p], clips[scheme.NonClustered][p])
		}
	}
}

// TestFigure5Shape2GB checks the qualitative claims of §8.1 for B = 2 GB
// (E5): prefetch-flat beats declustered (abundant buffer, less reserved
// bandwidth); the cluster trio overtakes declustered at large p; the
// non-clustered scheme is best overall at p=16.
func TestFigure5Shape2GB(t *testing.T) {
	c := paperConfig(2 * units.GB)
	grid := []int{2, 4, 8, 16, 32}
	clips := map[scheme.Scheme]map[int]int{}
	for _, s := range scheme.Paper() {
		clips[s] = map[int]int{}
		for _, p := range grid {
			clips[s][p] = solveAt(t, c, s, p).Clips
		}
	}
	// Prefetch-flat >= declustered at p in {4, 8, 16} (the paper's
	// headline large-buffer result; at p=32 declustered's smaller per-clip
	// buffer can win back since prefetch-flat then buffers 16 blocks per
	// clip).
	for _, p := range []int{4, 8, 16} {
		if clips[scheme.PrefetchFlat][p] < clips[scheme.Declustered][p] {
			t.Errorf("p=%d: prefetch-flat (%d) should be >= declustered (%d)",
				p, clips[scheme.PrefetchFlat][p], clips[scheme.Declustered][p])
		}
	}
	// At p=16 and 32, the cluster trio beats declustered (§9).
	for _, p := range []int{16, 32} {
		for _, s := range []scheme.Scheme{scheme.PrefetchParityDisk, scheme.StreamingRAID, scheme.NonClustered} {
			if clips[s][p] <= clips[scheme.Declustered][p] {
				t.Errorf("p=%d: %v (%d) should beat declustered (%d)", p, s, clips[s][p], clips[scheme.Declustered][p])
			}
		}
		// ... and prefetch-parity-disk and non-clustered beat
		// prefetch-flat (§9).
		for _, s := range []scheme.Scheme{scheme.PrefetchParityDisk, scheme.NonClustered} {
			if clips[s][p] <= clips[scheme.PrefetchFlat][p] {
				t.Errorf("p=%d: %v (%d) should beat prefetch-flat (%d)", p, s, clips[s][p], clips[scheme.PrefetchFlat][p])
			}
		}
	}
	// At p=16, non-clustered is the best of all five schemes ("the
	// non-clustered scheme performs the best for a parity group size of
	// 16", §8.1).
	for _, s := range scheme.Paper() {
		if s != scheme.NonClustered && clips[s][16] >= clips[scheme.NonClustered][16] {
			t.Errorf("p=16: %v (%d) should trail non-clustered (%d)", s, clips[s][16], clips[scheme.NonClustered][16])
		}
	}
}

// TestBufferScaling: more buffer never serves fewer clips.
func TestBufferScaling(t *testing.T) {
	small := paperConfig(256 * units.MB)
	large := paperConfig(2 * units.GB)
	for _, s := range scheme.Paper() {
		for _, p := range []int{2, 4, 8, 16, 32} {
			a := solveAt(t, small, s, p)
			b := solveAt(t, large, s, p)
			if b.Clips < a.Clips {
				t.Errorf("%v p=%d: 2GB serves %d < 256MB's %d", s, p, b.Clips, a.Clips)
			}
		}
	}
}

func TestOptimize(t *testing.T) {
	c := paperConfig(256 * units.MB)
	for _, s := range scheme.Paper() {
		best, err := Optimize(c, s)
		if err != nil {
			t.Fatalf("Optimize(%v): %v", s, err)
		}
		// The optimum must beat or match every grid point.
		for _, p := range []int{2, 4, 8, 16, 32} {
			res := solveAt(t, c, s, p)
			if res.Clips > best.Clips {
				t.Errorf("Optimize(%v) = %d clips at p=%d, but p=%d gives %d",
					s, best.Clips, best.P, p, res.Clips)
			}
		}
	}
}

func TestSolveErrors(t *testing.T) {
	c := paperConfig(256 * units.MB)
	if _, err := Solve(c, scheme.StreamingRAID, 5); err == nil {
		t.Error("streaming RAID accepted p∤d")
	}
	if _, err := Solve(c, scheme.NonClustered, 3); err == nil {
		t.Error("non-clustered accepted p∤d")
	}
	if _, err := Solve(c, scheme.PrefetchParityDisk, 7); err == nil {
		t.Error("prefetch-parity-disk accepted p∤d")
	}
	if _, err := solveF(c, scheme.Declustered, 1, 1); err == nil {
		t.Error("declustered accepted p=1")
	}
	if _, err := solveF(c, scheme.Declustered, 4, 0); err == nil {
		t.Error("declustered accepted f=0")
	}
	if _, err := solveF(c, scheme.PrefetchFlat, 40, 1); err == nil {
		t.Error("prefetch-flat accepted p>d")
	}
	if _, err := solveF(c, scheme.StreamingRAID, 4, 1); err == nil {
		t.Error("streaming RAID accepted f=1")
	}
	bad := c
	bad.Buffer = 0
	if _, err := Optimize(bad, scheme.Declustered); err == nil {
		t.Error("Optimize accepted invalid config")
	}
	if _, err := Solve(bad, scheme.Declustered, 4); err == nil {
		t.Error("Solve accepted invalid config")
	}
}

// TestSolveRejectsInvalidScheme: the zero scheme, an out-of-range value
// and P+Q, which has no §7 closed form, all fail.
func TestSolveRejectsInvalidScheme(t *testing.T) {
	c := paperConfig(256 * units.MB)
	for _, s := range []scheme.Scheme{0, 99, scheme.DeclusteredPQ} {
		if _, err := Solve(c, s, 4); err == nil {
			t.Errorf("Solve accepted %v", s)
		}
	}
}

// TestTinyBufferInfeasible: with a buffer too small for even one clip's
// blocks, solvers report infeasibility rather than nonsense.
func TestTinyBufferInfeasible(t *testing.T) {
	c := paperConfig(64 * units.KB)
	for _, s := range scheme.Paper() {
		if _, err := Solve(c, s, 4); err == nil {
			t.Errorf("%v: accepted 64 KB buffer", s)
		}
	}
}
