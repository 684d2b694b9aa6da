package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ftcms/internal/analytic"
	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

// render runs one registry entry through the dispatcher, as the commands
// do, and returns what it printed.
func render(t *testing.T, cmd, name string, p Params, csv bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(&buf, cmd, name, p, csv); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestPaperCatalog(t *testing.T) {
	c := PaperCatalog()
	if c.Len() != 1000 {
		t.Fatalf("catalog size %d", c.Len())
	}
	if c.TotalSize() != 75_000_000_000 {
		t.Fatalf("library size %d", c.TotalSize())
	}
}

func TestFigure5Complete(t *testing.T) {
	for _, buf := range BufferSizes {
		pts, err := Figure5(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(scheme.Paper())*len(GroupSizes) {
			t.Fatalf("B=%v: %d points, want %d", buf, len(pts), len(scheme.Paper())*len(GroupSizes))
		}
		for _, pt := range pts {
			if pt.Clips < 1 || pt.Q < 1 || pt.Block <= 0 {
				t.Fatalf("degenerate point %+v", pt)
			}
		}
	}
}

func TestWriteFigure5(t *testing.T) {
	out := render(t, "cmopt", "figure5", Params{Buffer: 256 * units.MB, D: 32}, false)
	for _, want := range []string{"Figure 5", "Declustered parity", "Streaming RAID", "p=32"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6Complete(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	pts, err := Figure6(256*units.MB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 25 {
		t.Fatalf("%d points, want 25", len(pts))
	}
	for _, pt := range pts {
		if pt.Serviced < 1 || pt.PeakActive < 1 {
			t.Fatalf("degenerate point %+v", pt)
		}
	}
}

func TestWriteFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	out := render(t, "cmsim", "figure6", Params{Buffer: 256 * units.MB, Seed: 1}, false)
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "Non-clustered") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestWriteFigure1(t *testing.T) {
	out := render(t, "cmopt", "figure1", Params{}, false)
	for _, want := range []string{"45 Mbps", "17 ms", "8.34 ms", "2 GB", "1.5 Mbps"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 table missing %q:\n%s", want, out)
		}
	}
}

func TestStaggeredAblation(t *testing.T) {
	pts, err := StaggeredAblation(256 * units.MB)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		// Staggering can only help (or tie): same constraint with double
		// the effective buffer.
		if pt.StaggeredClips < pt.PlainClips {
			t.Errorf("p=%d: staggered %d < plain %d", pt.P, pt.StaggeredClips, pt.PlainClips)
		}
	}
	if !strings.Contains(render(t, "cmopt", "staggered", Params{Buffer: 256 * units.MB}, false), "E9") {
		t.Error("E9 table malformed")
	}
}

// continuityPoints runs the E10 sweep once for the tests that read it: each
// case is a byte-level run at full load, about 2 s for the six.
var continuityPoints = sync.OnceValues(func() ([]ContinuityPoint, error) {
	return FailureContinuity(1)
})

// continuitySweep returns the E10 points, skipping in -short mode.
func continuitySweep(t *testing.T) []ContinuityPoint {
	t.Helper()
	if testing.Short() {
		t.Skip("byte-level runs in -short mode")
	}
	pts, err := continuityPoints()
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func continuityName(pt ContinuityPoint) string {
	return fmt.Sprintf("%v p=%d", pt.Scheme, pt.P)
}

// TestFailureContinuity (E10/E12): the sweep runs its six cases at full
// load, disk 5 failing and one hot spare rebuilding it, each holding the
// peak Solve sizes.
func TestFailureContinuity(t *testing.T) {
	pts := continuitySweep(t)
	if len(pts) != 6 {
		t.Fatalf("%d cases, want 6", len(pts))
	}
	for _, pt := range pts {
		op, err := analytic.Solve(analytic.Config{Disk: diskmodel.Default(), D: 32, Buffer: continuityBuffer}, pt.Scheme, pt.P)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Peak != op.Clips {
			t.Errorf("%s: peak %d streams, Solve sizes %d", continuityName(pt), pt.Peak, op.Clips)
		}
	}
}

// TestFailureContinuityGuaranteed (E10): through the failure and the
// rebuild, the five rate-guaranteeing schemes deliver every block in its
// round with no charge past q and lose no stream.
func TestFailureContinuityGuaranteed(t *testing.T) {
	n := 0
	for _, pt := range continuitySweep(t) {
		if pt.Scheme == scheme.NonClustered {
			continue
		}
		n++
		if pt.Hiccups != 0 || pt.Overflows != 0 || pt.Lost != 0 {
			t.Errorf("%s: %d hiccups, %d overflows, %d streams lost; want none",
				continuityName(pt), pt.Hiccups, pt.Overflows, pt.Lost)
		}
	}
	if n != 5 {
		t.Errorf("%d rate-guaranteeing cases, want 5", n)
	}
}

// TestFailureNonClusteredLoses (E10): the non-clustered baseline reserves
// no contingency, so its degraded reads overrun q — the paper's §9 caveat
// ("could result in hiccups and data loss").
func TestFailureNonClusteredLoses(t *testing.T) {
	n := 0
	for _, pt := range continuitySweep(t) {
		if pt.Scheme != scheme.NonClustered {
			continue
		}
		n++
		if pt.Overflows == 0 {
			t.Errorf("%s: no charge past q; the baseline's degraded reads must overrun it", continuityName(pt))
		}
	}
	if n != 1 {
		t.Errorf("%d non-clustered cases, want 1", n)
	}
}

// TestOnlineRebuild (E12): at full load the declustered and flat layouts
// finish the rebuild from idle capacity; the cluster-confined pre-fetching
// schemes, whose admission books every slot of the failed cluster, do not.
func TestOnlineRebuild(t *testing.T) {
	for _, pt := range continuitySweep(t) {
		if pt.Scheme == scheme.NonClustered {
			continue
		}
		finishes := pt.Scheme == scheme.Declustered || pt.Scheme == scheme.PrefetchFlat
		if (pt.RebuildRounds >= 0) != finishes {
			t.Errorf("%s: rebuild rounds %d; want it to finish: %v", continuityName(pt), pt.RebuildRounds, finishes)
		}
	}
}

func TestAdmissionAblationShort(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	out := render(t, "cmsim", "admission", Params{Buffer: 256 * units.MB, Seed: 1}, false)
	if !strings.Contains(out, "E8") || !strings.Contains(out, "dynamic") {
		t.Errorf("E8 table malformed:\n%s", out)
	}
}

// TestRebuildAblation (E11): declustering buys rebuild speed — at every
// shared operating point, the declustered scheme rebuilds no slower than
// the cluster-confined schemes, and clustered schemes trade that for a
// smaller second-failure target (higher MTTDL at small p).
func TestRebuildAblation(t *testing.T) {
	pts, err := RebuildAblation(256 * units.MB)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]RebuildPoint{}
	for _, pt := range pts {
		byKey[pt.Scheme.String()+"-"+fmt.Sprint(pt.P)] = pt
		if pt.Rebuild <= 0 || pt.MTTDL <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
	}
	for _, p := range GroupSizes {
		decl := byKey[scheme.Declustered.String()+"-"+fmt.Sprint(p)]
		sraid := byKey[scheme.StreamingRAID.String()+"-"+fmt.Sprint(p)]
		if decl.Rebuild > sraid.Rebuild {
			t.Errorf("p=%d: declustered rebuild %v slower than streaming RAID %v", p, decl.Rebuild, sraid.Rebuild)
		}
	}
	// Small p: clustered critical set (p−1) beats declustered's d−1.
	if byKey[scheme.StreamingRAID.String()+"-2"].MTTDL <= byKey[scheme.Declustered.String()+"-2"].MTTDL {
		t.Error("p=2: clustered MTTDL should beat declustered")
	}
	if !strings.Contains(render(t, "cmopt", "rebuild", Params{Buffer: 256 * units.MB}, false), "E11") {
		t.Error("E11 table malformed")
	}
}

// TestConservatismAblation (E13): the Equation 1 budget exceeds measured
// round times at every operating point.
func TestConservatismAblation(t *testing.T) {
	pts, err := ConservatismAblation(256*units.MB, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4*len(GroupSizes) { // streaming RAID excluded
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if pt.Ratio < 1 || pt.Ratio > 3 {
			t.Errorf("%v p=%d: conservatism %.2f outside [1, 3]", pt.Scheme, pt.P, pt.Ratio)
		}
	}
	if !strings.Contains(render(t, "cmopt", "conservatism", Params{Buffer: 256 * units.MB}, false), "E13") {
		t.Error("E13 table malformed")
	}
}

// TestFigure5Golden pins the exact solver outputs for both panels. The
// solver is deterministic, so any change here is a semantic change to the
// capacity model and must be deliberate (update EXPERIMENTS.md with it).
func TestFigure5Golden(t *testing.T) {
	want := map[string][5]int{
		"256:" + scheme.Declustered.String():        {672, 640, 576, 480, 352},
		"256:" + scheme.PrefetchFlat.String():       {768, 672, 576, 448, 224},
		"256:" + scheme.PrefetchParityDisk.String(): {432, 552, 532, 450, 341},
		"256:" + scheme.StreamingRAID.String():      {400, 464, 404, 320, 243},
		"256:" + scheme.NonClustered.String():       {400, 552, 616, 540, 341},
		"2g:" + scheme.Declustered.String():         {864, 800, 704, 576, 448},
		"2g:" + scheme.PrefetchFlat.String():        {896, 864, 800, 736, 384},
		"2g:" + scheme.PrefetchParityDisk.String():  {464, 672, 756, 750, 682},
		"2g:" + scheme.StreamingRAID.String():       {464, 656, 680, 622, 525},
		"2g:" + scheme.NonClustered.String():        {464, 672, 784, 780, 682},
	}
	for tag, buf := range map[string]units.Bits{"256": 256 * units.MB, "2g": 2 * units.GB} {
		pts, err := Figure5(buf)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][5]int{}
		for _, pt := range pts {
			key := tag + ":" + pt.Scheme.String()
			row := got[key]
			for i, p := range GroupSizes {
				if p == pt.P {
					row[i] = pt.Clips
				}
			}
			got[key] = row
		}
		for key, wantRow := range want {
			if len(key) > len(tag) && key[:len(tag)] != tag {
				continue
			}
			if key[:len(tag)+1] != tag+":" {
				continue
			}
			if got[key] != wantRow {
				t.Errorf("%s: %v, want %v", key, got[key], wantRow)
			}
		}
	}
}

// TestSimLoadBalance: the simulator's per-disk loads stay balanced — a
// structural property of round-robin striping the schemes depend on.
func TestSimLoadBalance(t *testing.T) {
	// Covered indirectly by admission invariants; here we assert the
	// analytic symmetry: every disk supports the same q, so capacity is
	// an exact multiple of d (or of data-disk/cluster counts).
	cfg := PaperAnalyticConfig(256 * units.MB)
	for _, p := range GroupSizes {
		decl, err := analytic.Solve(cfg, scheme.Declustered, p)
		if err != nil {
			t.Fatal(err)
		}
		if decl.Clips%32 != 0 {
			t.Errorf("declustered p=%d capacity %d not a multiple of d", p, decl.Clips)
		}
		sr, err := analytic.Solve(cfg, scheme.StreamingRAID, p)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Clips%(32/p) != 0 {
			t.Errorf("streaming RAID p=%d capacity %d not a multiple of clusters", p, sr.Clips)
		}
	}
}
