package reliability

import (
	"math"
	"testing"

	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

// TestPaperMTTFExample pins the paper's §1 arithmetic: 300,000-hour disks,
// 200-disk server → 1500 hours ≈ 62.5 days ("about 60 days").
func TestPaperMTTFExample(t *testing.T) {
	got, err := ArrayMTTF(PaperDiskMTTF, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1500 {
		t.Fatalf("ArrayMTTF = %v h, want 1500", got)
	}
	if days := float64(got) / 24; math.Abs(days-62.5) > 0.01 {
		t.Fatalf("%.1f days, want 62.5", days)
	}
}

func TestArrayMTTFValidation(t *testing.T) {
	if _, err := ArrayMTTF(0, 10); err == nil {
		t.Error("accepted zero MTTF")
	}
	if _, err := ArrayMTTF(100, 0); err == nil {
		t.Error("accepted zero disks")
	}
}

func TestMTTDL(t *testing.T) {
	// 32 disks, p=4 clusters, 24-hour repair.
	got, err := MTTDL(PaperDiskMTTF, 32, 3, 24)
	if err != nil {
		t.Fatal(err)
	}
	want := PaperDiskMTTF * PaperDiskMTTF / (32 * 3 * 24)
	if math.Abs(float64(got-want)) > 1 {
		t.Fatalf("MTTDL = %v, want %v", got, want)
	}
	// Parity protection must massively beat the unprotected array.
	unprotected, _ := ArrayMTTF(PaperDiskMTTF, 32)
	if got < 1000*unprotected {
		t.Fatalf("MTTDL %v not >> unprotected %v", got, unprotected)
	}
}

func TestMTTDLValidation(t *testing.T) {
	if _, err := MTTDL(0, 32, 3, 24); err == nil {
		t.Error("accepted zero MTTF")
	}
	if _, err := MTTDL(100, 32, 3, 0); err == nil {
		t.Error("accepted zero MTTR")
	}
	if _, err := MTTDL(100, 1, 1, 24); err == nil {
		t.Error("accepted d=1")
	}
	if _, err := MTTDL(100, 32, 0, 24); err == nil {
		t.Error("accepted zero critical disks")
	}
	if _, err := MTTDL(100, 32, 32, 24); err == nil {
		t.Error("accepted critical = d")
	}
}

// TestReliabilityTradeoff: the clustered schemes' MTTDL beats the
// declustered ones at equal repair time (fewer critical disks), but
// declustering rebuilds faster, which shrinks its repair window — the
// §4.1 trade-off quantified.
func TestReliabilityTradeoff(t *testing.T) {
	d, p := 32, 4
	clusteredCrit, _ := CriticalDisks(d, p)
	declusteredCrit, _ := CriticalDisks(d, d)
	mttr := Hours(24)
	clustered, _ := MTTDL(PaperDiskMTTF, d, clusteredCrit, mttr)
	declustered, _ := MTTDL(PaperDiskMTTF, d, declusteredCrit, mttr)
	if clustered <= declustered {
		t.Fatalf("equal-MTTR MTTDL: clustered %v should beat declustered %v", clustered, declustered)
	}
	// Declustered rebuild spreads over d−1 survivors instead of p−1: with
	// the same per-disk contingency f, it is (d−1)/(p−1) times faster.
	round := units.Duration(1.0)
	fast, err := RebuildTime(1_000_000, p, 1, d, 2, round)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RebuildTime(1_000_000, p, 1, p, 2, round)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(slow) / float64(fast)
	want := float64(d-1) / float64(p-1)
	if math.Abs(ratio-want) > 0.05*want {
		t.Fatalf("rebuild speedup %.2f, want ≈ %.2f", ratio, want)
	}
	// With the faster rebuild, declustered MTTDL closes most of the gap.
	declusteredFast, _ := MTTDL(PaperDiskMTTF, d, declusteredCrit, mttr*Hours(float64(p-1))/Hours(float64(d-1)))
	if declusteredFast <= declustered {
		t.Fatal("faster repair should raise MTTDL")
	}
}

func TestRebuildTimeValidation(t *testing.T) {
	if _, err := RebuildTime(-1, 4, 1, 32, 2, 1); err == nil {
		t.Error("accepted negative blocks")
	}
	if _, err := RebuildTime(100, 4, 1, 32, 2, 0); err == nil {
		t.Error("accepted zero round duration")
	}
	if _, err := RebuildTime(100, 1, 1, 32, 2, 1); err == nil {
		t.Error("accepted p=1")
	}
	if _, err := RebuildTime(100, 4, 1, 32, 0, 1); err == nil {
		t.Error("accepted f=0")
	}
	if _, err := RebuildTime(100, 4, 1, 2, 1, 1); err == nil {
		t.Error("accepted d < p")
	}
}

func TestRebuildTimeRounding(t *testing.T) {
	// 10 blocks × 3 reads = 30 reads, 31·2 = 62 per round → 1 round.
	got, err := RebuildTime(10, 4, 1, 32, 2, units.Duration(2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("RebuildTime = %v, want 2 (one round)", got)
	}
	// Zero blocks → zero time.
	got, err = RebuildTime(0, 4, 1, 32, 2, units.Duration(2))
	if err != nil || got != 0 {
		t.Fatalf("RebuildTime(0) = %v, %v", got, err)
	}
}

func TestMTTDLDouble(t *testing.T) {
	d, mttr := 13, Hours(24)
	got, err := MTTDLDouble(PaperDiskMTTF, d, d-1, d-1, mttr)
	if err != nil {
		t.Fatal(err)
	}
	want := PaperDiskMTTF * PaperDiskMTTF * PaperDiskMTTF /
		(Hours(d) * Hours(d-1) * Hours(d-1) * mttr * mttr)
	if math.Abs(float64(got-want)) > float64(want)*1e-12 {
		t.Fatalf("MTTDLDouble = %v, want %v", got, want)
	}
	// The extra parity column must buy orders of magnitude: the ratio to
	// single-parity MTTDL is MTTF/((d-1)·MTTR), here ≈ 1000×.
	single, _ := MTTDL(PaperDiskMTTF, d, d-1, mttr)
	if got < 100*single {
		t.Fatalf("P+Q MTTDL %v not >> single-parity %v", got, single)
	}
}

func TestMTTDLDoubleValidation(t *testing.T) {
	if _, err := MTTDLDouble(0, 13, 12, 12, 24); err == nil {
		t.Error("accepted zero MTTF")
	}
	if _, err := MTTDLDouble(100, 13, 12, 12, 0); err == nil {
		t.Error("accepted zero MTTR")
	}
	if _, err := MTTDLDouble(100, 2, 1, 1, 24); err == nil {
		t.Error("accepted d=2")
	}
	if _, err := MTTDLDouble(100, 13, 13, 12, 24); err == nil {
		t.Error("accepted c1 = d")
	}
	if _, err := MTTDLDouble(100, 13, 12, 0, 24); err == nil {
		t.Error("accepted c2 = 0")
	}
}

func TestMTTDLReplication(t *testing.T) {
	got, err := MTTDLReplication(PaperDiskMTTF, 13, 24)
	if err != nil {
		t.Fatal(err)
	}
	want := PaperDiskMTTF * PaperDiskMTTF / (13 * 24)
	if math.Abs(float64(got-want)) > 1 {
		t.Fatalf("MTTDLReplication = %v, want %v", got, want)
	}
	if _, err := MTTDLReplication(0, 13, 24); err == nil {
		t.Error("accepted zero MTTF")
	}
	if _, err := MTTDLReplication(100, 0, 24); err == nil {
		t.Error("accepted zero disks")
	}
}

// TestCompareRedundancy pins the table's shape and its ordering
// invariants: replication is the costliest in storage; P+Q costs more
// than single parity but multiplies MTTDL by roughly MTTF/((d-1)·MTTR).
func TestCompareRedundancy(t *testing.T) {
	d, p, mttr := 13, 4, Hours(24)
	rows, err := CompareRedundancy(PaperDiskMTTF, d, p, mttr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byScheme := map[string]Tradeoff{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	single, pq, repl := byScheme["declustered"], byScheme["declustered-pq"], byScheme["replication"]
	if !(single.Overhead < pq.Overhead && pq.Overhead <= repl.Overhead) {
		t.Fatalf("overhead ordering broken: %v / %v / %v", single.Overhead, pq.Overhead, repl.Overhead)
	}
	if !(pq.MTTDL > repl.MTTDL && repl.MTTDL > single.MTTDL) {
		t.Fatalf("MTTDL ordering broken: pq=%v repl=%v single=%v", pq.MTTDL, repl.MTTDL, single.MTTDL)
	}
	gain := float64(pq.MTTDL) / float64(single.MTTDL)
	want := float64(PaperDiskMTTF) / (float64(d-1) * float64(mttr))
	if math.Abs(gain-want) > 0.01*want {
		t.Fatalf("P+Q gain %.0f, want ≈ %.0f", gain, want)
	}
	if _, err := CompareRedundancy(PaperDiskMTTF, 4, 8, mttr); err == nil {
		t.Error("accepted p > d")
	}
}

// TestStorageOverhead and TestCriticalDisks check the counts and their
// bounds; the per-scheme values are pinned by the scheme table's test.
func TestStorageOverhead(t *testing.T) {
	cases := []struct {
		cols, p int
		want    float64
	}{
		{1, 4, 0.25},
		{1, 8, 0.125},
		{2, 4, 0.5},
		{2, 8, 0.25},
	}
	for _, c := range cases {
		got, err := StorageOverhead(c.cols, c.p)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("StorageOverhead(%d, %d) = %v, %v; want %v", c.cols, c.p, got, err, c.want)
		}
	}
	for _, c := range [][2]int{{0, 4}, {1, 1}, {2, 2}} {
		if _, err := StorageOverhead(c[0], c[1]); err == nil {
			t.Errorf("StorageOverhead(%d, %d) accepted", c[0], c[1])
		}
	}
}

func TestCriticalDisks(t *testing.T) {
	for _, c := range [][3]int{{32, 4, 3}, {32, 32, 31}, {13, 13, 12}} {
		if got, err := CriticalDisks(c[0], c[1]); err != nil || got != c[2] {
			t.Errorf("CriticalDisks(%d, %d) = %d, %v; want %d", c[0], c[1], got, err, c[2])
		}
	}
	for _, spread := range []int{1, 33} {
		if _, err := CriticalDisks(32, spread); err == nil {
			t.Errorf("CriticalDisks(32, %d) accepted", spread)
		}
	}
}

// TestCriticalDisksPQ: P+Q groups span the whole array, so at d=13 a
// failure leaves 12 critical disks, as for single-parity declustering.
func TestCriticalDisksPQ(t *testing.T) {
	if scheme.DeclusteredPQ.Clustered() {
		t.Fatal("declustered-pq groups confined to a cluster")
	}
	got, err := CriticalDisks(13, 13)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Fatalf("CriticalDisks(declustered-pq) = %d, want 12", got)
	}
}

func TestRebuildTimePQ(t *testing.T) {
	// 120 blocks × (p−2)=2 reads = 240 reads, 12·2 = 24 per round → 10 rounds.
	got, err := RebuildTime(120, 4, 2, 13, 2, units.Duration(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("P+Q RebuildTime = %v, want 10", got)
	}
	// One parity column fewer to read than single parity at equal p.
	single, _ := RebuildTime(120, 4, 1, 13, 2, units.Duration(1))
	if got >= single {
		t.Fatalf("P+Q rebuild %v not faster than single-parity %v", got, single)
	}
	if _, err := RebuildTime(100, 2, 2, 13, 2, 1); err == nil {
		t.Error("accepted p=2")
	}
}
