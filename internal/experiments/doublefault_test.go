package experiments

import (
	"io"
	"math"
	"strings"
	"testing"

	"ftcms/internal/core"
)

// TestDoubleFaultSweep pins the E18 story: under the same two
// overlapping failures in one parity group, single parity loses the
// streams that cross a doubly-degraded group while P+Q completes every
// stream byte-exactly and rebuilds both disks.
func TestDoubleFaultSweep(t *testing.T) {
	pts, err := DoubleFaultSweep(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	byScheme := map[core.Scheme]DoubleFaultPoint{}
	for _, pt := range pts {
		byScheme[pt.Scheme] = pt
	}
	single := byScheme[core.Declustered]
	pq := byScheme[core.DeclusteredPQ]

	if single.Lost == 0 && single.LostBlocks == 0 {
		t.Fatalf("single parity survived a double failure unscathed: %+v", single)
	}
	if single.Completed+single.Lost != single.Streams {
		t.Fatalf("single parity: %d completed + %d lost != %d streams", single.Completed, single.Lost, single.Streams)
	}
	if pq.Lost != 0 || pq.LostBlocks != 0 || pq.Hiccups != 0 {
		t.Fatalf("P+Q lost data under a double failure: %+v", pq)
	}
	if pq.Completed != pq.Streams {
		t.Fatalf("P+Q completed %d of %d streams", pq.Completed, pq.Streams)
	}
	if pq.RebuildsDone != 2 {
		t.Fatalf("P+Q rebuilds done = %d, want 2", pq.RebuildsDone)
	}
}

// TestRebuildModelValidation holds the analytic rebuild-time estimate
// to the simulator: for both schemes, a quiescent single-disk rebuild
// must finish within 10% of reliability.RebuildTime's round count.
func TestRebuildModelValidation(t *testing.T) {
	for _, scheme := range []core.Scheme{core.Declustered, core.DeclusteredPQ} {
		measured, analytic, err := MeasureRebuild(scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if analytic < 20 {
			t.Fatalf("%s: analytic estimate %d rounds too short for a meaningful comparison", scheme, analytic)
		}
		rel := math.Abs(float64(measured-analytic)) / float64(analytic)
		t.Logf("%s: measured %d rounds, analytic %d rounds (%.1f%% off)", scheme, measured, analytic, rel*100)
		if rel > 0.10 {
			t.Fatalf("%s: measured %d vs analytic %d rounds — %.1f%% apart, want <= 10%%",
				scheme, measured, analytic, rel*100)
		}
	}
}

func TestWriteDoubleFaultSweep(t *testing.T) {
	out := render(t, "cmsim", "doublefault", Params{Seed: 3}, false)
	for _, want := range []string{"E18", "declustered-pq", "rebuild rounds (model)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMTTDLTradeoff(t *testing.T) {
	out := render(t, "cmopt", "mttdl", Params{D: 32, P: 4}, false)
	for _, want := range []string{"declustered", "declustered-pq", "replication", "overhead"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if err := Run(io.Discard, "cmopt", "mttdl", Params{D: 4, P: 8}, false); err == nil {
		t.Fatal("accepted p > d")
	}
}
