package experiments

import (
	"strings"
	"testing"
)

func TestClusterSweep(t *testing.T) {
	pts, err := ClusterSweep(ClusterSweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// rep=2 on 1 node is skipped: 1×{1} + 2×{1,2} + 4×{1,2} = 5 cells.
	if len(pts) != 5 {
		t.Fatalf("%d points, want 5", len(pts))
	}
	byCell := map[[2]int]ClusterPoint{}
	for _, pt := range pts {
		if pt.Serviced == 0 {
			t.Fatalf("cell n=%d rep=%d serviced nothing", pt.Nodes, pt.Replication)
		}
		byCell[[2]int{pt.Nodes, pt.Replication}] = pt
	}
	// The replicated 4-node cell survives the node kill with failovers;
	// the unreplicated one only loses streams.
	rep2 := byCell[[2]int{4, 2}]
	if rep2.FailedOver == 0 {
		t.Errorf("n=4 rep=2 failed over nothing: %+v", rep2)
	}
	rep1 := byCell[[2]int{4, 1}]
	if rep1.FailedOver != 0 {
		t.Errorf("n=4 rep=1 failed over %d streams with no replicas", rep1.FailedOver)
	}
	if rep1.LostStreams == 0 {
		t.Errorf("n=4 rep=1 lost nothing to the node kill: %+v", rep1)
	}
}

func TestWriteClusterSweep(t *testing.T) {
	out := render(t, "cmsim", "cluster", Params{Seed: 1}, false)
	if !strings.Contains(out, "E14") || !strings.Contains(out, "failed over") {
		t.Fatalf("unexpected report:\n%s", out)
	}
	// rep=2 on 1 node is skipped: 1×{1} + 2×{1,2} + 4×{1,2} = 5 cells.
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 7 {
		t.Fatalf("want banner + header + 5 rows:\n%s", out)
	}
}
