package experiments

import (
	"strings"
	"testing"

	"ftcms/internal/units"
)

func TestReconfigSweep(t *testing.T) {
	pts, err := ReconfigSweep(256*units.MB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(reconfigArrivalRates) {
		t.Fatalf("%d points, want %d", len(pts), len(reconfigArrivalRates))
	}
	for _, pt := range pts {
		if pt.Baseline == 0 || pt.Serviced == 0 {
			t.Fatalf("λ=%g serviced nothing: %+v", pt.ArrivalRate, pt)
		}
		// The whole point of the graceful drain: zero stream loss.
		if pt.LostStreams != 0 {
			t.Fatalf("λ=%g drain lost %d streams", pt.ArrivalRate, pt.LostStreams)
		}
		if pt.MigratedStreams == 0 {
			t.Fatalf("λ=%g drain under load migrated nothing: %+v", pt.ArrivalRate, pt)
		}
		// Drain + retirement both bump the view when the drain finishes.
		if pt.DrainRounds >= 0 && pt.ViewVersion < 2 {
			t.Fatalf("λ=%g completed drain with ViewVersion %d", pt.ArrivalRate, pt.ViewVersion)
		}
	}
	// At the quiet end the drain completes inside the window.
	if pts[0].DrainRounds < 0 {
		t.Fatalf("λ=%g drain never completed: %+v", pts[0].ArrivalRate, pts[0])
	}
}

func TestWriteReconfigSweep(t *testing.T) {
	out := render(t, "cmsim", "reconfig", Params{Seed: 1}, false)
	if !strings.Contains(out, "E19") || !strings.Contains(out, "drain rounds") || !strings.Contains(out, "unfinished") {
		t.Fatalf("unexpected report:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 6 {
		t.Fatalf("want banner + header + 4 rows:\n%s", out)
	}
}
