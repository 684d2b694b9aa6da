package experiments

import (
	"strings"
	"testing"

	"ftcms/internal/units"
)

func TestCorruptionSweep(t *testing.T) {
	pts, err := CorruptionSweep(256*units.MB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ScrubRates) {
		t.Fatalf("%d points, want %d", len(pts), len(ScrubRates))
	}
	for i, pt := range pts {
		if pt.Rate != ScrubRates[i] {
			t.Fatalf("point %d rate = %d, want %d", i, pt.Rate, ScrubRates[i])
		}
		if pt.Injected != 80 {
			t.Fatalf("rate %d: injected = %d, want 80", pt.Rate, pt.Injected)
		}
		if pt.Detected > 0 && pt.MeanDetection <= 0 {
			t.Fatalf("rate %d: detected %d but zero latency", pt.Rate, pt.Detected)
		}
		// The patrol rides idle capacity only: service is identical at
		// every rate.
		if pt.Serviced != pts[0].Serviced {
			t.Fatalf("rate %d changed service: %d vs %d", pt.Rate, pt.Serviced, pts[0].Serviced)
		}
	}
	// The idle-bounded patrol catches and repairs the whole campaign.
	if pts[0].Detected != 80 || pts[0].Repaired != 80 {
		t.Fatalf("idle-bounded patrol detected/repaired %d/%d, want 80/80",
			pts[0].Detected, pts[0].Repaired)
	}
	if pts[0].Sweeps < 1 {
		t.Fatalf("idle-bounded patrol completed %d sweeps, want >= 1", pts[0].Sweeps)
	}
	// A throttled patrol's cursor is always at or behind a faster one's,
	// so detections by the end of the run only shrink as the rate drops.
	// (Mean latency is not monotone: slow patrols detect only the rot
	// nearest the cursor, censoring the sample.)
	for i := 1; i < len(pts); i++ {
		if pts[i].Detected > pts[i-1].Detected {
			t.Fatalf("rate %d detected %d > faster rate %d's %d",
				pts[i].Rate, pts[i].Detected, pts[i-1].Rate, pts[i-1].Detected)
		}
	}
}

func TestWriteCorruptionSweep(t *testing.T) {
	out := render(t, "cmsim", "integrity", Params{Buffer: 256 * units.MB, Seed: 1}, false)
	if !strings.Contains(out, "E17") || !strings.Contains(out, "idle") {
		t.Fatalf("missing header or idle row:\n%s", out)
	}
}
