package experiments

import (
	"strings"
	"testing"
)

func TestCorruptionSweep(t *testing.T) {
	pts, err := CorruptionSweep(1)
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
		// The patrol rides idle capacity only, and no disk rots enough to
		// be declared failed: the hot streams never notice it.
		if pt.Hiccups != 0 || pt.Exact != scrubHot || pt.Failures != 0 {
			t.Fatalf("rate %d: hiccups %d, exact streams %d of %d, failed disks %d",
				pt.Rate, pt.Hiccups, pt.Exact, scrubHot, pt.Failures)
		}
		if pt.Injected != scrubRotBlocks {
			t.Fatalf("rate %d: injected = %d, want %d", pt.Rate, pt.Injected, scrubRotBlocks)
		}
		if pt.Detected > 0 && pt.MeanDetection <= 0 {
			t.Fatalf("rate %d: detected %d but zero latency", pt.Rate, pt.Detected)
		}
		// The budget is per array per round: k verify reads a round
		// cannot finish more than rounds·k/blocks sweeps.
		if k := int64(pt.Rate); k >= 1 && pt.Sweeps*int64(pt.Blocks) > scrubRounds*k {
			t.Fatalf("rate %d: %d sweeps of %d blocks in %d rounds", pt.Rate, pt.Sweeps, pt.Blocks, scrubRounds)
		}
	}
	// The idle-bounded patrol catches and repairs the whole campaign.
	if pts[0].Detected != scrubRotBlocks || pts[0].Repaired != scrubRotBlocks || pts[0].Sweeps < 1 {
		t.Fatalf("idle-bounded patrol detected/repaired %d/%d in %d sweeps, want %d/%d in >= 1",
			pts[0].Detected, pts[0].Repaired, pts[0].Sweeps, scrubRotBlocks, scrubRotBlocks)
	}
	// A throttled patrol's cursor is always at or behind a faster one's,
	// so detections by the end of the run only shrink as the rate drops,
	// and the slowest does not finish.
	for i := 1; i < len(pts); i++ {
		if pts[i].Detected > pts[i-1].Detected {
			t.Fatalf("rate %d detected %d > faster rate %d's %d",
				pts[i].Rate, pts[i].Detected, pts[i-1].Rate, pts[i-1].Detected)
		}
	}
	if last := pts[len(pts)-1]; last.Detected >= scrubRotBlocks {
		t.Fatalf("slowest rate %d detected %d, want fewer than %d", last.Rate, last.Detected, scrubRotBlocks)
	}
}

func TestWriteCorruptionSweep(t *testing.T) {
	out := render(t, "cmsim", "integrity", Params{Seed: 1}, false)
	if !strings.Contains(out, "E17") || !strings.Contains(out, "idle") {
		t.Fatalf("missing header or idle row:\n%s", out)
	}
}
