package analytic

import (
	"testing"

	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

func TestSolveMixedValidation(t *testing.T) {
	c := paperConfig(256 * units.MB)
	if _, err := SolveMixed(c, 1, 1, MPEG1Mix()); err == nil {
		t.Error("accepted p=1")
	}
	if _, err := SolveMixed(c, 4, 0, MPEG1Mix()); err == nil {
		t.Error("accepted f=0")
	}
	if _, err := SolveMixed(c, 4, 1, nil); err == nil {
		t.Error("accepted empty mix")
	}
	bad := []RateClass{{Name: "x", Rate: 1.5 * units.Mbps, Share: 0.5}}
	if _, err := SolveMixed(c, 4, 1, bad); err == nil {
		t.Error("accepted shares not summing to 1")
	}
	bad = []RateClass{{Name: "x", Rate: 0, Share: 1}}
	if _, err := SolveMixed(c, 4, 1, bad); err == nil {
		t.Error("accepted zero rate")
	}
	bad = []RateClass{{Name: "x", Rate: 50 * units.Mbps, Share: 1}}
	if _, err := SolveMixed(c, 4, 1, bad); err == nil {
		t.Error("accepted rate above disk bandwidth")
	}
}

// TestSolveMixedUniformMatchesSingleRate: the mixed solver on a pure
// MPEG-1 mix lands in the same capacity ballpark as the paper's §7.1
// solver (same constraints, different search granularity).
func TestSolveMixedUniformMatchesSingleRate(t *testing.T) {
	c := paperConfig(256 * units.MB)
	single := solveAt(t, c, scheme.Declustered, 4)
	mixed, err := SolveMixed(c, 4, single.F, MPEG1Mix())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := single.Clips*85/100, single.Clips*115/100
	if mixed.Clips < lo || mixed.Clips > hi {
		t.Fatalf("mixed pure-MPEG1 capacity %d outside [%d, %d] of the single-rate solver's %d",
			mixed.Clips, lo, hi, single.Clips)
	}
	if len(mixed.PerDisk) != 1 || mixed.PerDisk[0]*32 != mixed.Clips {
		t.Fatalf("per-disk accounting inconsistent: %+v", mixed)
	}
}

// TestSolveMixedAudioIsCheap: replacing half the video streams with
// 256 kbps audio raises total capacity (audio consumes ~1/6 the
// bandwidth and buffer).
func TestSolveMixedAudioIsCheap(t *testing.T) {
	c := paperConfig(256 * units.MB)
	video, err := SolveMixed(c, 4, 2, MPEG1Mix())
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := SolveMixed(c, 4, 2, []RateClass{
		{Name: "mpeg1", Rate: 1.5 * units.Mbps, Share: 0.5},
		{Name: "audio", Rate: 256 * units.Kbps, Share: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Clips <= video.Clips {
		t.Fatalf("audio-heavy mix %d should beat all-video %d", mixed.Clips, video.Clips)
	}
}

// TestSolveMixedMPEG2IsExpensive: a 4 Mbps MPEG-2 share cuts capacity.
func TestSolveMixedMPEG2IsExpensive(t *testing.T) {
	c := paperConfig(256 * units.MB)
	video, err := SolveMixed(c, 4, 2, MPEG1Mix())
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := SolveMixed(c, 4, 2, []RateClass{
		{Name: "mpeg1", Rate: 1.5 * units.Mbps, Share: 0.5},
		{Name: "mpeg2", Rate: 4 * units.Mbps, Share: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Clips >= video.Clips {
		t.Fatalf("MPEG-2-heavy mix %d should trail all-MPEG-1 %d", mixed.Clips, video.Clips)
	}
	// Block sizes scale with rate: mpeg2 blocks ≈ 8/3 × mpeg1 blocks.
	ratio := float64(mixed.Blocks[1]) / float64(mixed.Blocks[0])
	if ratio < 2.5 || ratio > 2.8 {
		t.Fatalf("block ratio %.2f, want ≈ 2.67", ratio)
	}
}

// TestSolveMixedBufferBound: with a tiny buffer the capacity collapses
// (buffer-bound rather than bandwidth-bound).
func TestSolveMixedBufferBound(t *testing.T) {
	small := paperConfig(16 * units.MB)
	large := paperConfig(2 * units.GB)
	a, err := SolveMixed(small, 4, 2, MPEG1Mix())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveMixed(large, 4, 2, MPEG1Mix())
	if err != nil {
		t.Fatal(err)
	}
	if a.Clips >= b.Clips {
		t.Fatalf("16 MB buffer capacity %d not below 2 GB's %d", a.Clips, b.Clips)
	}
}
