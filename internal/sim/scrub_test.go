package sim

import (
	"reflect"
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

func scrubConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Scheme:  scheme.Declustered,
		Disk:    diskmodel.Default(),
		D:       32,
		P:       4,
		Buffer:  256 * units.MB,
		Catalog: paperCatalog(t),
		// A light load and a long horizon: a full patrol sweep of the
		// 2 GB disks takes a few hundred rounds of idle capacity.
		ArrivalRate: 2,
		Duration:    1500 * units.Second,
		Seed:        1,
	}
}

// TestScrubDetectsAndRepairsRot: with an idle-bounded patrol, every
// scripted rotten block is detected within the run and repaired from
// leftover idle capacity, and detection latency is reported.
func TestScrubDetectsAndRepairsRot(t *testing.T) {
	cfg := scrubConfig(t)
	cfg.ScrubRate = -1
	cfg.Corruptions = []CorruptionEvent{
		{Disk: 5, At: 50 * units.Second, Blocks: 40},
		{Disk: 11, At: 120 * units.Second, Blocks: 20},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptionsInjected != 60 {
		t.Fatalf("CorruptionsInjected = %d, want 60", res.CorruptionsInjected)
	}
	if res.CorruptionsDetected != 60 || res.CorruptionsRepaired != 60 {
		t.Fatalf("detected/repaired = %d/%d, want 60/60",
			res.CorruptionsDetected, res.CorruptionsRepaired)
	}
	if res.MeanDetection <= 0 {
		t.Fatalf("MeanDetection = %v, want > 0", res.MeanDetection)
	}
	if res.ScrubSweeps < 1 {
		t.Fatalf("ScrubSweeps = %d, want >= 1", res.ScrubSweeps)
	}
	if res.Serviced == 0 {
		t.Fatal("no clips serviced under scrubbing")
	}
}

// TestScrubRateThrottlesDetection: a slower patrol detects later; with
// scrubbing off, rot stays entirely latent.
func TestScrubRateThrottlesDetection(t *testing.T) {
	events := []CorruptionEvent{{Disk: 3, At: 10 * units.Second, Blocks: 30}}

	cfg := scrubConfig(t)
	cfg.ScrubRate = -1
	cfg.Corruptions = events
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg = scrubConfig(t)
	cfg.ScrubRate = 2
	cfg.Corruptions = events
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.CorruptionsDetected == 0 || slow.CorruptionsDetected == 0 {
		t.Fatalf("detected fast=%d slow=%d, want both > 0",
			fast.CorruptionsDetected, slow.CorruptionsDetected)
	}
	if slow.MeanDetection <= fast.MeanDetection {
		t.Fatalf("throttled patrol not slower: fast %v, slow %v",
			fast.MeanDetection, slow.MeanDetection)
	}

	cfg = scrubConfig(t)
	cfg.ScrubRate = 0
	cfg.Corruptions = events
	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.CorruptionsInjected != 30 || off.CorruptionsDetected != 0 || off.ScrubSweeps != 0 {
		t.Fatalf("scrub off: injected/detected/sweeps = %d/%d/%d, want 30/0/0",
			off.CorruptionsInjected, off.CorruptionsDetected, off.ScrubSweeps)
	}
}

// TestScrubDoesNotCostThroughput: the patrol rides only idle capacity,
// so the Figure 6 metric is identical with and without it.
func TestScrubDoesNotCostThroughput(t *testing.T) {
	base, err := Run(scrubConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := scrubConfig(t)
	cfg.ScrubRate = -1
	cfg.Corruptions = []CorruptionEvent{{Disk: 0, At: 100 * units.Second, Blocks: 50}}
	scrubbed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scrubbed.Serviced != base.Serviced || scrubbed.Completed != base.Completed {
		t.Fatalf("scrubbing changed service: serviced %d->%d, completed %d->%d",
			base.Serviced, scrubbed.Serviced, base.Completed, scrubbed.Completed)
	}
	if scrubbed.DeadlineMisses != base.DeadlineMisses {
		t.Fatalf("scrubbing added deadline misses: %d -> %d",
			base.DeadlineMisses, scrubbed.DeadlineMisses)
	}
}

// TestScrubPausesDuringFailure: while a failure is outstanding the
// patrol yields, and a failed disk discards its undetected rot (the
// rebuild writes clean blocks), so those blocks are never detected.
func TestScrubPausesDuringFailure(t *testing.T) {
	cfg := scrubConfig(t)
	cfg.ScrubRate = -1
	// Rot lands on the disk moments before it dies; the replacement is
	// rebuilt from parity, so the rot is discarded, not detected.
	cfg.Corruptions = []CorruptionEvent{{Disk: 5, At: 99 * units.Second, Blocks: 25}}
	cfg.Trace = []FailureEvent{{Disk: 5, At: 100 * units.Second, Rebuild: true}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptionsInjected != 25 {
		t.Fatalf("CorruptionsInjected = %d, want 25", res.CorruptionsInjected)
	}
	if res.CorruptionsDetected != 0 {
		t.Fatalf("CorruptionsDetected = %d, want 0 (rot died with the disk)", res.CorruptionsDetected)
	}
}

// TestScrubValidation rejects out-of-range corruption scripts.
func TestScrubValidation(t *testing.T) {
	cfg := scrubConfig(t)
	cfg.Corruptions = []CorruptionEvent{{Disk: 99, At: 0, Blocks: 1}}
	if _, err := Run(cfg); err == nil {
		t.Error("accepted corruption on nonexistent disk")
	}
	cfg = scrubConfig(t)
	cfg.Corruptions = []CorruptionEvent{{Disk: 0, At: 0, Blocks: 0}}
	if _, err := Run(cfg); err == nil {
		t.Error("accepted zero-block corruption event")
	}
}

// TestScrubDeterminism: same seed, same result; different seed moves
// the rot positions.
func TestScrubDeterminism(t *testing.T) {
	cfg := scrubConfig(t)
	cfg.ScrubRate = -1
	cfg.Corruptions = []CorruptionEvent{{Disk: 7, At: 30 * units.Second, Blocks: 10}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
