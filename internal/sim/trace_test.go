package sim

import (
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

// TestTraceValidation rejects out-of-range and negative-time events.
func TestTraceValidation(t *testing.T) {
	cat := paperCatalog(t)
	base := func() Config {
		return Config{
			Scheme: scheme.Declustered, Disk: diskmodel.Default(), D: 32, P: 4,
			Buffer: 256 * units.MB, Catalog: cat, ArrivalRate: 20,
			Duration: 10 * units.Second,
		}
	}
	bad := base()
	bad.Trace = []FailureEvent{{Disk: 99, At: units.Second}}
	if _, err := Run(bad); err == nil {
		t.Error("accepted out-of-range trace disk")
	}
	bad = base()
	bad.Trace = []FailureEvent{{Disk: 1, At: -units.Second}}
	if _, err := Run(bad); err == nil {
		t.Error("accepted negative trace time")
	}
}

// TestTraceDoubleFailureDeclustered scripts fail → rebuild → second
// failure on the declustered scheme: while the two dependent failures
// overlap, the younger disk's due blocks are lost; once the first rebuild
// completes, the second proceeds and both finish.
func TestTraceDoubleFailureDeclustered(t *testing.T) {
	res := paperRun(t, scheme.Declustered, 4, 256*units.MB, func(cf *Config) {
		cf.Duration = 1500 * units.Second // one full rebuild takes ~400s
		cf.Trace = []FailureEvent{
			{Disk: 5, At: 50 * units.Second, Rebuild: true},
			{Disk: 9, At: 60 * units.Second, Rebuild: true},
		}
	})
	if res.LostBlocks == 0 {
		t.Error("dependent double failure lost no blocks — overlap not accounted")
	}
	if !res.RebuildDone || res.RebuildsDone != 2 {
		t.Errorf("rebuilds done = %d (all done: %v), want both", res.RebuildsDone, res.RebuildDone)
	}
	if res.RebuildTime <= 0 {
		t.Errorf("rebuild time %v", res.RebuildTime)
	}
	// A single failure with the same load loses nothing — the losses are
	// attributable to the overlap.
	single := paperRun(t, scheme.Declustered, 4, 256*units.MB, func(cf *Config) {
		cf.Trace = []FailureEvent{{Disk: 5, At: 50 * units.Second, Rebuild: true}}
	})
	if single.LostBlocks != 0 {
		t.Errorf("single failure lost %d blocks", single.LostBlocks)
	}
}

// TestTraceIndependentClusters: for the cluster-confined schemes, two
// failures in different clusters are each ordinary single failures — no
// losses, and with the parity-disk scheme no deadline misses either.
func TestTraceIndependentClusters(t *testing.T) {
	res := paperRun(t, scheme.PrefetchParityDisk, 4, 512*units.MB, func(cf *Config) {
		cf.Trace = []FailureEvent{
			{Disk: 0, At: 50 * units.Second},  // data disk, cluster 0
			{Disk: 4, At: 100 * units.Second}, // data disk, cluster 1
		}
	})
	if res.LostBlocks != 0 {
		t.Errorf("independent failures lost %d blocks", res.LostBlocks)
	}
	if res.DeadlineMisses != 0 {
		t.Errorf("independent failures caused %d deadline misses", res.DeadlineMisses)
	}
}

// TestTraceSameClusterLoses: a second failure inside the same parity
// cluster strands the cluster's groups — the younger disk's due blocks
// are lost.
func TestTraceSameClusterLoses(t *testing.T) {
	res := paperRun(t, scheme.NonClustered, 4, 512*units.MB, func(cf *Config) {
		cf.Trace = []FailureEvent{
			{Disk: 0, At: 50 * units.Second}, // data disk, cluster 0
			{Disk: 1, At: 60 * units.Second}, // second data disk, cluster 0
		}
	})
	if res.LostBlocks == 0 {
		t.Error("same-cluster double failure lost no blocks")
	}
}

// TestTraceRefailIgnored: re-failing a still-failed disk must not spawn a
// second failure state or a second rebuild.
func TestTraceRefailIgnored(t *testing.T) {
	res := paperRun(t, scheme.Declustered, 4, 256*units.MB, func(cf *Config) {
		cf.Trace = []FailureEvent{
			{Disk: 5, At: 50 * units.Second, Rebuild: true},
			{Disk: 5, At: 55 * units.Second, Rebuild: true},
		}
	})
	if res.RebuildsDone != 1 {
		t.Errorf("RebuildsDone = %d, want 1 (re-fail of a failed disk is ignored)", res.RebuildsDone)
	}
	if res.LostBlocks != 0 {
		t.Errorf("re-fail accounted losses: %d", res.LostBlocks)
	}
}
