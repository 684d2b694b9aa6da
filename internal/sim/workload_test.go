package sim

import (
	"reflect"
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

func workloadConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Scheme:      scheme.Declustered,
		Disk:        diskmodel.Default(),
		D:           32,
		P:           4,
		Buffer:      256 * units.MB,
		Catalog:     paperCatalog(t),
		ArrivalRate: 20,
		Duration:    300 * units.Second,
		Seed:        1,
	}
}

// TestSourceMatchesArrivalRate: feeding the engine a PoissonSource built
// from the same parameters and seed the engine would use internally must
// reproduce the ArrivalRate run bit for bit — the streaming path is a
// pure plumbing change.
func TestSourceMatchesArrivalRate(t *testing.T) {
	want, err := Run(workloadConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	cfg := workloadConfig(t)
	src, err := workload.NewPoissonSource(
		cfg.ArrivalRate, cfg.Duration, workload.UniformSelector{N: cfg.Catalog.Len()}, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ArrivalRate = 0
	cfg.Source = src
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Source run diverged from ArrivalRate run:\n%+v\n%+v", got, want)
	}
}

// TestClusterSourceMatchesArrivalRate pins the same equivalence for the
// cluster engine, which used to materialize its own arrival slice.
func TestClusterSourceMatchesArrivalRate(t *testing.T) {
	base := workloadConfig(t)
	base.Duration = 150 * units.Second
	want, err := RunCluster(ClusterConfig{Node: base, Nodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	src, err := workload.NewPoissonSource(
		cfg.ArrivalRate, cfg.Duration, workload.UniformSelector{N: cfg.Catalog.Len()}, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ArrivalRate = 0
	cfg.Source = src
	got, err := RunCluster(ClusterConfig{Node: cfg, Nodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster Source run diverged from ArrivalRate run:\n%+v\n%+v", got, want)
	}
}

// TestPatienceRejectsAndBounds: an overloaded array with a patience
// bound sheds the excess as Rejected and keeps the pending list bounded;
// without the bound the queue only grows and nothing is rejected.
func TestPatienceRejects(t *testing.T) {
	cfg := workloadConfig(t)
	cfg.ArrivalRate = 200 // far beyond a 32-disk array
	cfg.Duration = 120 * units.Second
	unbounded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Rejected != 0 {
		t.Fatalf("no patience bound but Rejected = %d", unbounded.Rejected)
	}

	cfg.Patience = 10 * units.Second
	bounded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Rejected == 0 {
		t.Fatal("overload with patience bound rejected nothing")
	}
	if bounded.MaxQueue >= unbounded.MaxQueue {
		t.Fatalf("patience did not bound the queue: %d vs unbounded %d",
			bounded.MaxQueue, unbounded.MaxQueue)
	}
	// Abandoned requests free admission slots: the bounded run services
	// at least as much as the unbounded one (never less — admission
	// scans the same FIFO prefix either way).
	if bounded.Serviced < unbounded.Serviced-50 {
		t.Fatalf("patience collapsed service: %d vs %d", bounded.Serviced, unbounded.Serviced)
	}
}

// TestFracShortensStreams: requests with a partial watch fraction hold
// their streams for proportionally fewer rounds, so a VCR-heavy load
// completes more streams inside the window than a lean-back load of the
// same arrivals.
func TestFracShortensStreams(t *testing.T) {
	cfg := workloadConfig(t)
	src, err := workload.NewPoissonSource(cfg.ArrivalRate, cfg.Duration,
		workload.UniformSelector{N: cfg.Catalog.Len()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	full := workload.Collect(src)
	cfg.ArrivalRate = 0
	cfg.Source = workload.NewSliceSource(full)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	short := make([]workload.Request, len(full))
	copy(short, full)
	for i := range short {
		short[i].Frac = 0.25
	}
	cfg.Source = workload.NewSliceSource(short)
	quick, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if quick.Completed <= base.Completed {
		t.Fatalf("quarter-length streams completed %d, full-length %d",
			quick.Completed, base.Completed)
	}
	// Extremes: Frac 0 and ≥ 1 both mean the whole clip; tiny fractions
	// still hold the stream for at least a round.
	if got := streamRounds(10, 0); got != 10 {
		t.Fatalf("streamRounds(10, 0) = %d, want 10", got)
	}
	if got := streamRounds(10, 1.5); got != 10 {
		t.Fatalf("streamRounds(10, 1.5) = %d, want 10", got)
	}
	if got := streamRounds(10, 0.001); got != 1 {
		t.Fatalf("streamRounds(10, 0.001) = %d, want 1", got)
	}
	if got := streamRounds(10, 0.25); got != 3 {
		t.Fatalf("streamRounds(10, 0.25) = %d, want 3 (ceil)", got)
	}
}

// TestTimelineAccounting: bucket sums reconcile with the run totals and
// the bucket boundaries tile the horizon.
func TestTimelineAccounting(t *testing.T) {
	cfg := workloadConfig(t)
	cfg.Patience = 5 * units.Second
	cfg.ArrivalRate = 60
	cfg.Timeline = &TimelineConfig{Bucket: 30 * units.Second}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 10 {
		t.Fatalf("%d buckets over 300 s / 30 s, want ≥ 10", len(res.Timeline))
	}
	var offered, admitted, rejected int
	for i, b := range res.Timeline {
		if want := units.Duration(i) * 30 * units.Second; b.Start != want {
			t.Fatalf("bucket %d starts at %v, want %v", i, b.Start, want)
		}
		offered += b.Offered
		admitted += b.Admitted
		rejected += b.Rejected
		if b.NodeActive != nil || b.ViewVersion != 0 {
			t.Fatalf("single-array bucket has cluster fields: %+v", b)
		}
	}
	if admitted != res.Serviced {
		t.Fatalf("bucket admitted %d != serviced %d", admitted, res.Serviced)
	}
	if rejected != res.Rejected || rejected == 0 {
		t.Fatalf("bucket rejected %d, result %d, want equal and > 0", rejected, res.Rejected)
	}
	if offered < admitted+rejected {
		t.Fatalf("offered %d < admitted %d + rejected %d", offered, admitted, rejected)
	}
	// A second run reproduces the timeline exactly.
	cfg2 := workloadConfig(t)
	cfg2.Patience = 5 * units.Second
	cfg2.ArrivalRate = 60
	cfg2.Timeline = &TimelineConfig{Bucket: 30 * units.Second}
	again, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Timeline, again.Timeline) {
		t.Fatal("timeline not reproducible from the same seed")
	}

	// Bucket width must be positive when a timeline is requested.
	bad := workloadConfig(t)
	bad.Timeline = &TimelineConfig{}
	if _, err := Run(bad); err == nil {
		t.Error("accepted zero timeline bucket width")
	}
}

// TestSourceSingleUse: a consumed source cannot feed a second run.
func TestSourceConfigValidation(t *testing.T) {
	cfg := workloadConfig(t)
	cfg.ArrivalRate = 0
	if _, err := Run(cfg); err == nil {
		t.Error("accepted config with no workload at all")
	}
}
