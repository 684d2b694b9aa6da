package scenario

import (
	"reflect"
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

const smallDay = `{
	"name": "small-day", "subscribers": 40000, "time_scale": 480,
	"zipf": 1.1, "patience_min": 8, "bucket_min": 60,
	"mix": {"vcr_share": 0.3, "pause": 0.25, "early_stop": 0.35, "resume_min": 20},
	"phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 20.5, "min_frac": 0.1},
		{"kind": "flashcrowd", "start_hour": 20, "end_hour": 21, "multiplier": 4, "clip": 0},
		{"kind": "maintenance", "action": "fail", "node": 1, "hour": 19.75},
		{"kind": "maintenance", "action": "join", "hour": 20},
		{"kind": "maintenance", "action": "drain", "node": 2, "hour": 3}
	]
}`

// TestRunClusterScenario drives the full pipeline on a small cluster
// day: arrivals stream in, maintenance fires, and the timeline accounts
// every offered request.
func TestRunClusterScenario(t *testing.T) {
	c := mustCompile(t, smallDay)
	res, err := Run(RunConfig{Scenario: c, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerNode) < 3 {
		t.Fatalf("default run should be a three-node cluster, got %d nodes", len(res.PerNode))
	}
	if res.Name != "small-day" {
		t.Fatalf("result name %q", res.Name)
	}
	if res.Serviced == 0 || res.Offered == 0 {
		t.Fatalf("no traffic: offered %d serviced %d", res.Offered, res.Serviced)
	}
	// 24 one-hour buckets over the compressed day.
	if len(res.Timeline) != 24 {
		t.Fatalf("%d timeline buckets, want 24", len(res.Timeline))
	}
	var offered, admitted, rejected int
	for _, b := range res.Timeline {
		offered += b.Offered
		admitted += b.Admitted
		rejected += b.Rejected
		if len(b.NodeActive) == 0 {
			t.Fatal("cluster bucket missing per-node active counts")
		}
	}
	if offered != res.Offered {
		t.Fatalf("bucket offered %d != result offered %d", offered, res.Offered)
	}
	// Every offered request is admitted, rejected, or still pending at
	// close (the pending tail is bounded by patience).
	if admitted+rejected > offered {
		t.Fatalf("admitted %d + rejected %d exceed offered %d", admitted, rejected, offered)
	}
	if admitted != res.Serviced {
		t.Fatalf("bucket admitted %d vs serviced %d", admitted, res.Serviced)
	}
	if rejected != res.Rejected {
		t.Fatalf("bucket rejected %d != result rejected %d", rejected, res.Rejected)
	}
	// The scripted maintenance all took effect: one node failure, one
	// join, one drain, and a view version bump for each transition.
	if res.NodeFailures != 1 || res.Joins != 1 || res.Drains != 1 {
		t.Fatalf("failures/joins/drains = %d/%d/%d, want 1/1/1",
			res.NodeFailures, res.Joins, res.Drains)
	}
	if res.ViewVersion < 2 {
		t.Fatalf("view version %d after join+drain, want ≥ 2", res.ViewVersion)
	}
	// The view version lands in the timeline buckets too.
	if last := res.Timeline[len(res.Timeline)-1]; last.ViewVersion != res.ViewVersion {
		t.Fatalf("last bucket view %d, final view %d", last.ViewVersion, res.ViewVersion)
	}
}

// TestRunSingleArrayScenario: Nodes == 1 selects the single-array engine:
// one node, no per-node results, the profile's timeline.
func TestRunSingleArrayScenario(t *testing.T) {
	c := mustCompile(t, `{
		"name": "one-array", "subscribers": 200, "time_scale": 60,
		"zipf": 1.1, "patience_min": 8, "bucket_min": 120
	}`)
	res, err := Run(RunConfig{Scenario: c, Seed: 2, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerNode != nil || res.NodeFailures != 0 {
		t.Fatalf("Nodes=1 should run one array, not a cluster: %+v", res.ClusterResult)
	}
	if res.Serviced == 0 {
		t.Fatal("no clips serviced")
	}
	if len(res.Timeline) != 12 {
		t.Fatalf("%d buckets, want 12", len(res.Timeline))
	}
}

// TestRunSingleArrayRejectsClusterMaintenance: every maintenance action
// acts on a node, so a single array refuses each one alike.
func TestRunSingleArrayRejectsClusterMaintenance(t *testing.T) {
	for _, action := range []string{ActionFail, ActionRestart, ActionDrain, ActionJoin, ActionAddDisk} {
		c := mustCompile(t, `{
			"name": "bad", "subscribers": 1000,
			"phases": [{"kind": "maintenance", "action": "`+action+`", "node": 0, "hour": 6}]
		}`)
		want := `scenario: maintenance action "` + action + `" needs a cluster (nodes > 1)`
		if _, err := Run(RunConfig{Scenario: c, Seed: 1, Nodes: 1}); err == nil || err.Error() != want {
			t.Errorf("single array with %s: %v, want %s", action, err, want)
		}
	}
}

// TestRunDeterminism: the full pipeline — source, engines, timeline —
// reproduces bit-identically from the same seed.
func TestRunDeterminism(t *testing.T) {
	c1 := mustCompile(t, smallDay)
	a, err := Run(RunConfig{Scenario: c1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c2 := mustCompile(t, smallDay)
	b, err := Run(RunConfig{Scenario: c2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged between runs:\n%+v\n%+v", a, b)
	}
}

// TestRunPatienceRejects: a profile whose demand far exceeds one node
// sheds load through abandonment instead of queueing forever.
func TestRunPatienceRejects(t *testing.T) {
	c := mustCompile(t, `{
		"name": "overload", "subscribers": 150000, "time_scale": 480,
		"patience_min": 30, "bucket_min": 120
	}`)
	res, err := Run(RunConfig{Scenario: c, Seed: 3, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("overloaded array rejected nothing despite patience bound")
	}
	if res.MaxQueue > res.Offered {
		t.Fatalf("queue %d exceeds offered %d", res.MaxQueue, res.Offered)
	}
}

// TestFlagshipScenarioAtScale is the acceptance run: the builtin
// primetime-flashcrowd-rebuild day at one million subscribers streams
// through the cluster engine and reproduces its timeline exactly from
// the same seed.
func TestFlagshipScenarioAtScale(t *testing.T) {
	run := func() Result {
		t.Helper()
		res, err := Run(RunConfig{Scenario: builtin(t, "primetime-flashcrowd-rebuild"), Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Rounds == 0 {
		t.Fatal("no rounds simulated")
	}
	// One million subscribers × 2 sessions/day through the diurnal curve
	// offer ≈1.2M session starts plus pause resumes; the engines must see
	// seven figures of offered demand.
	if res.Offered < 1000000 {
		t.Fatalf("offered %d requests, want ≥ 1e6 at a million subscribers", res.Offered)
	}
	if res.Serviced == 0 || res.Rejected == 0 {
		t.Fatalf("flagship day: serviced %d rejected %d, want both > 0", res.Serviced, res.Rejected)
	}
	if res.NodeFailures != 1 || res.Joins != 1 || res.Drains != 1 || res.DiskAdds != 1 {
		t.Fatalf("maintenance not applied: %+v", res.ClusterResult)
	}
	if len(res.Timeline) != 96 {
		t.Fatalf("%d buckets, want 96 (15-minute buckets over 24 h)", len(res.Timeline))
	}
	// Same seed → identical timeline, the acceptance determinism bar.
	again := run()
	if !reflect.DeepEqual(res.Timeline, again.Timeline) {
		t.Fatal("flagship timeline not reproducible from the same seed")
	}
	if res.Serviced != again.Serviced || res.Rejected != again.Rejected {
		t.Fatalf("flagship totals diverged: %d/%d vs %d/%d",
			res.Serviced, res.Rejected, again.Serviced, again.Rejected)
	}
}

// TestActionsAreViewEventKinds: Run hands drain/join/adddisk to the
// simulator by name, so each must be a kind RunCluster's validation knows.
func TestActionsAreViewEventKinds(t *testing.T) {
	c := mustCompile(t, `{"name": "kinds", "subscribers": 200, "time_scale": 240, "zipf": 1.1, "patience_min": 8, "bucket_min": 120, "phases": [
		{"kind": "maintenance", "action": "`+ActionJoin+`", "hour": 1},
		{"kind": "maintenance", "action": "`+ActionAddDisk+`", "node": 0, "hour": 2},
		{"kind": "maintenance", "action": "`+ActionDrain+`", "node": 1, "hour": 3}]}`)
	if res, err := Run(RunConfig{Scenario: c}); err != nil || res.Joins+res.DiskAdds+res.Drains != 3 {
		t.Fatalf("joins/diskadds/drains = %d/%d/%d, err %v", res.Joins, res.DiskAdds, res.Drains, err)
	}
}

// TestFlashCrowd (E22): a 30-second flash crowd is absorbed without
// admission-control breakdown — the queue drains after the spike, the
// starvation-free pending list keeps serving, and the response-time
// penalty is bounded by the burst backlog. The day is the paper's 32-disk
// array for 300 s at 5 requests/s; the crowd triples that from t = 100 s
// to 130 s, its excess on clip 0. From a fourfold crowd on, more than the
// pending list's bypass window (256) of clip-0 requests block its head and
// the crowd serves fewer clips than the calm day (EXPERIMENTS.md, E22).
func TestFlashCrowd(t *testing.T) {
	run := func(phases string) sim.Result {
		t.Helper()
		c := mustCompile(t, `{"name": "e22", "subscribers": 750, "time_scale": 288, "phases": [`+phases+`]}`)
		catalog, err := workload.UniformCatalog(c.Profile.CatalogSize, 50*units.Second, 1.5*units.Mbps)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewSource(c, catalog.Clip(0).Length, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Scheme: scheme.Declustered, Disk: diskmodel.Default(), D: 32, P: 4,
			Buffer: 256 * units.MB, Catalog: catalog, Duration: c.Duration(),
			Seed: 1, Source: src,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	crowd := run(`{"kind": "flashcrowd", "start_hour": 8, "end_hour": 10.4, "multiplier": 3, "clip": 0}`)
	calm := run("")
	if crowd.Serviced <= calm.Serviced {
		t.Fatalf("flash crowd serviced %d <= calm load %d (extra demand absorbed nothing)",
			crowd.Serviced, calm.Serviced)
	}
	if crowd.MaxQueue <= calm.MaxQueue {
		t.Fatalf("flash crowd queue %d not above calm %d", crowd.MaxQueue, calm.MaxQueue)
	}
	if crowd.MeanResponse <= calm.MeanResponse {
		t.Fatalf("flash crowd response %v not above calm %v", crowd.MeanResponse, calm.MeanResponse)
	}
}
