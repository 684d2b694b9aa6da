package sim

import (
	"reflect"
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

func clusterBase(t *testing.T) ClusterConfig {
	t.Helper()
	return ClusterConfig{
		Node: Config{
			Scheme:      scheme.Declustered,
			Disk:        diskmodel.Default(),
			D:           16,
			P:           4,
			Buffer:      128 * units.MB,
			Catalog:     paperCatalog(t),
			ArrivalRate: 20,
			Duration:    120 * units.Second,
			Seed:        1,
		},
		Nodes:       3,
		Replication: 2,
	}
}

func TestRunClusterValidation(t *testing.T) {
	base := clusterBase(t)

	bad := base
	bad.Nodes = 0
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted zero nodes")
	}
	bad = base
	bad.Replication = 4
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted replication > nodes")
	}
	bad = base
	bad.Node.Catalog = nil
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted nil catalog")
	}
	bad = base
	bad.Node.Duration = 0
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted zero duration")
	}
	bad = base
	bad.NodeTrace = []NodeFailure{{Node: 9, At: units.Second}}
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted out-of-range trace node")
	}
}

// A healthy cluster services more than one node alone: the cluster-level
// router turns extra nodes into extra admission capacity.
func TestRunClusterScalesCapacity(t *testing.T) {
	base := clusterBase(t)

	single := base
	single.Nodes = 1
	single.Replication = 1
	one, err := RunCluster(single)
	if err != nil {
		t.Fatal(err)
	}
	three, err := RunCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	if three.Serviced <= one.Serviced {
		t.Fatalf("3 nodes serviced %d, 1 node %d — no capacity gain", three.Serviced, one.Serviced)
	}
	var perNode int
	for i, n := range three.PerNode {
		if n.Serviced == 0 {
			t.Errorf("node %d serviced nothing", i)
		}
		perNode += n.Serviced
	}
	if perNode != three.Serviced {
		t.Fatalf("per-node serviced %d != cluster %d", perNode, three.Serviced)
	}
	if three.NodeFailures != 0 || three.FailedOver != 0 || three.LostStreams != 0 {
		t.Fatalf("healthy run reported failures: %+v", three)
	}
}

// Run is the round loop at one node: for every scheme, with and without
// patience, it returns exactly the embedded Result of a one-node
// RunCluster — every shared field and every timeline bucket — less the
// per-node timeline column a single array does not report.
func TestRunMatchesOneNodeCluster(t *testing.T) {
	for _, s := range scheme.Paper() {
		for _, patience := range []units.Duration{0, 2 * units.Second} {
			base := clusterBase(t)
			base.Nodes, base.Replication = 1, 1
			base.Node.Scheme = s
			base.Node.Patience = patience
			base.Node.Timeline = &TimelineConfig{Bucket: 10 * units.Second}

			single, err := Run(base.Node)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := RunCluster(base)
			if err != nil {
				t.Fatal(err)
			}
			if single.Serviced == 0 || len(single.Timeline) == 0 {
				t.Fatalf("%v: degenerate run %+v", s, single)
			}
			for i := range cl.Timeline {
				if got := cl.Timeline[i].NodeActive; len(got) != 1 || got[0] != cl.Timeline[i].Active {
					t.Fatalf("%v: bucket %d NodeActive = %v, want [%d]", s, i, got, cl.Timeline[i].Active)
				}
				cl.Timeline[i].NodeActive = nil
			}
			if !reflect.DeepEqual(single, cl.Result) {
				t.Fatalf("%v patience %v: Run diverges from a one-node cluster:\nRun        %+v\nRunCluster %+v",
					s, patience, single, cl.Result)
			}
		}
	}
}

func TestRunClusterNodeFailureFailsOver(t *testing.T) {
	base := clusterBase(t)
	// Moderate load: failover capacity only exists if the survivors'
	// controllers are not already saturated.
	base.Node.ArrivalRate = 5
	base.NodeTrace = []NodeFailure{{Node: 1, At: 60 * units.Second}}

	res, err := RunCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeFailures != 1 {
		t.Fatalf("NodeFailures = %d, want 1", res.NodeFailures)
	}
	if res.PerNode[1].FailRound < 0 {
		t.Fatal("node 1 never recorded its failure round")
	}
	if res.FailedOver == 0 {
		t.Fatal("replication 2 with a mid-run node failure moved no streams")
	}
	var absorbed int
	for i, n := range res.PerNode {
		if i == 1 && n.FailedOverIn != 0 {
			t.Fatalf("dead node absorbed %d failovers", n.FailedOverIn)
		}
		absorbed += n.FailedOverIn
	}
	if absorbed != res.FailedOver {
		t.Fatalf("absorbed %d != FailedOver %d", absorbed, res.FailedOver)
	}
	// Every in-flight stream on the dead node either moved or was lost;
	// with replication 2 the survivors usually have room, so losses stay
	// a minority.
	if res.LostStreams > res.FailedOver {
		t.Fatalf("lost %d > failed over %d — failover barely worked", res.LostStreams, res.FailedOver)
	}

	// Unreplicated: the same failure must lose streams instead.
	noRep := base
	noRep.Replication = 1
	res1, err := RunCluster(noRep)
	if err != nil {
		t.Fatal(err)
	}
	if res1.FailedOver != 0 {
		t.Fatalf("replication 1 failed over %d streams", res1.FailedOver)
	}
	if res1.LostStreams == 0 {
		t.Fatal("replication 1 node failure lost nothing")
	}
}

func TestRunClusterRestartRejoins(t *testing.T) {
	base := clusterBase(t)
	down := base
	down.NodeTrace = []NodeFailure{{Node: 0, At: 30 * units.Second}}
	restart := base
	restart.NodeTrace = []NodeFailure{{Node: 0, At: 30 * units.Second, Restart: true}}

	dres, err := RunCluster(down)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := RunCluster(restart)
	if err != nil {
		t.Fatal(err)
	}
	// The restarting node keeps admitting after the failure round; the
	// permanently down one cannot, so the restart run services at least
	// as many streams (strictly more under this load).
	if rres.Serviced <= dres.Serviced {
		t.Fatalf("restart serviced %d, permanent-down %d — rejoin had no effect", rres.Serviced, dres.Serviced)
	}
	if rres.PerNode[0].FailRound < 0 || dres.PerNode[0].FailRound < 0 {
		t.Fatal("failure round not recorded")
	}
}

// A scripted drain moves streams to active replicas instead of losing
// them, retires the node, and bumps the view on every transition.
func TestRunClusterViewTraceDrain(t *testing.T) {
	base := clusterBase(t)
	base.Node.ArrivalRate = 5
	base.ViewTrace = []ViewEvent{{Kind: "drain", Node: 1, At: 60 * units.Second}}

	res, err := RunCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drains != 1 {
		t.Fatalf("Drains = %d, want 1", res.Drains)
	}
	if res.PerNode[1].DrainRound < 0 {
		t.Fatal("drain round not recorded")
	}
	if res.Retired != 1 || res.PerNode[1].RetiredRound < res.PerNode[1].DrainRound {
		t.Fatalf("node 1 never retired: %+v", res.PerNode[1])
	}
	if res.MigratedStreams == 0 {
		t.Fatal("drain under load migrated no streams")
	}
	if res.LostStreams != 0 {
		t.Fatalf("graceful drain lost %d streams", res.LostStreams)
	}
	// Drain + retirement: at least two view bumps.
	if res.ViewVersion < 2 {
		t.Fatalf("ViewVersion = %d, want >= 2", res.ViewVersion)
	}
}

// A join adds admission capacity: under an overloaded arrival rate the
// joined cluster services strictly more streams.
func TestRunClusterViewTraceJoin(t *testing.T) {
	base := clusterBase(t)
	base.Node.ArrivalRate = 40 // saturating

	plain, err := RunCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	joined := base
	joined.ViewTrace = []ViewEvent{{Kind: "join", At: 10 * units.Second}}
	jres, err := RunCluster(joined)
	if err != nil {
		t.Fatal(err)
	}
	if jres.Joins != 1 {
		t.Fatalf("Joins = %d, want 1", jres.Joins)
	}
	if len(jres.PerNode) != 4 {
		t.Fatalf("PerNode = %d entries, want 4", len(jres.PerNode))
	}
	if jres.PerNode[3].Serviced == 0 {
		t.Fatal("joined node serviced nothing under saturation")
	}
	if jres.Serviced <= plain.Serviced {
		t.Fatalf("join added no capacity: %d vs %d serviced", jres.Serviced, plain.Serviced)
	}
}

// AddDisk grows a node's admission capacity after its re-layout delay.
func TestRunClusterViewTraceAddDisk(t *testing.T) {
	base := clusterBase(t)
	base.Node.ArrivalRate = 40 // saturating

	plain, err := RunCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	grown := base
	grown.ViewTrace = []ViewEvent{
		{Kind: "adddisk", Node: 0, At: 5 * units.Second},
		{Kind: "adddisk", Node: 1, At: 5 * units.Second},
		{Kind: "adddisk", Node: 2, At: 5 * units.Second},
	}
	gres, err := RunCluster(grown)
	if err != nil {
		t.Fatal(err)
	}
	if gres.DiskAdds != 3 {
		t.Fatalf("DiskAdds = %d, want 3", gres.DiskAdds)
	}
	if gres.Serviced <= plain.Serviced {
		t.Fatalf("adddisk added no capacity: %d vs %d serviced", gres.Serviced, plain.Serviced)
	}
	if gres.ViewVersion != 3 {
		t.Fatalf("ViewVersion = %d, want 3 (one per flip)", gres.ViewVersion)
	}
}

func TestRunClusterViewTraceValidation(t *testing.T) {
	base := clusterBase(t)
	bad := base
	bad.ViewTrace = []ViewEvent{{Kind: "shrink", At: units.Second}}
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted unknown view event kind")
	}
	bad = base
	bad.ViewTrace = []ViewEvent{{Kind: "drain", Node: -1, At: units.Second}}
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted negative node")
	}
	bad = base
	bad.ViewTrace = []ViewEvent{{Kind: "drain", Node: 0, At: -units.Second}}
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted negative event time")
	}
}

// TestRunAllocsPerRequest pins the round loop's allocation cost on the
// Figure 6 node shape (declustered, d=32, p=4, 256 MB, 20 req/s, 600 s):
// a serviced request costs its stream record and its share of the
// completion buckets and response samples — routing allocates nothing,
// at one node or at several.
func TestRunAllocsPerRequest(t *testing.T) {
	base := clusterBase(t)
	base.Node.D, base.Node.Buffer = 32, 256*units.MB
	base.Node.Duration, base.Node.Seed = 600*units.Second, 7
	for _, tc := range []struct {
		nodes, rep int
		budget     float64
	}{{1, 1, 3}, {3, 2, 4}} {
		cfg := base
		cfg.Nodes, cfg.Replication = tc.nodes, tc.rep
		var res ClusterResult
		allocs := testing.AllocsPerRun(1, func() {
			var err error
			if res, err = RunCluster(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if res.Serviced == 0 {
			t.Fatalf("%d nodes: nothing serviced", tc.nodes)
		}
		if per := allocs / float64(res.Serviced); per > tc.budget {
			t.Errorf("%d nodes rep %d: %.0f allocations for %d serviced requests = %.2f each, budget %.0f",
				tc.nodes, tc.rep, allocs, res.Serviced, per, tc.budget)
		} else {
			t.Logf("%d nodes rep %d: %.2f allocations per serviced request", tc.nodes, tc.rep, per)
		}
	}
}
