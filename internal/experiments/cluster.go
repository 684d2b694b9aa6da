package experiments

import (
	"fmt"

	"ftcms/internal/diskmodel"
	"ftcms/internal/parallel"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/trace"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// ClusterPoint is one (nodes, replication) cell of the cluster sweep
// (E14): the same workload run once healthy and once with a node killed
// mid-run, so the cost of replication (less distinct content capacity)
// can be weighed against what it buys (streams that survive the
// failure).
type ClusterPoint struct {
	Nodes       int
	Replication int
	// Serviced and PeakActive are the healthy run's throughput.
	Serviced     int
	PeakActive   int
	MeanResponse units.Duration
	// FaultServiced is the throughput with one node failing mid-run.
	FaultServiced int
	// FailedOver and LostStreams split the failed node's in-flight
	// streams into survivors and casualties.
	FailedOver  int
	LostStreams int
}

// ClusterSweepConfig parameterizes E14 and E19. The zero value of any
// field selects the documented default.
type ClusterSweepConfig struct {
	// Buffer is each node's RAM buffer (default 128 MB).
	Buffer units.Bits
	// Seed drives all randomness (default 1).
	Seed int64
}

// E14's grid and load: cells with replication > nodes are skipped; the
// cluster-wide Poisson arrival rate is low enough that failover capacity
// exists on survivors; the faulted run kills node 0 at half time.
var (
	clusterNodeCounts   = []int{1, 2, 4}
	clusterReplications = []int{1, 2}
)

const (
	clusterArrivalRate = 5.0
	clusterDuration    = 120 * units.Second
)

func (c ClusterSweepConfig) withDefaults() ClusterSweepConfig {
	if c.Buffer <= 0 {
		c.Buffer = 128 * units.MB
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// node is the sweeps' node template: a 16-disk declustered array under a
// cluster-wide Poisson load.
func (c ClusterSweepConfig) node(catalog *workload.Catalog, rate float64, duration units.Duration) sim.Config {
	return sim.Config{
		Scheme:      scheme.Declustered,
		Disk:        diskmodel.Default(),
		D:           16,
		P:           4,
		Buffer:      c.Buffer,
		Catalog:     catalog,
		ArrivalRate: rate,
		Duration:    duration,
		Seed:        c.Seed,
	}
}

// ClusterSweep runs E14: sim.RunCluster over the (nodes, replication)
// grid, healthy and with a mid-run node failure, on the paper's catalog
// with 16-disk declustered nodes. Cells run in parallel.
func ClusterSweep(cfg ClusterSweepConfig) ([]ClusterPoint, error) {
	cfg = cfg.withDefaults()
	catalog := PaperCatalog()
	type cell struct{ nodes, rep int }
	var grid []cell
	for _, n := range clusterNodeCounts {
		for _, r := range clusterReplications {
			if r <= n {
				grid = append(grid, cell{n, r})
			}
		}
	}
	return parallel.Map(len(grid), func(k int) (ClusterPoint, error) {
		c := grid[k]
		base := sim.ClusterConfig{
			Node:        cfg.node(catalog, clusterArrivalRate, clusterDuration),
			Nodes:       c.nodes,
			Replication: c.rep,
		}
		healthy, err := sim.RunCluster(base)
		if err != nil {
			return ClusterPoint{}, fmt.Errorf("cluster sweep n=%d rep=%d: %w", c.nodes, c.rep, err)
		}
		faulted := base
		faulted.NodeTrace = []sim.FailureEvent{{Disk: 0, At: clusterDuration / 2}}
		fres, err := sim.RunCluster(faulted)
		if err != nil {
			return ClusterPoint{}, fmt.Errorf("cluster sweep n=%d rep=%d (faulted): %w", c.nodes, c.rep, err)
		}
		return ClusterPoint{
			Nodes:         c.nodes,
			Replication:   c.rep,
			Serviced:      healthy.Serviced,
			PeakActive:    healthy.PeakActive,
			MeanResponse:  healthy.MeanResponse,
			FaultServiced: fres.Serviced,
			FailedOver:    fres.FailedOver,
			LostStreams:   fres.LostStreams,
		}, nil
	})
}

// ClusterColumns is E14's table; the mean response is CSV-only.
var ClusterColumns = []trace.Column[ClusterPoint]{
	trace.Col("nodes", "nodes", func(pt ClusterPoint) any { return pt.Nodes }),
	trace.Col("replication", "rep", func(pt ClusterPoint) any { return pt.Replication }),
	trace.Col("serviced", "serviced", func(pt ClusterPoint) any { return pt.Serviced }),
	trace.Col("peak_active", "peak", func(pt ClusterPoint) any { return pt.PeakActive }),
	trace.Seconds("mean_response_s", "", func(pt ClusterPoint) units.Duration { return pt.MeanResponse }),
	trace.Col("fault_serviced", "fault serviced", func(pt ClusterPoint) any { return pt.FaultServiced }),
	trace.Col("failed_over", "failed over", func(pt ClusterPoint) any { return pt.FailedOver }),
	trace.Col("lost_streams", "lost", func(pt ClusterPoint) any { return pt.LostStreams }),
}
