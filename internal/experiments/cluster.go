package experiments

import (
	"fmt"

	"ftcms/internal/analytic"
	"ftcms/internal/diskmodel"
	"ftcms/internal/parallel"
	"ftcms/internal/sim"
	"ftcms/internal/trace"
	"ftcms/internal/units"
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

// ClusterSweepConfig parameterizes the sweep. The zero value of any
// field selects the documented default.
type ClusterSweepConfig struct {
	// Buffer is each node's RAM buffer (default 128 MB).
	Buffer units.Bits
	// NodeCounts are the cluster sizes to sweep (default 1, 2, 4).
	NodeCounts []int
	// Replications are the replication factors to sweep (default 1, 2);
	// cells with replication > nodes are skipped.
	Replications []int
	// ArrivalRate is the cluster-wide Poisson arrival rate (default 5/s,
	// low enough that failover capacity exists on survivors).
	ArrivalRate float64
	// Duration is the simulated horizon (default 120 s). The faulted run
	// kills node 0 at Duration/2.
	Duration units.Duration
	// Seed drives all randomness (default 1).
	Seed int64
}

func (c ClusterSweepConfig) withDefaults() ClusterSweepConfig {
	if c.Buffer <= 0 {
		c.Buffer = 128 * units.MB
	}
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 2, 4}
	}
	if len(c.Replications) == 0 {
		c.Replications = []int{1, 2}
	}
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 5
	}
	if c.Duration <= 0 {
		c.Duration = 120 * units.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ClusterSweep runs E14: sim.RunCluster over the (nodes, replication)
// grid, healthy and with a mid-run node failure, on the paper's catalog
// with 16-disk declustered nodes. Cells run in parallel.
func ClusterSweep(cfg ClusterSweepConfig) ([]ClusterPoint, error) {
	cfg = cfg.withDefaults()
	catalog := PaperCatalog()
	type cell struct{ nodes, rep int }
	var grid []cell
	for _, n := range cfg.NodeCounts {
		for _, r := range cfg.Replications {
			if r <= n {
				grid = append(grid, cell{n, r})
			}
		}
	}
	return parallel.Map(len(grid), 0, func(k int) (ClusterPoint, error) {
		c := grid[k]
		base := sim.ClusterConfig{
			Node: sim.Config{
				Scheme:      analytic.Declustered,
				Disk:        diskmodel.Default(),
				D:           16,
				P:           4,
				Buffer:      cfg.Buffer,
				Catalog:     catalog,
				ArrivalRate: cfg.ArrivalRate,
				Duration:    cfg.Duration,
				Seed:        cfg.Seed,
			},
			Nodes:       c.nodes,
			Replication: c.rep,
		}
		healthy, err := sim.RunCluster(base)
		if err != nil {
			return ClusterPoint{}, fmt.Errorf("cluster sweep n=%d rep=%d: %w", c.nodes, c.rep, err)
		}
		faulted := base
		faulted.NodeTrace = []sim.FailureEvent{{Disk: 0, At: cfg.Duration / 2}}
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
