package experiments

import (
	"fmt"

	"ftcms/internal/parallel"
	"ftcms/internal/sim"
	"ftcms/internal/trace"
	"ftcms/internal/units"
)

// ReconfigPoint is one arrival-rate cell of the E19 elastic-
// reconfiguration sweep: drain a node mid-run (prime time, streams in
// flight) and measure what the graceful leave costs — with and without
// a replacement node joined first.
type ReconfigPoint struct {
	// ArrivalRate is the cell's Poisson arrival rate.
	ArrivalRate float64
	// Baseline is the throughput with no reconfiguration.
	Baseline int
	// Serviced, MigratedStreams, LostStreams and DrainRounds describe
	// the drain-only run: node 1 drains at half time. DrainRounds is the
	// drain-start→retirement gap in rounds (-1: never completed).
	Serviced        int
	MigratedStreams int
	LostStreams     int
	DrainRounds     int64
	// JoinServiced and JoinDrainRounds repeat the drain with a
	// replacement node joined a quarter of the way in — the planned
	// hardware-swap shape (join, re-replicate, then drain).
	JoinServiced    int
	JoinDrainRounds int64
	// ViewVersion is the drain-only run's final view version.
	ViewVersion int64
}

// E19's cluster and load axis: quiet night through saturated prime time
// on three nodes at replication 2; the join fires a quarter of the way
// in and the drain at half time.
var reconfigArrivalRates = []float64{2, 5, 10, 20}

const (
	reconfigNodes, reconfigReplication = 3, 2
	reconfigDuration                   = 120 * units.Second
)

// drainRounds extracts the drain-start→retirement gap for node.
func drainRounds(res sim.ClusterResult, node int) int64 {
	pn := res.PerNode[node]
	if pn.DrainRound < 0 || pn.RetiredRound < 0 {
		return -1
	}
	return pn.RetiredRound - pn.DrainRound
}

// ReconfigSweep runs E19 on E14's node shape: sim.RunCluster over the
// arrival-rate axis, three runs per cell — baseline, drain-under-load,
// and join-then-drain — on the paper's catalog with 16-disk declustered
// nodes, each with the given buffer. Cells run in parallel.
func ReconfigSweep(buffer units.Bits, seed int64) ([]ReconfigPoint, error) {
	catalog := PaperCatalog()
	return parallel.Map(len(reconfigArrivalRates), func(k int) (ReconfigPoint, error) {
		rate := reconfigArrivalRates[k]
		base := sim.ClusterConfig{
			Node:        clusterNode(buffer, seed, catalog, rate, reconfigDuration),
			Nodes:       reconfigNodes,
			Replication: reconfigReplication,
		}
		healthy, err := sim.RunCluster(base)
		if err != nil {
			return ReconfigPoint{}, fmt.Errorf("reconfig sweep λ=%g: %w", rate, err)
		}
		drained := base
		drained.ViewTrace = []sim.ViewEvent{{Kind: "drain", Node: 1, At: reconfigDuration / 2}}
		dres, err := sim.RunCluster(drained)
		if err != nil {
			return ReconfigPoint{}, fmt.Errorf("reconfig sweep λ=%g (drain): %w", rate, err)
		}
		swapped := base
		swapped.ViewTrace = []sim.ViewEvent{
			{Kind: "join", At: reconfigDuration / 4},
			{Kind: "drain", Node: 1, At: reconfigDuration / 2},
		}
		sres, err := sim.RunCluster(swapped)
		if err != nil {
			return ReconfigPoint{}, fmt.Errorf("reconfig sweep λ=%g (join+drain): %w", rate, err)
		}
		return ReconfigPoint{
			ArrivalRate:     rate,
			Baseline:        healthy.Serviced,
			Serviced:        dres.Serviced,
			MigratedStreams: dres.MigratedStreams,
			LostStreams:     dres.LostStreams,
			DrainRounds:     drainRounds(dres, 1),
			JoinServiced:    sres.Serviced,
			JoinDrainRounds: drainRounds(sres, 1),
			ViewVersion:     dres.ViewVersion,
		}, nil
	})
}

// unfinished renders a drain-rounds cell: -1 (the CSV's value for a drain
// that never completed) reads "unfinished" in the text table.
func unfinished(rounds int64) any {
	if rounds < 0 {
		return "unfinished"
	}
	return rounds
}

// ReconfigColumns is E19's table; the final view version is CSV-only.
var ReconfigColumns = []trace.Column[ReconfigPoint]{
	trace.Col("arrival_rate", "λ/s", func(pt ReconfigPoint) any { return pt.ArrivalRate }),
	trace.Col("baseline", "baseline", func(pt ReconfigPoint) any { return pt.Baseline }),
	trace.Col("drained", "drained", func(pt ReconfigPoint) any { return pt.Serviced }),
	trace.Col("migrated", "migrated", func(pt ReconfigPoint) any { return pt.MigratedStreams }),
	trace.Col("lost", "lost", func(pt ReconfigPoint) any { return pt.LostStreams }),
	{CSV: "drain_rounds", Title: "drain rounds",
		Value: func(pt ReconfigPoint) any { return pt.DrainRounds },
		Text:  func(pt ReconfigPoint) any { return unfinished(pt.DrainRounds) }},
	trace.Col("join_drained", "+join drained", func(pt ReconfigPoint) any { return pt.JoinServiced }),
	{CSV: "join_drain_rounds", Title: "+join drain rounds",
		Value: func(pt ReconfigPoint) any { return pt.JoinDrainRounds },
		Text:  func(pt ReconfigPoint) any { return unfinished(pt.JoinDrainRounds) }},
	trace.Col("view_version", "", func(pt ReconfigPoint) any { return pt.ViewVersion }),
}
