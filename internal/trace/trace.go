// Package trace serializes experiment results as CSV so the figures can
// be re-plotted outside Go. Columns are stable — each writer's header is
// the comma-separated string it passes to writeCSV — and all writers emit
// a header row.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"ftcms/internal/experiments"
	"ftcms/internal/units"
)

// writeCSV emits the comma-separated header, then one record per point:
// row returns the point's column values in header order, each rendered
// with fmt.Sprint (so floats print as %g and Stringers by name; columns
// needing a fixed precision arrive pre-formatted as strings).
func writeCSV[T any](w io.Writer, header string, points []T, row func(T) []any) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(strings.Split(header, ",")); err != nil {
		return err
	}
	for _, pt := range points {
		vals := row(pt)
		rec := make([]string, len(vals))
		for i, v := range vals {
			rec[i] = fmt.Sprint(v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// secs renders a duration as seconds with microsecond precision.
func secs(d units.Duration) string { return fmt.Sprintf("%.6f", d.Seconds()) }

// WriteFigure5CSV emits the Figure 5 capacity points.
func WriteFigure5CSV(w io.Writer, points []experiments.Figure5Point) error {
	return writeCSV(w, "scheme,p,clips,q,f,block_bits", points, func(pt experiments.Figure5Point) []any {
		return []any{pt.Scheme, pt.P, pt.Clips, pt.Q, pt.F, int64(pt.Block)}
	})
}

// WriteFigure6CSV emits the Figure 6 simulation points.
func WriteFigure6CSV(w io.Writer, points []experiments.Figure6Point) error {
	return writeCSV(w, "scheme,p,serviced,peak_active,mean_response_s", points, func(pt experiments.Figure6Point) []any {
		return []any{pt.Scheme, pt.P, pt.Serviced, pt.PeakActive, secs(pt.MeanResponse)}
	})
}

// WriteContinuityCSV emits the E10 failure-continuity points.
func WriteContinuityCSV(w io.Writer, points []experiments.ContinuityPoint) error {
	return writeCSV(w, "scheme,p,serviced,deadline_misses,lost_blocks", points, func(pt experiments.ContinuityPoint) []any {
		return []any{pt.Scheme, pt.P, pt.Serviced, pt.DeadlineMisses, pt.LostBlocks}
	})
}

// WriteClusterCSV emits the E14 cluster-scaling points.
func WriteClusterCSV(w io.Writer, points []experiments.ClusterPoint) error {
	return writeCSV(w, "nodes,replication,serviced,peak_active,mean_response_s,fault_serviced,failed_over,lost_streams",
		points, func(pt experiments.ClusterPoint) []any {
			return []any{pt.Nodes, pt.Replication, pt.Serviced, pt.PeakActive, secs(pt.MeanResponse),
				pt.FaultServiced, pt.FailedOver, pt.LostStreams}
		})
}

// WriteViewCSV emits the E19 elastic-reconfiguration-under-load points.
// Unfinished drains report -1 rounds.
func WriteViewCSV(w io.Writer, points []experiments.ReconfigPoint) error {
	return writeCSV(w, "arrival_rate,baseline,drained,migrated,lost,drain_rounds,join_drained,join_drain_rounds,view_version",
		points, func(pt experiments.ReconfigPoint) []any {
			return []any{pt.ArrivalRate, pt.Baseline, pt.Serviced, pt.MigratedStreams, pt.LostStreams,
				pt.DrainRounds, pt.JoinServiced, pt.JoinDrainRounds, pt.ViewVersion}
		})
}

// WriteCorruptionCSV emits the E17 scrub-rate sweep.
func WriteCorruptionCSV(w io.Writer, points []experiments.CorruptionPoint) error {
	return writeCSV(w, "scrub_rate,serviced,injected,detected,repaired,mean_detection_s,sweeps",
		points, func(pt experiments.CorruptionPoint) []any {
			return []any{pt.Rate, pt.Serviced, pt.Injected, pt.Detected, pt.Repaired, secs(pt.MeanDetection), pt.Sweeps}
		})
}

// WriteDoubleFaultCSV emits the E18 double-failure sweep.
func WriteDoubleFaultCSV(w io.Writer, points []experiments.DoubleFaultPoint) error {
	return writeCSV(w, "scheme,streams,completed,lost,hiccups,lost_blocks,rebuilds_done,rebuild_rounds_sim,rebuild_rounds_model",
		points, func(pt experiments.DoubleFaultPoint) []any {
			return []any{pt.Scheme, pt.Streams, pt.Completed, pt.Lost, pt.Hiccups, pt.LostBlocks,
				pt.RebuildsDone, pt.MeasuredRebuild, pt.AnalyticRebuild}
		})
}

// WriteRebuildCSV emits the E11 rebuild-time ablation.
func WriteRebuildCSV(w io.Writer, points []experiments.RebuildPoint) error {
	return writeCSV(w, "scheme,p,rebuild_s,mttdl_hours", points, func(pt experiments.RebuildPoint) []any {
		return []any{pt.Scheme, pt.P, fmt.Sprintf("%.3f", pt.Rebuild.Seconds()), fmt.Sprintf("%.6g", float64(pt.MTTDL))}
	})
}

// WriteAutopilotCSV emits the E21 closed-vs-open-loop sweep.
func WriteAutopilotCSV(w io.Writer, points []experiments.AutopilotPoint) error {
	return writeCSV(w, "multiplier,offered,open_serviced,open_rejected,open_lost,closed_serviced,closed_rejected,closed_shed,closed_lost,actions,joins",
		points, func(pt experiments.AutopilotPoint) []any {
			return []any{pt.Multiplier, pt.Offered, pt.OpenServiced, pt.OpenRejected, pt.OpenLost,
				pt.ClosedServiced, pt.ClosedRejected, pt.ClosedShed, pt.ClosedLost, pt.Actions, pt.Joins}
		})
}

// WriteScenarioCSV emits the E20 flash-crowd sweep.
func WriteScenarioCSV(w io.Writer, points []experiments.ScenarioPoint) error {
	return writeCSV(w, "multiplier,offered,serviced,rejected,peak_active,failed_over,lost_streams,view_version",
		points, func(pt experiments.ScenarioPoint) []any {
			return []any{pt.Multiplier, pt.Offered, pt.Serviced, pt.Rejected, pt.PeakActive,
				pt.FailedOver, pt.LostStreams, pt.ViewVersion}
		})
}
