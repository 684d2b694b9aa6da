package trace_test

import (
	"bytes"
	"io"
	"testing"

	"ftcms/internal/core"
	"ftcms/internal/experiments"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/trace"
)

// TestGoldenOutputs pins every writer's exact bytes — header, column
// order and per-column formatting — for one fixed input each, so a
// change to the shared CSV plumbing cannot move a column unnoticed.
func TestGoldenOutputs(t *testing.T) {
	buckets := []sim.TimelineBucket{
		{Start: 1.5, Offered: 10, Admitted: 8, Rejected: 2, Shed: 3, Actions: 1,
			Active: 40, Queue: 5, ViewVersion: 2, NodeActive: []int{20, 15, 5}},
		{Start: 3, Offered: 4, Admitted: 4, Active: 44},
	}
	for _, tc := range []struct {
		name  string
		write func(io.Writer) error
		want  string
	}{
		{"Figure5", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.Figure5Columns, []experiments.Figure5Point{
				{Scheme: scheme.Declustered, P: 4, Clips: 1000, Q: 20, F: 3, Block: 524288}})
		}, "scheme,p,clips,q,f,block_bits\nDeclustered parity,4,1000,20,3,524288\n"},
		{"Figure6", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.Figure6Columns, []experiments.Figure6Point{
				{Scheme: scheme.PrefetchFlat, P: 8, Serviced: 100, PeakActive: 12, MeanResponse: 1.5}})
		}, "scheme,p,serviced,peak_active,mean_response_s\nPre-fetching without parity disk,8,100,12,1.500000\n"},
		{"Continuity", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.ContinuityColumns, []experiments.ContinuityPoint{
				{Scheme: scheme.NonClustered, P: 8, Peak: 140, Opened: 1495, Overflows: 12, RebuildRounds: 7},
				{Scheme: scheme.StreamingRAID, P: 8, Peak: 84, Opened: 5523, Hiccups: 1, Lost: 2, RebuildRounds: -1}})
		}, "scheme,p,peak_streams,opened,hiccups,overflows,streams_lost,rebuild_rounds\n" +
			"Non-clustered,8,140,1495,0,12,0,7\nStreaming RAID,8,84,5523,1,0,2,none\n"},
		{"Cluster", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.ClusterColumns, []experiments.ClusterPoint{
				{Nodes: 3, Replication: 2, Serviced: 900, PeakActive: 120, MeanResponse: 0.25,
					FaultServiced: 850, FailedOver: 30, LostStreams: 2}})
		}, "nodes,replication,serviced,peak_active,mean_response_s,fault_serviced,failed_over,lost_streams\n" +
			"3,2,900,120,0.250000,850,30,2\n"},
		{"View", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.ReconfigColumns, []experiments.ReconfigPoint{
				{ArrivalRate: 2.5, Baseline: 300, Serviced: 290, MigratedStreams: 12, LostStreams: 0,
					DrainRounds: -1, JoinServiced: 295, JoinDrainRounds: 44, ViewVersion: 3}})
		}, "arrival_rate,baseline,drained,migrated,lost,drain_rounds,join_drained,join_drain_rounds,view_version\n" +
			"2.5,300,290,12,0,-1,295,44,3\n"},
		{"Corruption", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.CorruptionColumns, []experiments.CorruptionPoint{
				{Rate: -1, Injected: 40, Detected: 39, Repaired: 38, MeanDetection: 7.25,
					Sweeps: 3, Blocks: 1344, Exact: 2, Hiccups: 1, Failures: 0}})
		}, "scrub_rate,injected,detected,repaired,mean_detection_rounds,sweeps,sweep_blocks,exact_streams,hiccups,failed_disks\n" +
			"-1,40,39,38,7.2,3,1344,2,1,0\n"},
		{"DoubleFault", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.DoubleFaultColumns, []experiments.DoubleFaultPoint{
				{Scheme: core.DeclusteredPQ, Streams: 24, Completed: 23, Lost: 1, Hiccups: 2,
					LostBlocks: 5, RebuildsDone: 2, MeasuredRebuild: 310, AnalyticRebuild: 300}})
		}, "scheme,streams,completed,lost,hiccups,lost_blocks,rebuilds_done,rebuild_rounds_sim,rebuild_rounds_model\n" +
			"declustered-pq,24,23,1,2,5,2,310,300\n"},
		{"Rebuild", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.RebuildColumns, []experiments.RebuildPoint{
				{Scheme: scheme.Declustered, P: 4, Rebuild: 1234.5678, MTTDL: 1.23456789e9}})
		}, "scheme,p,rebuild_s,mttdl_hours\nDeclustered parity,4,1234.568,1.23457e+09\n"},
		{"TimelineCSV", func(w io.Writer) error { return trace.WriteTimelineCSV(w, buckets) },
			"start_s,offered,admitted,rejected,shed,actions,active,queue,view_version,node_active\n" +
				"1.500000,10,8,2,3,1,40,5,2,20;15;5\n" +
				"3.000000,4,4,0,0,0,44,0,0,\n"},
		{"TimelineJSON", func(w io.Writer) error { return trace.WriteTimelineJSON(w, buckets) },
			`[
  {
    "start_s": 1.5,
    "offered": 10,
    "admitted": 8,
    "rejected": 2,
    "shed": 3,
    "actions": 1,
    "active": 40,
    "queue": 5,
    "view_version": 2,
    "node_active": [
      20,
      15,
      5
    ]
  },
  {
    "start_s": 3,
    "offered": 4,
    "admitted": 4,
    "rejected": 0,
    "active": 44,
    "queue": 0
  }
]
`},
		{"Autopilot", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.AutopilotColumns, []experiments.AutopilotPoint{
				{Multiplier: 4, Offered: 5000, OpenServiced: 4000, OpenRejected: 900, OpenLost: 7,
					ClosedServiced: 4500, ClosedRejected: 300, ClosedShed: 150, ClosedLost: 0,
					Actions: 6, Joins: 2}})
		}, "multiplier,offered,open_serviced,open_rejected,open_lost,closed_serviced,closed_rejected,closed_shed,closed_lost,actions,joins\n" +
			"4,5000,4000,900,7,4500,300,150,0,6,2\n"},
		{"Scenario", func(w io.Writer) error {
			return trace.WriteCSV(w, experiments.ScenarioColumns, []experiments.ScenarioPoint{
				{Multiplier: 0.5, Offered: 5000, Serviced: 4000, Rejected: 900, PeakActive: 210,
					FailedOver: 33, LostStreams: 4, ViewVersion: 5}})
		}, "multiplier,offered,serviced,rejected,peak_active,failed_over,lost_streams,view_version\n" +
			"0.5,5000,4000,900,210,33,4,5\n"},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
		// Every writer reports a failing sink instead of swallowing it.
		for _, n := range []int{0, 10} {
			if err := tc.write(&failWriter{n: n}); err == nil {
				t.Errorf("%s: write error after %d bytes swallowed", tc.name, n)
			}
		}
	}
}

// TestTextLayouts pins the two text layouts on a column list that has a
// CSV-only column, a text-only column and a Text override, so each kind
// of column lands in the outputs it names and nowhere else.
func TestTextLayouts(t *testing.T) {
	type point struct {
		scheme string
		p, n   int
	}
	cols := []trace.Column[point]{
		trace.Col("scheme", "scheme", func(pt point) any { return pt.scheme }),
		trace.Col("p", "p", func(pt point) any { return pt.p }),
		{CSV: "n", Title: "count",
			Value: func(pt point) any { return pt.n },
			Text: func(pt point) any {
				if pt.n < 0 {
					return "none"
				}
				return pt.n
			}},
		trace.Col("double", "", func(pt point) any { return 2 * pt.n }),
		trace.Col("", "half", func(pt point) any { return pt.n / 2 }),
	}
	points := []point{{"a", 2, 10}, {"a", 4, -1}, {"long name", 2, 30}, {"long name", 4, 40}}
	for _, tc := range []struct {
		name  string
		write func(io.Writer) error
		want  string
	}{
		{"CSV", func(w io.Writer) error { return trace.WriteCSV(w, cols, points) },
			"scheme,p,n,double\na,2,10,20\na,4,-1,-2\nlong name,2,30,60\nlong name,4,40,80\n"},
		{"Text", func(w io.Writer) error { return trace.WriteText(w, "caption", cols, points) },
			"caption\n" +
				"scheme     p  count  half\n" +
				"a          2  10     5\n" +
				"a          4  none   0\n" +
				"long name  2  30     15\n" +
				"long name  4  40     20\n"},
		{"Pivot", func(w io.Writer) error { return trace.WritePivot(w, "caption", cols, points) },
			"caption\n" +
				"scheme     p=2  p=4\n" +
				"a          10   none\n" +
				"long name  30   40\n"},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
		for _, n := range []int{0, 10} {
			if err := tc.write(&failWriter{n: n}); err == nil {
				t.Errorf("%s: write error after %d bytes swallowed", tc.name, n)
			}
		}
	}
}
