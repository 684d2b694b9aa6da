package trace_test

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"ftcms/internal/experiments"
	"ftcms/internal/scheme"
	"ftcms/internal/trace"
	"ftcms/internal/units"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestWriteFigure5CSV(t *testing.T) {
	points, err := experiments.Figure5(256 * units.MB)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, experiments.Figure5Columns, points); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != len(points)+1 {
		t.Fatalf("%d rows, want %d", len(rows), len(points)+1)
	}
	if rows[0][0] != "scheme" || rows[0][5] != "block_bits" {
		t.Fatalf("header %v", rows[0])
	}
	for i, pt := range points {
		if rows[i+1][0] != pt.Scheme.Legend() {
			t.Fatalf("row %d scheme %q", i, rows[i+1][0])
		}
	}
}

func TestWriteFigure6CSV(t *testing.T) {
	points := []experiments.Figure6Point{
		{Scheme: scheme.Declustered, P: 4, Serviced: 100, PeakActive: 12, MeanResponse: 1.5},
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, experiments.Figure6Columns, points); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 2 || rows[1][2] != "100" || rows[1][4] != "1.500000" {
		t.Fatalf("rows %v", rows)
	}
}

func TestWriteContinuityCSV(t *testing.T) {
	points := []experiments.ContinuityPoint{
		{Scheme: scheme.NonClustered, P: 8, Peak: 140, Opened: 1495, Overflows: 7, Lost: 2, RebuildRounds: -1},
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, experiments.ContinuityColumns, points); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if rows[1][5] != "7" || rows[1][6] != "2" || rows[1][7] != "none" {
		t.Fatalf("rows %v", rows)
	}
}

func TestWriteRebuildCSV(t *testing.T) {
	points, err := experiments.RebuildAblation(256 * units.MB)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, experiments.RebuildColumns, points); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != len(points)+1 {
		t.Fatalf("%d rows, want %d", len(rows), len(points)+1)
	}
}

// failWriter fails after n bytes, exercising the error paths.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFail
	}
	take := len(p)
	if take > f.n {
		take = f.n
	}
	f.n -= take
	if take < len(p) {
		return take, errFail
	}
	return take, nil
}

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestWriteErrorsPropagate(t *testing.T) {
	f5 := []experiments.Figure5Point{{Scheme: scheme.Declustered, P: 4, Clips: 1, Q: 1, F: 1, Block: 8}}
	f6 := []experiments.Figure6Point{{Scheme: scheme.Declustered, P: 4, Serviced: 1}}
	cont := []experiments.ContinuityPoint{{Scheme: scheme.Declustered, P: 4}}
	reb := []experiments.RebuildPoint{{Scheme: scheme.Declustered, P: 4, Rebuild: 1, MTTDL: 1}}
	for _, n := range []int{0, 10} {
		if err := trace.WriteCSV(&failWriter{n: n}, experiments.Figure5Columns, f5); err == nil {
			t.Errorf("Figure5 n=%d: error swallowed", n)
		}
		if err := trace.WriteCSV(&failWriter{n: n}, experiments.Figure6Columns, f6); err == nil {
			t.Errorf("Figure6 n=%d: error swallowed", n)
		}
		if err := trace.WriteCSV(&failWriter{n: n}, experiments.ContinuityColumns, cont); err == nil {
			t.Errorf("Continuity n=%d: error swallowed", n)
		}
		if err := trace.WriteCSV(&failWriter{n: n}, experiments.RebuildColumns, reb); err == nil {
			t.Errorf("Rebuild n=%d: error swallowed", n)
		}
	}
}

func TestWriteClusterCSV(t *testing.T) {
	points := []experiments.ClusterPoint{
		{Nodes: 3, Replication: 2, Serviced: 900, PeakActive: 120,
			MeanResponse: units.Duration(0.25), FaultServiced: 850, FailedOver: 30, LostStreams: 2},
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, experiments.ClusterColumns, points); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0][0] != "nodes" || rows[0][7] != "lost_streams" {
		t.Fatalf("header %v", rows[0])
	}
	if rows[1][0] != "3" || rows[1][6] != "30" {
		t.Fatalf("row %v", rows[1])
	}
}

func TestWriteCorruptionCSV(t *testing.T) {
	points := []experiments.CorruptionPoint{
		{Rate: -1, Injected: 40, Detected: 40, Repaired: 40, MeanDetection: 7.7, Sweeps: 48, Blocks: 1344, Exact: 2},
		{Rate: 2, Injected: 40, Detected: 21, Repaired: 21, MeanDetection: 300, Sweeps: 0, Blocks: 1344, Exact: 2},
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, experiments.CorruptionColumns, points); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	if rows[0][0] != "scrub_rate" || rows[0][5] != "sweeps" {
		t.Fatalf("header %v", rows[0])
	}
	if rows[1][0] != "-1" || rows[1][2] != "40" || rows[2][3] != "21" {
		t.Fatalf("rows %v", rows[1:])
	}
	for _, n := range []int{0, 10} {
		if err := trace.WriteCSV(&failWriter{n: n}, experiments.CorruptionColumns, points); err == nil {
			t.Errorf("Corruption n=%d: error swallowed", n)
		}
	}
}
