package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs a few rounds, two cycles and two plays of every
// workload, untraced and traced, with output verification on, and checks
// that each run reports exactly the metrics the catalogue declares for
// it.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			if traced {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "trace.json")
				r, err := workloads[w](params{
					root: root, seed: 1, seconds: 1, traced: traced, smoke: true,
					processStart: time.Now(), spanFile: spans,
				})
				if err != nil {
					t.Fatal(err)
				}
				if r.Error != "" || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("verification: error=%q attempted=%d failed=%d", r.Error, r.Attempted, r.Failed)
				}
				for _, m := range catalogue {
					_, got := r.Metrics[m.Name]
					switch {
					case got && !m.on(w):
						t.Errorf("metric %s reported, but not declared for %s", m.Name, w)
					case !got && m.on(w) && (traced || m.Class != classLayer):
						t.Errorf("metric %s not reported", m.Name)
					}
				}
				var line struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil {
					t.Fatal(err)
				}
				for _, m := range catalogue {
					if _, ok := line.Metrics[m.Name]; ok != ((m.Class != classEndToEnd) == traced) {
						t.Errorf("contract line has %s: %v", m.Name, ok)
					}
				}
				if traced {
					var doc struct{ TraceEvents []map[string]any }
					b, err := os.ReadFile(spans)
					if err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
						t.Fatalf("span file: %d events, %v", len(doc.TraceEvents), err)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the catalogue: same workloads
// with the same reasons, same metrics with the same unit, direction and
// bound.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadWhy) {
		t.Errorf("workloads differ:\n json %v\n code %v", doc.Workloads, workloadWhy)
	}
	var e2e, layer []metric
	for _, m := range catalogue {
		row := metric{Name: m.Name, Unit: m.Unit, Better: m.Better}
		if m.Class == classEndToEnd {
			bound := m.Bound
			row.Bound = &bound
			e2e = append(e2e, row)
		} else {
			layer = append(layer, row)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, e2e) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(doc.PerLayer, layer) {
		t.Errorf("per_layer differs from the catalogue")
		for i := range layer {
			if i >= len(doc.PerLayer) || doc.PerLayer[i] != layer[i] {
				t.Errorf("first difference at %d: code %+v", i, layer[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
}
