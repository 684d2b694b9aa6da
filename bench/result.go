package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// params is what one workload run is given. The seed reaches the program
// under test only as generated clip bytes and clip picks.
type params struct {
	root    string // checkout root: cmcluster is built from here
	seed    int64
	seconds int
	traced  bool
	// smoke shrinks every workload to a few rounds for the test suite.
	smoke bool
	// processStart is when this process began; the first set-up is timed
	// from it.
	processStart time.Time
	// spanFile, when non-empty, is where a traced run writes its spans.
	spanFile string
}

// scale turns the workload's nominal rate into an amount of work. Runs
// are work-bounded: the same seconds give the same rounds, cycles or
// plays on every commit, so counters repeat exactly. perSecond is sized
// so that the measured phase lasts about p.seconds on the seed commit; a
// traced run does a quarter of it.
func (p params) scale(perSecond, smoke int) int {
	if p.smoke {
		return smoke
	}
	n := perSecond * p.seconds
	if p.traced {
		n /= 4
	}
	if n < smoke {
		n = smoke
	}
	return n
}

// setups is how many times a run sets its workload up: n, or once under
// the test suite. setup_s is the median and the last set-up is the one
// measured. Cheap set-ups are repeated more often.
func (p params) setups(n int) int {
	if p.smoke {
		return 1
	}
	return n
}

// result is one run of one workload.
type result struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	// Correct is false when output verification failed; Error says how.
	Correct bool   `json:"correct"`
	Error   string `json:"error,omitempty"`
	// Attempted counts stream-rounds in which a block was due (plays on
	// socket); Failed those that delivered nothing, short or wrong data.
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Notes     []string         `json:"notes,omitempty"`
}

func newResult(workload string, p params) *result {
	return &result{
		Workload: workload,
		Traced:   p.traced,
		Env:      newEnvironment(p.root, p.seed, p.seconds),
		Metrics:  map[string]value{},
	}
}

// set records a metric. The unit comes from the catalogue; a name the
// catalogue lacks, or one not declared for this workload, is a bug in
// the harness.
func (r *result) set(name string, v float64, n int) {
	for _, m := range catalogue {
		if m.Name == name {
			if !m.on(r.Workload) {
				panic(fmt.Sprintf("bench: metric %s is not declared for workload %s", name, r.Workload))
			}
			r.Metrics[name] = value{Value: v, Unit: m.Unit, N: n}
			return
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setGo records the Go runtime's counters for the harness process over
// the measured phase.
func (r *result) setGo(before, after goCounters) {
	r.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles), 0)
	r.set("go.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6, 0)
	r.set("go.heap_mb", float64(after.heapBytes)/(1<<20), 0)
}

// print writes every reported metric by name with its unit.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d seconds=%d nproc=%d GOMAXPROCS=%d %s commit=%s connections=%d\n",
		r.Workload, mode, r.Env.Seed, r.Env.Seconds, r.Env.NProc, r.Env.GOMAXPROCS,
		r.Env.GoVersion, r.Env.Commit, r.Env.Connections)
	for _, note := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", note)
	}
	for _, m := range catalogue {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		class := [...]string{"end-to-end", "end-to-end*", "layer"}[m.Class]
		samples := ""
		if v.N > 0 {
			samples = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(w, "   %-32s %16.6g %-6s %-12s %s\n", m.Name, v.Value, v.Unit, class, samples)
	}
	fmt.Fprintf(w, "   verification: correct=%v attempted=%d failed=%d %s\n", r.Correct, r.Attempted, r.Failed, r.Error)
}

// contractLine is the last line of a driver run: exactly the keys
// correct, attempted, failed and metrics, the metrics being every
// end_to_end metric for an untraced run and every per_layer metric for a
// traced one. A per_layer metric the workload does not have reads 0.
func (r *result) contractLine() string {
	type kv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]kv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]kv{}}
	for _, m := range catalogue {
		if (m.Class == classEndToEnd) == r.Traced {
			continue
		}
		out.Metrics[m.Name] = kv{r.Metrics[m.Name].Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain struct of numbers and strings
	return string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
