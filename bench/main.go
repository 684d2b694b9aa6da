// Command bench is the repository's benchmark: round-deadline serving
// measured end to end and layer by layer. See README.md in this
// directory for the workloads, the metric glossary and how to read the
// output.
//
// With -workload it runs one workload in this process and ends its output
// with one JSON line (the driver's contract). Without, it runs every
// workload in a child process of its own — so that peak RSS and GC state
// do not leak from one to the next — first untraced, then traced at
// quarter length, and writes bench/out/results.json and one span file per
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

var workloads = map[string]func(params) (*result, error){
	wlSteady:  runSteady,
	wlRebuild: runRebuild,
	wlChurn:   runChurn,
	wlSocket:  runSocket,
}

func main() {
	processStart := time.Now()
	workload := flag.String("workload", "", "run only this workload, in this process (steady, rebuild, churn, socket)")
	seed := flag.Int64("seed", 1, "workload seed: clip bytes and clip picks derive from it")
	seconds := flag.Int("seconds", 15, "amount of work: each workload runs seconds x its nominal rate")
	trace := flag.Int("trace", 0, "with -workload: 1 records spans, replays the layers and reports per-layer metrics")
	repeat := flag.Int("repeat", 1, "without -workload: run this many full sets and check their spread against the bounds")
	out := flag.String("o", "", "write the result record here (default bench/out/results.json for a full set)")
	flag.Parse()

	if err := run(processStart, *workload, *seed, *seconds, *trace != 0, *repeat, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(processStart time.Time, workload string, seed int64, seconds int, traced bool, repeat int, out string) error {
	if seconds < 1 || flag.NArg() > 0 || repeat < 1 {
		return fmt.Errorf("usage: bench [-workload name] [-seed n] [-seconds s>=1] [-trace 0|1] [-repeat n>=1] [-o file]")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	if workload == "" {
		if out == "" {
			out = filepath.Join(outDir, "results.json")
		}
		return runSets(seed, seconds, repeat, out)
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames())
	}
	p := params{root: root, seed: seed, seconds: seconds, traced: traced, processStart: processStart}
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		p.spanFile = filepath.Join(outDir, workload+".trace.json")
	}
	r, err := fn(p)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	r.Correct = r.Error == ""
	r.print(os.Stdout)
	if out != "" {
		if err := writeJSON(out, r); err != nil {
			return err
		}
	}
	if !r.Correct {
		return fmt.Errorf("%s: output verification failed: %s", workload, r.Error)
	}
	fmt.Println(r.contractLine())
	return nil
}

// set is one full run of every workload, untraced and traced.
type set struct {
	Untraced map[string]*result `json:"untraced"`
	Traced   map[string]*result `json:"traced"`
}

// runSets runs repeat full sets, each workload in a child process, writes
// them to out and, for repeat > 1, checks every bounded metric's spread.
func runSets(seed int64, seconds, repeat int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(out), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	child := func(workload string, traced bool) (*result, error) {
		file := filepath.Join(tmp, "result.json")
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", trace, "-o", file)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %s): %w", workload, trace, err)
		}
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		r := &result{}
		return r, json.Unmarshal(b, r)
	}

	var sets []set
	for i := 0; i < repeat; i++ {
		s := set{map[string]*result{}, map[string]*result{}}
		for _, traced := range []bool{false, true} {
			for _, w := range workloadNames() {
				r, err := child(w, traced)
				if err != nil {
					return err
				}
				if traced {
					s.Traced[w] = r
				} else {
					s.Untraced[w] = r
				}
			}
		}
		sets = append(sets, s)
	}
	if err := writeJSON(out, sets); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if repeat == 1 {
		return nil
	}
	return checkSpread(sets)
}

// checkSpread prints, per bounded metric and workload, each run's value,
// the median, and the worst pairwise difference in the bound's terms. It
// fails when any difference exceeds its bound.
func checkSpread(sets []set) error {
	exceeded := 0
	fmt.Printf("\n%-10s %-24s %12s %10s %8s  runs\n", "workload", "metric", "median", "worst", "bound")
	for _, w := range workloadNames() {
		for _, m := range catalogue {
			if m.Class == classLayer || !m.on(w) {
				continue
			}
			var vals []float64
			for _, s := range sets {
				vals = append(vals, s.Untraced[w].Metrics[m.Name].Value)
			}
			worst := 0.0
			for _, a := range vals {
				for _, b := range vals {
					if d := m.worse(a, b); d > worst {
						worst = d
					}
				}
			}
			flag := ""
			if worst > m.Bound {
				flag = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-10s %-24s %12.6g %10.4f %8.3f  %v%s\n", w, m.Name, median(vals), worst, m.Bound, vals, flag)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metrics differ between runs of the same code by more than their bound", exceeded)
	}
	return nil
}
