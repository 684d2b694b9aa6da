package main

import (
	"math"
	"sort"
)

// Workload names are fixed: later issues cite them.
const (
	wlSteady  = "steady"
	wlRebuild = "rebuild"
	wlChurn   = "churn"
	wlSocket  = "socket"
)

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json
// carries the same text and the smoke test compares the two.
var workloadWhy = []struct{ Name, Why string }{
	{wlSteady, "4000 healthy streams on one array: per-stream bookkeeping does the work, parity none"},
	{wlRebuild, "fail, rebuild, rejoin cycles: reconstruction and failure handling do the work, bookkeeping little"},
	{wlChurn, "short Zipf sessions on a 4-node cluster: routing, admission and session lifecycle do the work"},
	{wlSocket, "cmcluster over loopback TCP at 1 ms rounds: lock, poll and write path; storage layers should not move it"},
}

func workloadNames() []string {
	out := make([]string, len(workloadWhy))
	for i, w := range workloadWhy {
		out[i] = w.Name
	}
	return out
}

// metricClass says where a metric is listed in BENCHMARK.json.
type metricClass int

const (
	// classEndToEnd metrics are defined on every workload and never zero;
	// the driver bounds them.
	classEndToEnd metricClass = iota
	// classHeadline metrics are user-visible too, but defined on some
	// workloads only or legitimately zero. The contract's end_to_end list
	// cannot hold them, so BENCHMARK.json lists them under per_layer and
	// -repeat checks them against the bound given here.
	classHeadline
	// classLayer metrics belong to one module and have no bound.
	classLayer
)

// metricDef is one row of the metric catalogue. It is the single source
// of names, units and bounds: the printer, -repeat, the contract output
// and the test against BENCHMARK.json all read it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Class  metricClass
	// Bound is the allowed worsening: a share of the reference value, or
	// an absolute amount when Abs is set. Zero for classLayer.
	Bound float64
	Abs   bool
	// On lists the workloads that report the metric; nil means all.
	On []string
}

var catalogue = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Class: classEndToEnd, Bound: 0.25},
	{Name: "round_p50_ms", Unit: "ms", Better: "lower", Class: classEndToEnd, Bound: 0.25},
	{Name: "round_p95_ms", Unit: "ms", Better: "lower", Class: classEndToEnd, Bound: 0.25},
	{Name: "stream_rounds_per_s", Unit: "1/s", Better: "higher", Class: classEndToEnd, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Class: classEndToEnd, Bound: 0.15},

	{Name: "miss_ratio", Unit: "ratio", Better: "lower", Class: classHeadline, Bound: 0.005, Abs: true},
	{Name: "delivered_mb_per_s", Unit: "MB/s", Better: "higher", Class: classHeadline, Bound: 0.25},
	{Name: "fail_round_p50_ms", Unit: "ms", Better: "lower", Class: classHeadline, Bound: 0.25, On: []string{wlRebuild}},
	{Name: "rebuild_p50_s", Unit: "s", Better: "lower", Class: classHeadline, Bound: 0.25, On: []string{wlRebuild}},
	{Name: "sessions_per_s", Unit: "1/s", Better: "higher", Class: classHeadline, Bound: 0.25, On: []string{wlChurn}},
	{Name: "open_p50_us", Unit: "us", Better: "lower", Class: classHeadline, Bound: 0.25, On: []string{wlChurn}},
	{Name: "reject_ratio", Unit: "ratio", Better: "lower", Class: classHeadline, Bound: 0.005, Abs: true, On: []string{wlChurn}},
	{Name: "ttfb_p50_ms", Unit: "ms", Better: "lower", Class: classHeadline, Bound: 0.25, On: []string{wlSocket}},
	{Name: "ttfb_p95_ms", Unit: "ms", Better: "lower", Class: classHeadline, Bound: 0.25, On: []string{wlSocket}},
	{Name: "play_stretch_p50", Unit: "ratio", Better: "lower", Class: classHeadline, Bound: 0.05, On: []string{wlSocket}},

	{Name: "core.tick_ns_per_sr", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "core.read_ns_per_sr", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "core.allocs_per_round", Unit: "count", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "core.alloc_bytes_per_round", Unit: "B", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "core.round_p99_ms", Unit: "ms", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "core.round_max_ms", Unit: "ms", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},

	{Name: "layout.place_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "sched.charge_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "health.readinto_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "storage.readinto_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "integrity.sum_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "mem.copy_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "storage.self_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "health.self_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},
	{Name: "core.unattributed_ns_per_sr", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlSteady, wlRebuild}},

	{Name: "core.faildisk_ms", Unit: "ms", Better: "lower", Class: classLayer, On: []string{wlRebuild}},
	{Name: "core.rebuild_rounds", Unit: "count", Better: "lower", Class: classLayer, On: []string{wlRebuild}},
	{Name: "core.rebuild_reads_per_round", Unit: "count", Better: "higher", Class: classLayer, On: []string{wlRebuild}},
	{Name: "recovery.xor_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlRebuild}},
	{Name: "recovery.reconstruct_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlRebuild}},
	{Name: "storage.write_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlRebuild}},

	{Name: "cluster.open_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlChurn}},
	{Name: "core.open_close_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlChurn}},
	{Name: "cluster.route_overhead_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlChurn}},
	{Name: "admission.admit_release_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlChurn}},
	{Name: "cluster.close_ns", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlChurn}},
	{Name: "cluster.tick_ns_per_sr", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlChurn}},
	{Name: "cluster.read_ns_per_sr", Unit: "ns", Better: "lower", Class: classLayer, On: []string{wlChurn}},
	{Name: "cluster.open_p99_us", Unit: "us", Better: "lower", Class: classLayer, On: []string{wlChurn}},
	{Name: "cluster.opens", Unit: "count", Better: "higher", Class: classLayer, On: []string{wlChurn}},
	{Name: "cluster.rejects", Unit: "count", Better: "lower", Class: classLayer, On: []string{wlChurn}},

	{Name: "cmcluster.tick_p50_us", Unit: "us", Better: "lower", Class: classLayer, On: []string{wlSocket}},
	{Name: "cmcluster.rounds_per_s", Unit: "1/s", Better: "higher", Class: classLayer, On: []string{wlSocket}},
	{Name: "cmcluster.cpu_ms_per_mb", Unit: "ms/MB", Better: "lower", Class: classLayer, On: []string{wlSocket}},
	{Name: "cmcluster.node_hiccups", Unit: "count", Better: "lower", Class: classLayer, On: []string{wlSocket}},
	{Name: "client.connect_us", Unit: "us", Better: "lower", Class: classLayer, On: []string{wlSocket}},
	{Name: "client.block_gap_p50_ms", Unit: "ms", Better: "lower", Class: classLayer, On: []string{wlSocket}},
	{Name: "client.block_gap_p99_ms", Unit: "ms", Better: "lower", Class: classLayer, On: []string{wlSocket}},

	{Name: "parallel.tick_speedup", Unit: "ratio", Better: "higher", Class: classLayer, On: []string{wlSteady}},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Class: classLayer},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Class: classLayer},
	{Name: "go.heap_mb", Unit: "MB", Better: "lower", Class: classLayer},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Class: classLayer},
	{Name: "harness.overhead_ns_per_round", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "verify.delivered_bytes", Unit: "B", Better: "higher", Class: classLayer},
}

func (m metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// worse returns by how much got is worse than ref, in the unit the
// metric's bound is stated in: a share of ref, or an absolute amount.
func (m metricDef) worse(ref, got float64) float64 {
	d := got - ref
	if m.Better == "higher" {
		d = -d
	}
	if m.Abs {
		return d
	}
	if ref == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / math.Abs(ref)
}

// value is one reported number. N is the sample count behind a median or
// percentile (0 for counters and ratios of counters).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// quantile returns the q-quantile of v by nearest rank, 0 for no values.
// It sorts a copy: callers keep their time order.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// The machines this runs on share their cores and memory system with
// other tenants: their speed moves by 10-20 % for seconds to minutes at a
// time, in both the compute-bound and the memory-bound parts of a round
// alike. Interference only ever slows a stretch of the run down, so every
// timing is taken per short window of the measured phase and the
// lower-quartile window is reported (the upper-quartile window for a
// rate): the run's estimate of the quiet machine, which still needs a
// quarter of the run to have been that quiet. Against taking the
// statistic over all rounds at once this cut the run-to-run spread of
// p95 from 19 % to 3-5 % on the seed box, and that of p50 from 5 % to 4 %;
// what is left is the machine changing between runs, which no statistic
// inside one run can remove, and is why the bounds are wide.
const quietWindow = 40 // samples per window

func windowCount(n int) int { return max(n/quietWindow, 1) }

// quietQuantile takes the q-quantile of each window of a time-ordered
// series and returns the lower-quartile window's.
func quietQuantile(series []float64, q float64) float64 {
	w := windowCount(len(series))
	per := make([]float64, w)
	for k := range per {
		per[k] = quantile(series[k*len(series)/w:(k+1)*len(series)/w], q)
	}
	return quantile(per, 0.25)
}

// roundLog records, per measured round, when it started and ended (ns on
// the run's clock) and how many blocks it delivered.
type roundLog struct {
	start, end []int64
	delivered  []int64
}

func newRoundLog(rounds int) roundLog {
	return roundLog{
		start:     make([]int64, 0, rounds),
		end:       make([]int64, 0, rounds),
		delivered: make([]int64, 0, rounds),
	}
}

func (l *roundLog) add(start, end, delivered int64) {
	l.start = append(l.start, start)
	l.end = append(l.end, end)
	l.delivered = append(l.delivered, delivered)
}

func (l *roundLog) rounds() int { return len(l.start) }

// walls returns each round's wall time in ms, in time order.
func (l *roundLog) walls() []float64 {
	v := make([]float64, len(l.start))
	for i := range l.start {
		v[i] = float64(l.end[i]-l.start[i]) / 1e6
	}
	return v
}

// quietRate returns the upper-quartile window's Σper[i] divided by the
// window's rounds' summed wall seconds. per must be index-aligned with
// the rounds. Summing round walls instead of taking the window's span
// keeps the rate right when a traced run interleaves the rounds of two
// logs. starts, when given, are the round indices at which windows begin
// (rebuild's cycles: a fixed-size window would hold three or four failure
// rounds by turns and swing the rate by a quarter).
func (l *roundLog) quietRate(per []int64, starts []int) float64 {
	n := l.rounds()
	if len(starts) == 0 {
		w := windowCount(n)
		for k := 0; k < w; k++ {
			starts = append(starts, k*n/w)
		}
	}
	var rates []float64
	for k, lo := range starts {
		hi := n
		if k+1 < len(starts) {
			hi = starts[k+1]
		}
		var sum, wall int64
		for i := lo; i < hi; i++ {
			sum += per[i]
			wall += l.end[i] - l.start[i]
		}
		if wall > 0 {
			rates = append(rates, float64(sum)/(float64(wall)/1e9))
		}
	}
	return quantile(rates, 0.75)
}

// wallNs is the summed wall time of the logged rounds.
func (l *roundLog) wallNs() int64 {
	var in int64
	for i := range l.start {
		in += l.end[i] - l.start[i]
	}
	return in
}
