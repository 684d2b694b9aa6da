// Command cmbench runs the repository's headline benchmarks outside `go
// test` and emits a machine-readable JSON report: per-benchmark ns/op,
// throughput and allocation counts, any headline metrics the benchmark
// reports, and the speedup against the suite's recorded baseline.
//
// -suite selects one suite from the registry below (exactly one runs per
// invocation; its report goes to the suite's BENCH_<n>.json unless -o
// says otherwise):
//
//	single     BENCH_1  XOR kernel, layout, admission and the Figure 5/6
//	           sweeps. The XOR kernel and the sweeps are benchmarked in
//	           both their old and new forms — a byte-wise reference kernel
//	           next to the word-wise one, single-worker sweeps next to the
//	           parallel ones — so one run documents the before/after
//	           honestly on the machine it ran on.
//	cluster    BENCH_2  stream routing/spillover cost, cluster round cost
//	           with failover traffic, the multi-node simulation end to end.
//	pq         BENCH_3  the GF(2^8) Q-column encode kernel in its byte-wise
//	           and word-sliced forms, every two-erasure reconstruction
//	           pair, and the doubly-degraded server round end to end.
//	streams    BENCH_4  the per-round Tick cost at 1k/10k/100k concurrent
//	           streams in healthy, degraded and rebuilding modes, on a
//	           fast-disk geometry where the scheduling overhead (not the
//	           simulated disk) dominates. Gate: the steady-state tick.
//	reconfig   BENCH_5  view-log mutation cost, the end-to-end cost of a
//	           graceful drain, a join rebalance and a disk-addition
//	           re-layout. Gate: the steady-state cluster tick after a
//	           join/drain/retire history — the quiescent reconfiguration
//	           step must stay off the allocator.
//	workload   BENCH_6  arrivals-per-second throughput and allocs/op for
//	           draining million-request (and, without -quick,
//	           ten-million-request) streams from the uniform and Zipf
//	           Poisson sources. Gate: the scenario engine's
//	           diurnal+flash-crowd NHPP source — a full compressed day
//	           must stay O(active pauses) in memory.
//	autopilot  BENCH_7  the policy state machine and pilot signal sweep
//	           per round, a kill-to-replaced recovery, and (without
//	           -quick) a compressed closed-loop scenario day. Gate: the
//	           steady-state cluster tick with the controller attached —
//	           observing must add zero allocations.
//
// -allocgate N makes the run fail if the suite's gate benchmark allocates
// more than N times per op; suites without a gate reject the flag.
//
// Usage:
//
//	cmbench                      # single-array suite -> BENCH_1.json
//	cmbench -suite streams       # high-stream-count tick suite -> BENCH_4.json
//	cmbench -suite reconfig -allocgate 0 -o out.json
//	cmbench -quick               # skip the suite's slow benchmarks
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ftcms/internal/admission"
	"ftcms/internal/analytic"
	"ftcms/internal/bibd"
	"ftcms/internal/cluster"
	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/experiments"
	"ftcms/internal/layout"
	"ftcms/internal/pgt"
	"ftcms/internal/reconfig"
	"ftcms/internal/recovery"
	"ftcms/internal/sim"
	"ftcms/internal/units"
)

// seedDesc and seedBaseline record ns/op measured at the pre-overhaul
// seed commit on the reference machine, keyed by benchmark name. The
// report computes speedup = baseline / measured for matching names; on
// other machines the ratio is indicative, not exact.
const seedDesc = "seed commit, 1-CPU Intel Xeon 2.70 GHz (ns/op)"

var seedBaseline = map[string]float64{
	"XOR":                745890,
	"DeclusteredPlace":   15.61,
	"DeclusteredGroupOf": 691.4,
	"AdmissionDynamic":   6534,
	"Figure5_256MB":      95542,
	"Figure6_256MB":      475834081,
	"SimRound":           20362658,
}

// streamsBaseline records ns/op for the streams suite measured at the
// commit immediately before the round-tick overhaul (5s benchtime), on
// the same reference machine, so the report documents the scheduling
// win the same way seedBaseline documents the XOR and admission wins.
// ClusterTick100k has no entry: the pre-overhaul tick path could not
// complete that point on the reference machine (the run was OOM-killed
// building the population).
var streamsBaseline = map[string]float64{
	"Tick1kSteady":     159008833,
	"Tick1kDegraded":   690099803,
	"Tick1kRebuilding": 856310977,
	"Tick10k":          1344970394,
	"ClusterTick10k":   2141250579,
}

// suite is one registry entry: everything that used to hang off a
// per-suite flag.
type suite struct {
	name string
	// out is the default report path.
	out string
	// benches lists the suite's benchmarks; quick drops the slow ones.
	benches func(quick bool) []bench
	// baseline (may be nil) holds the ns/op the report computes speedups
	// against, and baselineDesc says where those numbers came from.
	baseline     map[string]float64
	baselineDesc string
	// gate names the benchmark -allocgate applies to: the suite's
	// designated steady-state tick. Empty for suites without one.
	gate string
}

var suites = []suite{
	{"single", "BENCH_1.json", singleBenches, seedBaseline, seedDesc, ""},
	{"cluster", "BENCH_2.json", clusterBenches, nil, seedDesc, ""},
	{"pq", "BENCH_3.json", pqBenches, nil, seedDesc, ""},
	{"streams", "BENCH_4.json", streamsBenches, streamsBaseline,
		"pre-overhaul tick path, 1-CPU Intel Xeon 2.70 GHz (ns/op)", "Tick1kSteady"},
	{"reconfig", "BENCH_5.json", reconfigBenches, nil,
		"none (suite introduced together with the reconfiguration subsystem)", "ReconfigQuiescentTick"},
	{"workload", "BENCH_6.json", workloadBenches, nil,
		"none (suite introduced together with the scenario engine)", "ScenarioDiurnal1M"},
	{"autopilot", "BENCH_7.json", autopilotBenches, nil,
		"none (suite introduced together with the autopilot)", "AutopilotQuiescentTick"},
}

// suiteNames lists the registered suites, or only those with a gate.
func suiteNames(gatedOnly bool) string {
	var names []string
	for _, s := range suites {
		if s.gate != "" || !gatedOnly {
			names = append(names, s.name)
		}
	}
	return strings.Join(names, ", ")
}

// selectSuite resolves -suite and checks -allocgate against it.
func selectSuite(name string, allocGate int) (suite, error) {
	for _, s := range suites {
		if s.name != name {
			continue
		}
		if allocGate >= 0 && s.gate == "" {
			return s, fmt.Errorf("-allocgate needs a suite with a gate benchmark (%s)", suiteNames(true))
		}
		return s, nil
	}
	return suite{}, fmt.Errorf("unknown suite %q (valid: %s)", name, suiteNames(false))
}

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
	// SpeedupVsSeed is seedBaseline[Name] / NsPerOp when a baseline is
	// recorded for this name.
	SpeedupVsSeed float64            `json:"speedup_vs_seed,omitempty"`
	Metrics       map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	GOOS     string        `json:"goos"`
	GOARCH   string        `json:"goarch"`
	CPUs     int           `json:"cpus"`
	Baseline string        `json:"baseline"`
	Results  []benchResult `json:"results"`
}

// naiveXOR is the seed commit's byte-at-a-time kernel, kept here as the
// "before" side of the XOR comparison.
func naiveXOR(dst []byte, srcs ...[]byte) {
	for i := range dst {
		var v byte
		for _, s := range srcs {
			v ^= s[i]
		}
		dst[i] = v
	}
}

func xorInputs() ([]byte, [][]byte) {
	bs := 256 * 1024
	srcs := make([][]byte, 7)
	for i := range srcs {
		srcs[i] = make([]byte, bs)
		for j := range srcs[i] {
			srcs[i][j] = byte(i*31 + j)
		}
	}
	return make([]byte, bs), srcs
}

type bench struct {
	name string
	fn   func(b *testing.B)
}

func main() {
	suiteName := flag.String("suite", "single", "suite to run: "+suiteNames(false))
	out := flag.String("o", "", "output JSON path (default: the suite's BENCH_<n>.json)")
	quick := flag.Bool("quick", false, "skip the suite's slow benchmarks (Figure 6, SimRound, ClusterSim, ClusterTick100k, the 10M-request workload tier, ClosedLoopDay)")
	allocGate := flag.Int("allocgate", -1, "exit non-zero if the suite's gate benchmark exceeds this many allocs/op (-1 disables)")
	benchtime := flag.String("benchtime", "", "per-benchmark measuring time (e.g. 5s or 100x), as in go test; empty keeps the 1s default")
	flag.Parse()
	st, err := selectSuite(*suiteName, *allocGate)
	if err != nil {
		fatal(err)
	}
	if *benchtime != "" {
		// testing.Init registers the test.* flags testing.Benchmark
		// reads; a longer benchtime averages over GC-phase noise on
		// allocation-heavy benchmarks.
		testing.Init()
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fatal(err)
		}
	}
	if *out == "" {
		*out = st.out
	}

	rep := report{
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		Baseline: st.baselineDesc,
	}
	for _, bc := range st.benches(*quick) {
		fmt.Fprintf(os.Stderr, "cmbench: running %s...\n", bc.name)
		r := testing.Benchmark(bc.fn)
		br := benchResult{
			Name:        bc.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		}
		if r.Bytes > 0 && r.T > 0 {
			br.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		if len(r.Extra) > 0 {
			br.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				br.Metrics[k] = v
			}
		}
		if base, ok := st.baseline[bc.name]; ok && br.NsPerOp > 0 {
			br.SpeedupVsSeed = base / br.NsPerOp
		}
		rep.Results = append(rep.Results, br)
		fmt.Fprintf(os.Stderr, "cmbench: %-20s %12.1f ns/op", bc.name, br.NsPerOp)
		if br.MBPerS > 0 {
			fmt.Fprintf(os.Stderr, "  %8.1f MB/s", br.MBPerS)
		}
		if br.SpeedupVsSeed > 0 {
			fmt.Fprintf(os.Stderr, "  %5.2fx vs seed", br.SpeedupVsSeed)
		}
		fmt.Fprintln(os.Stderr)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "cmbench: wrote %s\n", *out)

	// The allocation regression gate runs after the report is written so
	// a failing run still leaves the numbers behind for inspection.
	if *allocGate >= 0 {
		for _, r := range rep.Results {
			if r.Name == st.gate && r.AllocsPerOp > int64(*allocGate) {
				fatal(fmt.Errorf("allocation gate: %s at %d allocs/op exceeds budget %d",
					r.Name, r.AllocsPerOp, *allocGate))
			}
		}
	}
}

// singleBenches is the single-array suite: the XOR kernel, layout and
// admission primitives, and the Figure 5/6 sweeps.
func singleBenches(quick bool) []bench {
	benches := []bench{
		{"XORNaive", func(b *testing.B) {
			dst, srcs := xorInputs()
			b.SetBytes(int64(len(dst) * len(srcs)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				naiveXOR(dst, srcs...)
			}
		}},
		{"XOR", func(b *testing.B) {
			dst, srcs := xorInputs()
			b.SetBytes(int64(len(dst) * len(srcs)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recovery.XOR(dst, srcs...)
			}
		}},
		{"DeclusteredPlace", func(b *testing.B) {
			l, err := layout.NewDeclustered(32, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = l.Place(int64(i % 100000))
			}
		}},
		{"DeclusteredGroupOf", func(b *testing.B) {
			l, err := layout.NewDeclustered(32, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = l.GroupOf(int64(i % 100000))
			}
		}},
		{"AdmissionDynamic", func(b *testing.B) {
			des, err := bibd.New(32, 8)
			if err != nil {
				b.Fatal(err)
			}
			tab, err := pgt.New(des)
			if err != nil {
				b.Fatal(err)
			}
			dy, err := admission.NewDynamic(tab, 23)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tk, ok := dy.Admit(int64(i), i%32, i%tab.R); ok {
					dy.Release(tk)
				}
			}
		}},
		{"Figure5_256MB_seq", func(b *testing.B) {
			benchFigure5(b, 1)
		}},
		{"Figure5_256MB", func(b *testing.B) {
			benchFigure5(b, 0)
		}},
	}
	if !quick {
		benches = append(benches,
			bench{"Figure6_256MB_seq", func(b *testing.B) { benchFigure6(b, 1) }},
			bench{"Figure6_256MB", func(b *testing.B) { benchFigure6(b, 0) }},
			bench{"SimRound", func(b *testing.B) {
				cat := experiments.PaperCatalog()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(sim.Config{
						Scheme: analytic.Declustered, Disk: diskmodel.Default(), D: 32, P: 4,
						Buffer: 256 * units.MB, Catalog: cat, ArrivalRate: 20,
						Duration: 600 * units.Second, Seed: int64(i), FailDisk: -1,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}},
		)
	}
	return benches
}

func benchFigure5(b *testing.B, workers int) {
	var points []experiments.Figure5Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Figure5Workers(256*units.MB, workers)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range points {
		b.ReportMetric(float64(pt.Clips), "clips/"+pt.Scheme.Short()+"-p"+strconv.Itoa(pt.P))
	}
}

func benchFigure6(b *testing.B, workers int) {
	var points []experiments.Figure6Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Figure6(experiments.Figure6Config{
			Buffer: 256 * units.MB, Seed: 1, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range points {
		b.ReportMetric(float64(pt.Serviced), "serviced/"+pt.Scheme.Short()+"-p"+strconv.Itoa(pt.P))
	}
}

// patternData returns n bytes of a fixed non-repeating-looking pattern.
func patternData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 131)
	}
	return data
}

// nodeConfig is a small d-disk declustered array with the default disk
// model. The cluster suite uses d=7; the reconfiguration and autopilot
// suites use d=6, because (7, 3) has a BIBD construction and so AddDisk
// can grow a 6-disk node, unlike a 7-disk one.
func nodeConfig(d int) core.Config {
	return core.Config{
		Scheme: core.Declustered,
		Disk:   diskmodel.Default(),
		D:      d, P: 3,
		Block: 64 * units.KB,
		Q:     8, F: 2,
		Buffer: 256 * units.MB,
	}
}

// benchCluster builds a cluster of nodes d-disk arrays holding nclips
// replicated clips of clipBytes bytes each.
func benchCluster(b *testing.B, d, nodes, rep, nclips, clipBytes int) *cluster.Cluster {
	b.Helper()
	cfg := cluster.Config{Replication: rep}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, nodeConfig(d))
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := patternData(clipBytes)
	for i := 0; i < nclips; i++ {
		if err := cl.AddClip(fmt.Sprintf("clip-%d", i), data); err != nil {
			b.Fatal(err)
		}
	}
	return cl
}

// clusterBenches is the cluster suite: stream routing, node-failure
// failover, cluster round cost under delivery, and the multi-node
// simulation.
func clusterBenches(quick bool) []bench {
	benches := []bench{
		// Routing + admission decision cost: open on the least-loaded
		// live replica (with spillover bookkeeping), then release.
		{"ClusterRoute", func(b *testing.B) {
			cl := benchCluster(b, 7, 4, 2, 16, 256_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := cl.OpenStream(fmt.Sprintf("clip-%d", i%16))
				if err != nil {
					b.Fatal(err)
				}
				st.Close()
			}
		}},
		// Failover cost: kill a node with in-flight streams; each stream
		// of a replicated clip re-admits on a surviving replica.
		{"ClusterFailover", func(b *testing.B) {
			cl := benchCluster(b, 7, 3, 2, 8, 256_000)
			var streams []*cluster.Stream
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, st := range streams {
					st.Close()
				}
				streams = streams[:0]
				if err := cl.RejoinNode(0); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 16; j++ {
					st, err := cl.OpenStream(fmt.Sprintf("clip-%d", j%8))
					if err != nil {
						break // replicas full; bench what was admitted
					}
					streams = append(streams, st)
				}
				b.StartTimer()
				if err := cl.FailNode(0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Sustained cluster round cost: Tick all nodes and drain one read
		// per stream, reopening streams as they finish.
		{"ClusterTick", func(b *testing.B) {
			cl := benchCluster(b, 7, 3, 2, 8, 4_000_000)
			var streams []*cluster.Stream
			for j := 0; ; j++ {
				st, err := cl.OpenStream(fmt.Sprintf("clip-%d", j%8))
				if err != nil {
					break
				}
				streams = append(streams, st)
			}
			scratch := make([]byte, 64<<10)
			b.ReportMetric(float64(len(streams)), "streams")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Tick(); err != nil {
					b.Fatal(err)
				}
				for j, st := range streams {
					if _, err := st.Read(scratch); err == io.EOF {
						ns, err := cl.OpenStream(st.Clip())
						if err != nil {
							b.Fatal(err)
						}
						streams[j] = ns
					}
				}
			}
		}},
	}
	if !quick {
		benches = append(benches, bench{"ClusterSim", func(b *testing.B) {
			cat := experiments.PaperCatalog()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunCluster(sim.ClusterConfig{
					Node: sim.Config{
						Scheme: analytic.Declustered, Disk: diskmodel.Default(), D: 16, P: 4,
						Buffer: 128 * units.MB, Catalog: cat, ArrivalRate: 5,
						Duration: 120 * units.Second, Seed: int64(i),
					},
					Nodes:       3,
					Replication: 2,
					NodeTrace:   []sim.FailureEvent{{Disk: 0, At: 60 * units.Second}},
				}); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}
	return benches
}

// naiveQEncode is the per-byte table-lookup reference kernel, kept as
// the "before" side of the Q-column comparison (Horner form, like the
// production kernel, but one byte at a time).
func naiveQEncode(dst []byte, srcs ...[]byte) {
	for i := range dst {
		var v byte
		for _, s := range srcs {
			v = recovery.GMul(v, 2) ^ s[i]
		}
		dst[i] = v
	}
}

// pqInputs builds a (13, 4)-shaped group's worth of 256 KB data
// columns plus P and Q.
func pqInputs(nd int) (data [][]byte, p, q []byte) {
	bs := 256 * 1024
	data = make([][]byte, nd)
	for k := range data {
		data[k] = make([]byte, bs)
		for j := range data[k] {
			data[k][j] = byte(k*37 + j)
		}
	}
	p, q = make([]byte, bs), make([]byte, bs)
	recovery.XOR(p, data...)
	recovery.QEncode(q, data...)
	return data, p, q
}

// benchRecoverPQ benchmarks one erasure pair: the missing buffers are
// re-zeroed each iteration so every op does the full reconstruction.
func benchRecoverPQ(b *testing.B, nd int, missing []int) {
	data, p, q := pqInputs(nd)
	buf := func(idx int) []byte {
		switch {
		case idx < nd:
			return data[idx]
		case idx == nd:
			return p
		default:
			return q
		}
	}
	bs := len(p)
	b.SetBytes(int64(bs * len(missing)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range missing {
			clear(buf(m))
		}
		if err := recovery.RecoverPQ(data, p, q, missing); err != nil {
			b.Fatal(err)
		}
	}
}

// pqBenches is the pq suite: the Q encode kernel in both forms, every
// two-erasure reconstruction class, and the doubly-degraded server
// round end to end.
func pqBenches(bool) []bench {
	const nd = 8 // data columns per group in the kernel benchmarks
	return []bench{
		{"QEncodeNaive", func(b *testing.B) {
			data, _, q := pqInputs(nd)
			b.SetBytes(int64(len(q) * nd))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				naiveQEncode(q, data...)
			}
		}},
		{"QEncode", func(b *testing.B) {
			data, _, q := pqInputs(nd)
			b.SetBytes(int64(len(q) * nd))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recovery.QEncode(q, data...)
			}
		}},
		{"PQRecoverDataData", func(b *testing.B) { benchRecoverPQ(b, nd, []int{1, 5}) }},
		{"PQRecoverDataP", func(b *testing.B) { benchRecoverPQ(b, nd, []int{2, nd}) }},
		{"PQRecoverDataQ", func(b *testing.B) { benchRecoverPQ(b, nd, []int{3, nd + 1}) }},
		{"PQRecoverPQ", func(b *testing.B) { benchRecoverPQ(b, nd, []int{nd, nd + 1}) }},
		{"DeclusteredPQGroupOf", func(b *testing.B) {
			l, err := layout.NewDeclusteredPQ(13, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = l.GroupOf(int64(i % 100000))
			}
		}},
		// The end-to-end cost of a doubly-degraded round: a (13, 4) P+Q
		// server with two failed disks streams four clips, every block of
		// the damaged groups served by two-erasure reconstruction.
		{"PQDegradedTick", func(b *testing.B) {
			lay, err := layout.NewDeclusteredPQ(13, 4)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := core.New(core.Config{
				Scheme: core.DeclusteredPQ,
				Disk:   diskmodel.Default(),
				D:      13, P: 4,
				Block: 64 * units.KB,
				Q:     8, F: 2,
				Buffer: 256 * units.MB,
			})
			if err != nil {
				b.Fatal(err)
			}
			data := patternData(4_000_000)
			for i := 0; i < 4; i++ {
				if err := srv.AddClip(fmt.Sprintf("clip-%d", i), data); err != nil {
					b.Fatal(err)
				}
			}
			g := lay.GroupOf(0)
			for _, disk := range []int{lay.Place(0).Disk, g.Parity.Disk} {
				if err := srv.FailDisk(disk); err != nil {
					b.Fatal(err)
				}
			}
			var streams []*core.Stream
			var names []string
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("clip-%d", i)
				st, err := srv.OpenStream(name)
				if err != nil {
					b.Fatal(err)
				}
				streams = append(streams, st)
				names = append(names, name)
			}
			scratch := make([]byte, 128<<10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := srv.Tick(); err != nil {
					b.Fatal(err)
				}
				for j, st := range streams {
					if _, err := st.Read(scratch); err == io.EOF {
						ns, err := srv.OpenStream(names[j])
						if err != nil {
							b.Fatal(err)
						}
						streams[j] = ns
					}
				}
			}
		}},
	}
}

// ---------------------------------------------------------------------
// streams: high-stream-count round-tick suite.
//
// The paper's service model makes the per-round tick the server's hot
// path, so this suite measures Tick at populations where scheduling
// overhead — not the simulated disk — is what's being timed: a fast
// (6 Gbps) disk with microsecond latencies, 4 KB blocks, and rounds
// packed to q = 128..192 streams per disk. Servers are built once per
// benchmark and reused across testing.Benchmark's calibration runs;
// clips are long enough that no stream reaches EOF inside a normal
// benchtime, so the steady-state loop does the same work every round.
// ---------------------------------------------------------------------

const (
	streamsBlock      = 32 * units.KB // 4 KB blocks: scheduling dominates transfer
	streamsClipBlocks = 8192          // 32.8 MB clips; streams never EOF mid-benchtime
)

// fastStreamsDisk is a modern-disk geometry (6 Gbps transfer, 10 us
// settle, 0.1 ms full-stroke seek, negligible rotation) under which
// Equation 1 admits q = 192 streams per disk at 4 KB blocks with a
// 21.3 ms round.
func fastStreamsDisk() diskmodel.Parameters {
	return diskmodel.Parameters{
		TransferRate: 6 * units.Gbps,
		Settle:       10 * units.Microsecond,
		Seek:         100 * units.Microsecond,
		Rotation:     0,
		Capacity:     64 * units.GB,
		PlaybackRate: 1500 * units.Kbps,
	}
}

func streamsServerConfig(d, q, spares int) core.Config {
	return core.Config{
		Scheme: core.Declustered,
		Disk:   fastStreamsDisk(),
		D:      d, P: 4,
		Block: streamsBlock,
		Q:     q, F: 16,
		Buffer: 2 * units.GB,
		Spares: spares,
	}
}

// streamsClipData builds one shared clip payload; Array.Write copies
// into its own buffers, so every clip can alias this slice.
func streamsClipData() []byte { return patternData(streamsClipBlocks * int(streamsBlock/8)) }

// tickBench is one cached high-stream-count population, on a single
// server or sharded over a cluster: tickFn and openFn hide which.
type tickBench struct {
	srv     *core.Server // the single server; nil for a cluster population
	tickFn  func() error
	openFn  func(clip string) (io.Reader, error)
	streams []io.Reader
	names   []string
	scratch []byte
}

// asReader adapts a server's or cluster's OpenStream to tickBench.openFn.
func asReader[S io.Reader](open func(string) (S, error)) func(string) (io.Reader, error) {
	return func(clip string) (io.Reader, error) {
		st, err := open(clip)
		if err != nil {
			return nil, err
		}
		return st, nil
	}
}

// drainOne reads one round's payload from stream j, recycling it if the
// clip finished (a safety net: clips are sized so this doesn't happen
// inside a normal benchtime).
func (tb *tickBench) drainOne(b *testing.B, j int) {
	_, err := tb.streams[j].Read(tb.scratch)
	switch {
	case err == nil || errors.Is(err, core.ErrNoData):
	case err == io.EOF:
		if ns, oerr := tb.openFn(tb.names[j]); oerr == nil {
			tb.streams[j] = ns
		} else if !errors.Is(oerr, core.ErrAdmission) {
			b.Fatal(oerr)
		}
	default:
		b.Fatal(err)
	}
}

func (tb *tickBench) tick(b *testing.B) {
	if err := tb.tickFn(); err != nil {
		b.Fatal(err)
	}
	for j := range tb.streams {
		tb.drainOne(b, j)
	}
}

// open admits `want` streams round-robin over the clips. The admission
// controller caps same-clip opens at f per round (they share a cell), so
// the population builds up over several rounds, ticking and draining
// between batches exactly like a live arrival wave.
func (tb *tickBench) open(b *testing.B, want int) {
	b.Helper()
	clips := tb.names // the builder filled names with the clip catalog
	tb.names = nil
	for rounds := 0; len(tb.streams) < want; rounds++ {
		if rounds > want {
			b.Fatalf("admission stalled: %d/%d streams after %d rounds", len(tb.streams), want, rounds)
		}
		for _, name := range clips {
			for len(tb.streams) < want {
				st, err := tb.openFn(name)
				if errors.Is(err, core.ErrAdmission) {
					break // this clip's cell is full this round
				}
				if err != nil {
					b.Fatal(err)
				}
				tb.streams = append(tb.streams, st)
				tb.names = append(tb.names, name)
			}
		}
		if len(tb.streams) < want {
			tb.tick(b)
		}
	}
}

// newTickBench builds a single fast-disk server with nclips clips and
// `want` admitted streams.
func newTickBench(b *testing.B, cfg core.Config, nclips, want int) *tickBench {
	b.Helper()
	srv, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tb := &tickBench{srv: srv, tickFn: srv.Tick, openFn: asReader(srv.OpenStream), scratch: make([]byte, int(streamsBlock/8))}
	data := streamsClipData()
	for i := 0; i < nclips; i++ {
		name := fmt.Sprintf("clip-%d", i)
		if err := srv.AddClip(name, data); err != nil {
			b.Fatal(err)
		}
		tb.names = append(tb.names, name)
	}
	tb.open(b, want)
	// Clear the GC debt from clip ingest (gigabytes of parity
	// read-modify-write churn) so the measured loop starts from a settled
	// heap.
	runtime.GC()
	return tb
}

// newClusterTickBench shards the same population across `nodes`
// independent arrays (replication 1: the tick cost, not failover, is
// what's under test).
func newClusterTickBench(b *testing.B, nodes, clipsPerNode, want int) *tickBench {
	b.Helper()
	cfg := cluster.Config{Replication: 1}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, streamsServerConfig(64, 192, 0))
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tb := &tickBench{tickFn: cl.Tick, openFn: asReader(cl.OpenStream), scratch: make([]byte, int(streamsBlock/8))}
	data := streamsClipData()
	for i := 0; i < nodes*clipsPerNode; i++ {
		name := fmt.Sprintf("clip-%d", i)
		if err := cl.AddClip(name, data); err != nil {
			b.Fatal(err)
		}
		tb.names = append(tb.names, name)
	}
	tb.open(b, want)
	runtime.GC()
	return tb
}

// lazyTick wraps a tick-loop benchmark so its server population is
// built once and cached in the closure: testing.Benchmark's calibration
// re-invocations reuse the built population instead of re-admitting it.
// The measured loop is one Tick plus one Read per stream per iteration;
// perIter (if set) runs before each tick for mode upkeep such as
// re-failing a rebuilt disk.
func lazyTick(build func(b *testing.B) *tickBench, perIter func(b *testing.B, tb *tickBench)) func(b *testing.B) {
	var tb *tickBench
	return func(b *testing.B) {
		if tb == nil {
			tb = build(b)
		}
		b.ReportMetric(float64(len(tb.streams)), "streams")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if perIter != nil {
				perIter(b, tb)
			}
			tb.tick(b)
		}
	}
}

// streamsBenches is the streams suite. Each benchmark caches its server
// in the closure via lazyTick.
func streamsBenches(quick bool) []bench {
	lazy := lazyTick
	benches := []bench{
		// The allocation-gate target: healthy steady state, 1k streams on
		// 32 disks at q=128.
		{"Tick1kSteady", lazy(func(b *testing.B) *tickBench {
			return newTickBench(b, streamsServerConfig(32, 128, 0), 8, 1000)
		}, nil)},
		// Same population with one failed disk and no spare: every
		// affected group block is served by on-the-fly reconstruction.
		{"Tick1kDegraded", lazy(func(b *testing.B) *tickBench {
			tb := newTickBench(b, streamsServerConfig(32, 128, 0), 8, 1000)
			if err := tb.srv.FailDisk(0); err != nil {
				b.Fatal(err)
			}
			return tb
		}, nil)},
		// Rebuild competing with stream service for idle round capacity;
		// the disk is re-failed (outside the timer) whenever the rebuild
		// completes so every measured round carries rebuild traffic.
		{"Tick1kRebuilding", lazy(func(b *testing.B) *tickBench {
			tb := newTickBench(b, streamsServerConfig(32, 128, 4096), 8, 1000)
			if err := tb.srv.FailDisk(0); err != nil {
				b.Fatal(err)
			}
			return tb
		}, func(b *testing.B, tb *tickBench) {
			if tb.srv.Mode() == core.ModeHealthy {
				b.StopTimer()
				if err := tb.srv.FailDisk(0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})},
		// The headline scaling point: 10k streams on one 64-disk array at
		// q=192.
		{"Tick10k", lazy(func(b *testing.B) *tickBench {
			return newTickBench(b, streamsServerConfig(64, 192, 0), 16, 10000)
		}, nil)},
		// 10k streams sharded over a 2-node cluster: the acceptance
		// criterion's ClusterTick point.
		{"ClusterTick10k", lazy(func(b *testing.B) *tickBench {
			return newClusterTickBench(b, 2, 8, 10000)
		}, nil)},
	}
	if !quick {
		benches = append(benches, bench{"ClusterTick100k", lazy(func(b *testing.B) *tickBench {
			return newClusterTickBench(b, 10, 16, 100000)
		}, nil)})
	}
	return benches
}

// ---------------------------------------------------------------------
// reconfig: elastic-reconfiguration suite.
//
// Measures the versioned-view machinery end to end: the view-log
// mutations themselves, the steady-state cluster tick *after* a
// join/drain/retire history (the quiescent reconfiguration step rides
// every round forever, so it must stay off the allocator — that bench
// is the suite's -allocgate target), and the wall-clock shape of the
// three reconfiguration operations (graceful drain, join-then-drain
// hardware swap, single-node disk-addition re-layout).
// ---------------------------------------------------------------------

// tickUntil ticks cl until done() reports true, failing the benchmark
// if convergence takes more than limit rounds.
func tickUntil(b *testing.B, cl *cluster.Cluster, limit int, done func() bool) {
	b.Helper()
	for r := 0; r < limit; r++ {
		if done() {
			return
		}
		if err := cl.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.Fatalf("reconfiguration did not converge within %d rounds", limit)
}

// retired reports whether exactly n nodes of cl have retired.
func retired(cl *cluster.Cluster, n int) func() bool {
	return func() bool {
		v := cl.View()
		count := 0
		for id := 0; ; id++ {
			m, ok := v.Member(id)
			if !ok {
				break
			}
			if m.State == reconfig.Retired {
				count++
			}
		}
		return count == n
	}
}

func reconfigBenches(bool) []bench {
	var gate *cluster.Cluster
	return []bench{
		// The raw view-log mutation cycle: join, drain, retire, remove,
		// plus a defensive read of the resulting view.
		{"ViewLog", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lg := reconfig.NewLog([]int{6, 6, 6})
				id, _ := lg.Join(6)
				if _, err := lg.Drain(0); err != nil {
					b.Fatal(err)
				}
				if _, err := lg.Retire(0); err != nil {
					b.Fatal(err)
				}
				if _, err := lg.Remove(id); err != nil {
					b.Fatal(err)
				}
				if v := lg.View(); len(v.Serving()) != 2 {
					b.Fatalf("serving %v after retire+remove", v.Serving())
				}
			}
		}},
		// The allocation-gate target: a cluster that has lived through a
		// join and a full drain/retire ticks in steady state with admitted
		// streams. The quiescent per-round reconfiguration step is on this
		// path every round, so it must not allocate.
		{"ReconfigQuiescentTick", func(b *testing.B) {
			if gate == nil {
				cl := benchCluster(b, 6, 3, 2, 8, 4_000_000)
				if _, err := cl.JoinNode(nodeConfig(6)); err != nil {
					b.Fatal(err)
				}
				if err := cl.DrainNode(0); err != nil {
					b.Fatal(err)
				}
				tickUntil(b, cl, 100000, retired(cl, 1))
				// Admit a stream population; the streams are never read, so
				// after Q rounds every buffer is full and each further tick
				// is the pure steady-state scheduling pass.
				for j := 0; j < 64; j++ {
					if _, err := cl.OpenStream(fmt.Sprintf("clip-%d", j%8)); err != nil {
						break
					}
				}
				for j := 0; j < 10; j++ {
					if err := cl.Tick(); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				gate = cl
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gate.Tick(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// A full graceful drain: re-replicate the victim's clips onto the
		// survivors on idle capacity, move its streams, retire it.
		{"DrainRetire", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl := benchCluster(b, 6, 3, 2, 8, 256_000)
				for j := 0; j < 8; j++ {
					if _, err := cl.OpenStream(fmt.Sprintf("clip-%d", j)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := cl.DrainNode(1); err != nil {
					b.Fatal(err)
				}
				tickUntil(b, cl, 100000, retired(cl, 1))
			}
		}},
		// The planned hardware-swap shape: join a replacement first, then
		// drain — the copies land on the joined node.
		{"JoinDrainSwap", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl := benchCluster(b, 6, 3, 2, 8, 256_000)
				b.StartTimer()
				if _, err := cl.JoinNode(nodeConfig(6)); err != nil {
					b.Fatal(err)
				}
				if err := cl.DrainNode(0); err != nil {
					b.Fatal(err)
				}
				tickUntil(b, cl, 100000, retired(cl, 1))
			}
		}},
		// Growing one array by a disk: copy every block onto the wider
		// (d+1)-disk PGT layout on idle capacity, then flip atomically.
		{"AddDiskRelayout", func(b *testing.B) {
			data := patternData(256_000)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv, err := core.New(nodeConfig(6))
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 4; k++ {
					if err := srv.AddClip(fmt.Sprintf("clip-%d", k), data); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := srv.AddDisk(); err != nil {
					b.Fatal(err)
				}
				for r := 0; srv.Relayouting(); r++ {
					if r > 100000 {
						b.Fatal("re-layout did not finish")
					}
					if err := srv.Tick(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmbench:", err)
	os.Exit(1)
}
