// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the hot paths. Each evaluation
// artifact has one bench:
//
//	Figure 1  -> BenchmarkFigure1Parameters
//	Example 1 -> BenchmarkExample1FanoLayout (PGT + Figure 2 placement)
//	Figure 3  -> BenchmarkFigure3FlatLayout
//	Figure 4  -> BenchmarkFigure4ComputeOptimal
//	Figure 5  -> BenchmarkFigure5_256MB, BenchmarkFigure5_2GB
//	Figure 6  -> BenchmarkFigure6_256MB, BenchmarkFigure6_2GB
//	E8        -> BenchmarkAblationAdmission
//	E9        -> BenchmarkAblationStaggered
//	E10       -> BenchmarkFailureContinuity
//
// The figure benches report the headline numbers as custom metrics
// (clips for Figure 5, serviced clips for Figure 6) so `go test -bench`
// output doubles as a results table.
package ftcms

import (
	"io"
	"strconv"
	"testing"

	"ftcms/internal/admission"
	"ftcms/internal/analytic"
	"ftcms/internal/bibd"
	"ftcms/internal/diskmodel"
	"ftcms/internal/experiments"
	"ftcms/internal/layout"
	"ftcms/internal/pgt"
	"ftcms/internal/recovery"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/units"
)

func BenchmarkFigure1Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(io.Discard, "cmopt", "figure1", experiments.Params{}, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample1FanoLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := layout.NewDeclustered(7, 3)
		if err != nil {
			b.Fatal(err)
		}
		for j := int64(0); j < 42; j++ {
			if l.LogicalAt(l.Place(j)) != j {
				b.Fatal("placement inconsistent")
			}
		}
	}
}

func BenchmarkFigure3FlatLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := layout.NewFlatUniform(9, 4, 54)
		if err != nil {
			b.Fatal(err)
		}
		var g layout.Group
		for j := int64(0); j < 54; j += 3 {
			l.GroupAt(l.Place(j), &g)
		}
	}
}

func BenchmarkFigure4ComputeOptimal(b *testing.B) {
	cfg := experiments.PaperAnalyticConfig(256 * units.MB)
	for i := 0; i < b.N; i++ {
		for _, s := range scheme.Paper() {
			if _, err := analytic.Optimize(cfg, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchFigure5(b *testing.B, buffer units.Bits) {
	var points []experiments.Figure5Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Figure5(buffer)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range points {
		b.ReportMetric(float64(pt.Clips), "clips/"+pt.Scheme.Key()+"-p"+strconv.Itoa(pt.P))
	}
}

func BenchmarkFigure5_256MB(b *testing.B) { benchFigure5(b, 256*units.MB) }
func BenchmarkFigure5_2GB(b *testing.B)   { benchFigure5(b, 2*units.GB) }

func benchFigure6(b *testing.B, buffer units.Bits) {
	var points []experiments.Figure6Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Figure6(buffer, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range points {
		b.ReportMetric(float64(pt.Serviced), "serviced/"+pt.Scheme.Key()+"-p"+strconv.Itoa(pt.P))
	}
}

func BenchmarkFigure6_256MB(b *testing.B) { benchFigure6(b, 256*units.MB) }
func BenchmarkFigure6_2GB(b *testing.B)   { benchFigure6(b, 2*units.GB) }

func BenchmarkAblationAdmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AdmissionAblation(256*units.MB, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStaggered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StaggeredAblation(256 * units.MB); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFailureContinuity(b *testing.B) {
	var pts []experiments.ContinuityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.FailureContinuity(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(float64(pt.Overflows), "overflows/"+pt.Scheme.Key()+"-p"+strconv.Itoa(pt.P))
	}
}

// --- microbenchmarks of the hot paths ---

func BenchmarkDeclusteredPlace(b *testing.B) {
	l, err := layout.NewDeclustered(32, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Place(int64(i % 100000))
	}
}

func BenchmarkDeclusteredGroupAt(b *testing.B) {
	l, err := layout.NewDeclustered(32, 8)
	if err != nil {
		b.Fatal(err)
	}
	var g layout.Group
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.GroupAt(l.Place(int64(i%100000)), &g)
	}
}

func BenchmarkXOR(b *testing.B) {
	bs := 256 * 1024
	srcs := make([][]byte, 7)
	for i := range srcs {
		srcs[i] = make([]byte, bs)
	}
	dst := make([]byte, bs)
	b.SetBytes(int64(bs * len(srcs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recovery.XOR(dst, srcs...)
	}
}

func BenchmarkSimRound(b *testing.B) {
	// One full 600-second declustered run per iteration: measures
	// simulator throughput end to end.
	cat := experiments.PaperCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{
			Scheme: scheme.Declustered, Disk: diskmodel.Default(), D: 32, P: 4,
			Buffer: 256 * units.MB, Catalog: cat, ArrivalRate: 20,
			Duration: 600 * units.Second, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimCluster(b *testing.B) {
	// The same round loop at three nodes, replication 2: routing by load
	// and per-node completion on top of BenchmarkSimRound's work.
	cat := experiments.PaperCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCluster(sim.ClusterConfig{
			Node: sim.Config{
				Scheme: scheme.Declustered, Disk: diskmodel.Default(), D: 32, P: 4,
				Buffer: 256 * units.MB, Catalog: cat, ArrivalRate: 20,
				Duration: 600 * units.Second, Seed: int64(i),
			},
			Nodes: 3, Replication: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRebuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RebuildAblation(256 * units.MB); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationConservatism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ConservatismAblation(256*units.MB, 100, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdmissionStatic(b *testing.B) {
	s, err := admission.NewStatic(32, 31, 22, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tk, ok := s.Admit(int64(i), i%32, i%31); ok {
			s.Release(tk)
		}
	}
}

func BenchmarkAdmissionDynamic(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tk, ok := dy.Admit(int64(i), i%32, i%tab.R); ok {
			dy.Release(tk)
		}
	}
}
