package main

// workload: arrival-generation suite (BENCH_6.json by default).
//
// Measures the streaming workload engines at scenario scale: raw
// arrivals-per-second throughput and allocation counts for draining a
// million-request (and, without -quick, ten-million-request) stream from
// the Poisson sources and the scenario engine's NHPP source. Every
// source is single-use, so each op builds its source and drains it —
// exactly what a sim run pays. The scenario source is the -allocgate
// target: drains must stay O(active pauses) in memory, so a full
// million-request day is budgeted a few thousand allocations (selector
// and resume-heap setup included).

import (
	"testing"

	"ftcms/internal/scenario"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// drainSource pulls a source dry and returns the request count.
func drainSource(b *testing.B, src workload.ArrivalSource) int {
	b.Helper()
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			return n
		}
		n++
	}
}

// benchPoisson drains a fresh rate×horizon Poisson stream each op.
func benchPoisson(b *testing.B, rate float64, horizon units.Duration, sel workload.Selector) {
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := workload.NewPoissonSource(rate, horizon, sel, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		total += drainSource(b, src)
	}
	reportArrivals(b, total)
}

// benchScenario compiles the profile once and drains a fresh seeded
// source each op.
func benchScenario(b *testing.B, subscribers int64) {
	profile := scenario.Profile{
		Name:        "bench-diurnal",
		TimeScale:   240,
		Subscribers: subscribers,
		Zipf:        1.1,
		Mix:         scenario.SessionMix{VCRShare: 0.3, Pause: 0.25, EarlyStop: 0.35, ResumeMin: 20},
		Phases: []scenario.Phase{
			{Kind: scenario.KindDiurnal, StartHour: 0, EndHour: 24, PeakHour: 20.5, MinFrac: 0.1},
			{Kind: scenario.KindFlashCrowd, StartHour: 20, EndHour: 21, Multiplier: 4, Clip: 0},
		},
	}
	compiled, err := scenario.Compile(profile)
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := scenario.NewSource(compiled, 50*units.Second, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		total += drainSource(b, src)
	}
	reportArrivals(b, total)
}

// reportArrivals attaches the generation rate and per-op stream size.
func reportArrivals(b *testing.B, total int) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)/secs, "arrivals/s")
	}
	b.ReportMetric(float64(total)/float64(b.N), "arrivals/op")
}

// workloadBenches is the workload suite. The 1M tier runs always; the
// 10M tier is skipped with -quick.
func workloadBenches(quick bool) []bench {
	zipf := func(b *testing.B) workload.Selector {
		sel, err := workload.NewZipfSelector(1000, 1.1)
		if err != nil {
			b.Fatal(err)
		}
		return sel
	}
	benches := []bench{
		// 10k/s over 100 s: one million uniform-choice arrivals per op.
		{"PoissonUniform1M", func(b *testing.B) {
			benchPoisson(b, 10000, 100*units.Second, workload.UniformSelector{N: 1000})
		}},
		// The same million arrivals through the Zipf inverse-CDF picker.
		{"PoissonZipf1M", func(b *testing.B) {
			benchPoisson(b, 10000, 100*units.Second, zipf(b))
		}},
		// The scenario engine's full diurnal+flash+VCR day at 900k
		// subscribers (≈1.4M requests through ≈7M thinning candidates).
		{"ScenarioDiurnal1M", func(b *testing.B) {
			benchScenario(b, 900000)
		}},
	}
	if !quick {
		benches = append(benches,
			bench{"PoissonZipf10M", func(b *testing.B) {
				benchPoisson(b, 100000, 100*units.Second, zipf(b))
			}},
			bench{"ScenarioDiurnal10M", func(b *testing.B) {
				benchScenario(b, 6500000)
			}},
		)
	}
	return benches
}
