package main

import (
	"fmt"
	"runtime"
	"testing"

	"ftcms/internal/autopilot"
	"ftcms/internal/cluster"
	"ftcms/internal/scenario"
)

// ---------------------------------------------------------------------
// The autopilot suite (BENCH_7.json): what the closed loop costs. The
// controller rides every cluster round forever, so its steady-state
// price is the headline: ControllerObserve is the raw policy state
// machine, PilotStep adds the live signal gathering, and
// AutopilotQuiescentTick — the suite's -allocgate target — is the full
// cluster tick with the pilot attached, which must stay at zero
// allocations per round exactly like the bare reconfiguration tick it
// wraps. ReplaceNode measures the loop actually doing something: from
// a node kill to the replacement joined, and ClosedLoopDay (skipped
// with -quick) runs a compressed scenario day end to end with the
// autopilot driving.
// ---------------------------------------------------------------------

func autopilotBenches(quick bool) []bench {
	var gate *cluster.Cluster
	var gatePilot *cluster.Pilot
	benches := []bench{
		// The raw policy state machine on a quiescent signal stream.
		{"ControllerObserve", func(b *testing.B) {
			ctrl := autopilot.New(autopilot.Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ctrl.Observe(autopilot.Signals{
					Round: int64(i), Active: 40, Capacity: 48,
					ActiveNodes: 3, DrainCandidate: -1,
				}); ok {
					b.Fatal("quiescent signals fired an action")
				}
			}
		}},
		// One pilot step against a live idle cluster: the per-round
		// signal sweep plus the controller.
		{"PilotStep", func(b *testing.B) {
			cl := benchCluster(b, 6, 3, 2, 8, 256_000)
			pilot := cluster.NewPilot(cl, nodeConfig(6), autopilot.Config{})
			for j := 0; j < 12; j++ {
				if _, err := cl.OpenStream(fmt.Sprintf("clip-%d", j%8)); err != nil {
					b.Fatal(err)
				}
			}
			if err := cl.Tick(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := pilot.Step(); err != nil {
					b.Fatal(err)
				} else if ok {
					b.Fatal("idle cluster fired an action")
				}
			}
		}},
		// The allocation-gate target: the reconfig suite's steady-state
		// cluster tick with the pilot attached. The loop must add zero
		// allocations to a path that is already allocation-free.
		{"AutopilotQuiescentTick", func(b *testing.B) {
			if gate == nil {
				cl := benchCluster(b, 6, 3, 2, 8, 4_000_000)
				pilot := cluster.NewPilot(cl, nodeConfig(6), autopilot.Config{})
				for j := 0; j < 64; j++ {
					if _, err := cl.OpenStream(fmt.Sprintf("clip-%d", j%8)); err != nil {
						break
					}
				}
				for j := 0; j < 10; j++ {
					if err := cl.Tick(); err != nil {
						b.Fatal(err)
					}
					if _, _, err := pilot.Step(); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				gate, gatePilot = cl, pilot
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gate.Tick(); err != nil {
					b.Fatal(err)
				}
				if _, _, err := gatePilot.Step(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The loop closing for real: kill a node mid-playback and tick
		// until the pilot has joined the replacement.
		{"ReplaceNode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl := benchCluster(b, 6, 3, 2, 8, 256_000)
				pilot := cluster.NewPilot(cl, nodeConfig(6), autopilot.Config{
					Window: 4, ReplaceCooldown: 1,
				})
				for j := 0; j < 8; j++ {
					if _, err := cl.OpenStream(fmt.Sprintf("clip-%d", j)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := cl.FailNode(1); err != nil {
					b.Fatal(err)
				}
				for r := 0; cl.NodeCount() == 3; r++ {
					if r > 1000 {
						b.Fatal("pilot never replaced the killed node")
					}
					if err := cl.Tick(); err != nil {
						b.Fatal(err)
					}
					if _, _, err := pilot.Step(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
	}
	if !quick {
		// A compressed scenario day end to end with the autopilot
		// driving all reconfiguration (the sim-engine loop, not the
		// live-cluster one — the two tiers share the controller).
		benches = append(benches, bench{"ClosedLoopDay", func(b *testing.B) {
			p, err := scenario.BuiltinProfile("primetime-autopilot")
			if err != nil {
				b.Fatal(err)
			}
			p.Subscribers = 50000
			p.TimeScale = 960
			compiled, err := scenario.Compile(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var shed, actions int
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(scenario.RunConfig{
					Scenario:  compiled,
					Seed:      1,
					Workers:   1,
					Autopilot: &autopilot.Config{},
				})
				if err != nil {
					b.Fatal(err)
				}
				shed, actions = res.Shed, len(res.Actions)
			}
			b.ReportMetric(float64(shed), "shed")
			b.ReportMetric(float64(actions), "actions")
		}})
	}
	return benches
}
