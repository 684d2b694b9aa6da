// Command cmsim runs the paper's simulation study (§8.2): single runs,
// the full Figure 6 panels, failure-injection experiments (E10), and the
// admission-policy ablation (E8).
//
// Usage:
//
//	cmsim -grid                          # Figure 6, both panels
//	cmsim -scheme declustered -p 8       # one run, metrics printed
//	cmsim -scheme non-clustered -p 8 -fail 2 -failat 100
//	cmsim -ablation                      # E8 admission ablation
//	cmsim -continuity                    # E10 failure continuity table
//	cmsim -fail 5 -failat 50 -rebuild    # E12 online rebuild
//	cmsim -batch 10                      # E15 request batching window
//	cmsim -mixed                         # E16 mixed-rate workload
//	cmsim -integrity                     # E17 patrol-scrub vs. corruption sweep
//	cmsim -doublefault                   # E18 double-failure sweep (single parity vs P+Q)
//	cmsim -reconfig                      # E19 drain-under-prime-time reconfiguration sweep
//	cmsim -scenario primetime-flashcrowd-rebuild   # internet-scale scenario day
//	cmsim -scenario day.json -timeline tl.csv      # custom profile, timeline to CSV
//	cmsim -scenario list                 # list the builtin scenarios
//	cmsim -scenario primetime-autopilot -autopilot # closed-loop: autopilot drives reconfig
//	cmsim -scenariosweep                 # E20 flash-crowd-during-node-loss sweep
//	cmsim -autopilotsweep                # E21 closed-vs-open-loop reject curves
//	cmsim -corrupt 5@100:40 -scrub -1    # rot 40 blocks of disk 5 at t=100s
//	cmsim -dynamic                       # §5 dynamic reservation controller
//	cmsim -csv                           # CSV output (-grid, -continuity, -integrity)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ftcms/internal/analytic"
	"ftcms/internal/autopilot"
	"ftcms/internal/cliutil"
	"ftcms/internal/diskmodel"
	"ftcms/internal/experiments"
	"ftcms/internal/scenario"
	"ftcms/internal/sim"
	"ftcms/internal/trace"
	"ftcms/internal/units"
)

func main() {
	grid := flag.Bool("grid", false, "run the full Figure 6 grid (both buffer sizes)")
	ablation := flag.Bool("ablation", false, "run the E8 admission-policy ablation")
	continuity := flag.Bool("continuity", false, "run the E10 failure-continuity experiment")
	schemeFlag := flag.String("scheme", "declustered", "scheme: "+strings.Join(cliutil.SchemeNames(), ", "))
	p := flag.Int("p", 4, "parity group size")
	bufferFlag := flag.String("buffer", "256MB", "server buffer (e.g. 256MB, 2GB)")
	seed := flag.Int64("seed", 1, "random seed")
	duration := flag.Float64("duration", 600, "simulated seconds")
	rate := flag.Float64("rate", 20, "Poisson arrival rate (requests/second)")
	failDisk := flag.Int("fail", -1, "disk to fail (-1: none)")
	failAt := flag.Float64("failat", 0, "failure time (seconds)")
	rebuildFlag := flag.Bool("rebuild", false, "rebuild the failed disk online from spare bandwidth")
	dynamic := flag.Bool("dynamic", false, "use the §5 dynamic reservation controller (declustered only)")
	bypass := flag.Int("bypass", 0, "pending-list bypass window (0: default 256, -1: strict FIFO)")
	csvOut := flag.Bool("csv", false, "emit CSV instead of tables (-grid and -continuity)")
	batch := flag.Float64("batch", 0, "batching window in seconds (0: off): requests piggyback on same-clip streams")
	mixed := flag.Bool("mixed", false, "run the E16 mixed-rate workload (audio + MPEG-1 + MPEG-2, declustered)")
	integrity := flag.Bool("integrity", false, "run the E17 patrol-scrub vs. silent-corruption sweep")
	doublefault := flag.Bool("doublefault", false, "run the E18 double-failure sweep (single parity vs P+Q)")
	reconfig := flag.Bool("reconfig", false, "run the E19 drain-under-prime-time reconfiguration sweep")
	scenarioFlag := flag.String("scenario", "", "run a scenario day: a builtin name, a profile JSON file, or 'list'")
	scenarioSweep := flag.Bool("scenariosweep", false, "run the E20 flash-crowd-during-node-loss sweep")
	autopilotFlag := flag.Bool("autopilot", false, "run the scenario closed-loop: the autopilot drives all reconfiguration")
	autopilotSweep := flag.Bool("autopilotsweep", false, "run the E21 closed-vs-open-loop sweep")
	timelineFlag := flag.String("timeline", "", "write the scenario timeline here (.json for JSON, else CSV; '-' for stdout)")
	subscribers := flag.Int64("subscribers", 0, "override the scenario profile's subscriber count")
	timescale := flag.Float64("timescale", 0, "override the scenario profile's time compression factor")
	nodes := flag.Int("nodes", 0, "scenario cluster size (0: default 3; 1: single array)")
	replication := flag.Int("rep", 0, "scenario replication factor (0: default 2)")
	scrub := flag.Int("scrub", 0, "patrol scrub rate in verify reads per disk per round (0: off, -1: idle-bounded)")
	corrupt := flag.String("corrupt", "", "silent-corruption script: disk@sec:blocks[,disk@sec:blocks...]")
	workers := flag.Int("workers", 0, "parallel sweep workers for -grid (0: one per CPU, 1: sequential)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	buffer, err := cliutil.ParseSize(*bufferFlag)
	if err != nil {
		fatal(err)
	}

	stopProfiling, err := cliutil.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiling()

	switch {
	case *scenarioFlag != "":
		if err := runScenario(*scenarioFlag, scenarioOpts{
			timeline: *timelineFlag, csv: *csvOut, seed: *seed, workers: *workers,
			subscribers: *subscribers, timescale: *timescale,
			nodes: *nodes, replication: *replication,
			autopilot: *autopilotFlag,
		}); err != nil {
			fatal(err)
		}
	case *autopilotSweep:
		cfg := experiments.AutopilotSweepConfig{Seed: *seed, Workers: *workers}
		if *subscribers > 0 {
			cfg.Subscribers = *subscribers
		}
		if *timescale > 0 {
			cfg.TimeScale = *timescale
		}
		if *csvOut {
			pts, err := experiments.AutopilotSweep(cfg)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteAutopilotCSV(os.Stdout, pts); err != nil {
				fatal(err)
			}
			return
		}
		if err := experiments.WriteAutopilotSweep(os.Stdout, cfg); err != nil {
			fatal(err)
		}
	case *scenarioSweep:
		cfg := experiments.ScenarioSweepConfig{Seed: *seed, Workers: *workers}
		if *subscribers > 0 {
			cfg.Subscribers = *subscribers
		}
		if *timescale > 0 {
			cfg.TimeScale = *timescale
		}
		if *csvOut {
			pts, err := experiments.ScenarioSweep(cfg)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteScenarioCSV(os.Stdout, pts); err != nil {
				fatal(err)
			}
			return
		}
		if err := experiments.WriteScenarioSweep(os.Stdout, cfg); err != nil {
			fatal(err)
		}
	case *mixed:
		res, err := sim.RunMixed(sim.MixedConfig{
			Disk: diskmodel.Default(), D: 32, P: *p, F: 2, Buffer: buffer,
			Mix: []analytic.RateClass{
				{Name: "audio", Rate: 256 * units.Kbps, Share: 0.3},
				{Name: "mpeg1", Rate: 1.5 * units.Mbps, Share: 0.5},
				{Name: "mpeg2", Rate: 4 * units.Mbps, Share: 0.2},
			},
			ClipLength: 50 * units.Second, ArrivalRate: *rate,
			Duration: units.Duration(*duration), Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mixed workload (30%% audio / 50%% MPEG-1 / 20%% MPEG-2), p=%d, B=%v\n", *p, buffer)
		fmt.Printf("round duration    %v\n", res.Round)
		fmt.Printf("serviced          %d (audio %d, mpeg1 %d, mpeg2 %d)\n",
			res.Serviced, res.PerClass[0], res.PerClass[1], res.PerClass[2])
		fmt.Printf("peak concurrent   %d\n", res.PeakActive)
		fmt.Printf("max queue         %d\n", res.MaxQueue)
	case *grid:
		for _, b := range experiments.BufferSizes {
			if *csvOut {
				pts, err := experiments.Figure6(experiments.Figure6Config{Buffer: b, Seed: *seed, Workers: *workers})
				if err != nil {
					fatal(err)
				}
				if err := trace.WriteFigure6CSV(os.Stdout, pts); err != nil {
					fatal(err)
				}
				continue
			}
			if err := experiments.WriteFigure6(os.Stdout, experiments.Figure6Config{Buffer: b, Seed: *seed, Workers: *workers}); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	case *ablation:
		if err := experiments.WriteAdmissionAblation(os.Stdout, buffer, *seed); err != nil {
			fatal(err)
		}
	case *integrity:
		if *csvOut {
			pts, err := experiments.CorruptionSweep(buffer, *seed)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteCorruptionCSV(os.Stdout, pts); err != nil {
				fatal(err)
			}
			return
		}
		if err := experiments.WriteCorruptionSweep(os.Stdout, buffer, *seed); err != nil {
			fatal(err)
		}
	case *doublefault:
		if *csvOut {
			pts, err := experiments.DoubleFaultSweep(*seed)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteDoubleFaultCSV(os.Stdout, pts); err != nil {
				fatal(err)
			}
			return
		}
		if err := experiments.WriteDoubleFaultSweep(os.Stdout, *seed); err != nil {
			fatal(err)
		}
	case *reconfig:
		if *csvOut {
			pts, err := experiments.ReconfigSweep(experiments.ReconfigSweepConfig{Buffer: buffer, Seed: *seed})
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteViewCSV(os.Stdout, pts); err != nil {
				fatal(err)
			}
			return
		}
		if err := experiments.WriteReconfigSweep(os.Stdout, experiments.ReconfigSweepConfig{Buffer: buffer, Seed: *seed}); err != nil {
			fatal(err)
		}
	case *continuity:
		if *csvOut {
			pts, err := experiments.FailureContinuity(buffer, *seed)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteContinuityCSV(os.Stdout, pts); err != nil {
				fatal(err)
			}
			return
		}
		if err := experiments.WriteFailureContinuity(os.Stdout, buffer, *seed); err != nil {
			fatal(err)
		}
	default:
		scheme, err := cliutil.ResolveScheme(*schemeFlag)
		if err != nil {
			fatal(err)
		}
		if _, err := cliutil.ParseGeometry(32, *p); err != nil {
			fatal(err)
		}
		corruptions, err := parseCorruptions(*corrupt)
		if err != nil {
			fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Scheme:      scheme,
			Dynamic:     *dynamic,
			Disk:        diskmodel.Default(),
			D:           32,
			P:           *p,
			Buffer:      buffer,
			Catalog:     experiments.PaperCatalog(),
			ArrivalRate: *rate,
			Duration:    units.Duration(*duration),
			Seed:        *seed,
			QueueBypass: *bypass,
			FailDisk:    *failDisk,
			FailAt:      units.Duration(*failAt),
			Rebuild:     *rebuildFlag,
			BatchWindow: units.Duration(*batch),
			ScrubRate:   *scrub,
			Corruptions: corruptions,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scheme            %v (p=%d, dynamic=%v)\n", scheme, *p, *dynamic)
		fmt.Printf("operating point   b=%v q=%d f=%d\n", res.Block, res.Q, res.F)
		fmt.Printf("rounds            %d\n", res.Rounds)
		fmt.Printf("serviced          %d\n", res.Serviced)
		if *batch > 0 {
			fmt.Printf("batched           %d\n", res.Batched)
		}
		fmt.Printf("completed         %d\n", res.Completed)
		fmt.Printf("peak concurrent   %d\n", res.PeakActive)
		fmt.Printf("mean response     %v\n", res.MeanResponse)
		fmt.Printf("p95 response      %v\n", res.ResponseP95)
		fmt.Printf("max queue         %d\n", res.MaxQueue)
		if len(corruptions) > 0 {
			fmt.Printf("corruptions       %d injected, %d detected, %d repaired\n",
				res.CorruptionsInjected, res.CorruptionsDetected, res.CorruptionsRepaired)
			if res.CorruptionsDetected > 0 {
				fmt.Printf("mean detection    %v\n", res.MeanDetection)
			}
			fmt.Printf("scrub sweeps      %d\n", res.ScrubSweeps)
		}
		if *failDisk >= 0 {
			fmt.Printf("deadline misses   %d\n", res.DeadlineMisses)
			fmt.Printf("lost blocks       %d\n", res.LostBlocks)
			if *rebuildFlag {
				if res.RebuildDone {
					fmt.Printf("rebuild           finished in %v\n", res.RebuildTime)
				} else {
					fmt.Printf("rebuild           did not finish within the run\n")
				}
			}
		}
	}
}

// scenarioOpts carries the CLI knobs for one -scenario run.
type scenarioOpts struct {
	timeline           string
	csv                bool
	seed               int64
	workers            int
	subscribers        int64
	timescale          float64
	nodes, replication int
	autopilot          bool
}

// loadProfile resolves a -scenario argument: a builtin name first, then
// a profile JSON file on disk.
func loadProfile(arg string) (scenario.Profile, error) {
	if p, err := scenario.BuiltinProfile(arg); err == nil {
		return p, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return scenario.Profile{}, fmt.Errorf("scenario %q is neither a builtin (%s) nor a readable file: %w",
			arg, strings.Join(scenario.BuiltinNames(), ", "), err)
	}
	return scenario.Parse(data)
}

// runScenario executes one scenario day and prints a summary; the
// per-bucket timeline goes wherever -timeline (or -csv) points.
func runScenario(arg string, opts scenarioOpts) error {
	if arg == "list" {
		for _, name := range scenario.BuiltinNames() {
			fmt.Println(name)
		}
		return nil
	}
	p, err := loadProfile(arg)
	if err != nil {
		return err
	}
	if opts.subscribers > 0 {
		p.Subscribers = opts.subscribers
	}
	if opts.timescale > 0 {
		p.TimeScale = opts.timescale
	}
	compiled, err := scenario.Compile(p)
	if err != nil {
		return err
	}
	rc := scenario.RunConfig{
		Scenario:    compiled,
		Seed:        opts.seed,
		Nodes:       opts.nodes,
		Replication: opts.replication,
		Workers:     opts.workers,
	}
	if opts.autopilot {
		rc.Autopilot = &autopilot.Config{}
	}
	res, err := scenario.Run(rc)
	if err != nil {
		return err
	}

	engine := "cluster"
	if !res.Cluster {
		engine = "single array"
	}
	prof := compiled.Profile
	fmt.Printf("scenario          %s (%s)\n", res.Name, engine)
	fmt.Printf("population        %d subscribers, %g sessions/day, catalog %d (zipf %g)\n",
		prof.Subscribers, prof.SessionsPerDay, prof.CatalogSize, prof.Zipf)
	fmt.Printf("virtual day       %g h at %g× compression = %v simulated\n",
		prof.DayHours, prof.TimeScale, res.Duration)
	fmt.Printf("offered           %d\n", res.Offered)
	fmt.Printf("serviced          %d\n", res.Serviced)
	fmt.Printf("rejected          %d\n", res.Rejected)
	if opts.autopilot {
		fmt.Printf("shed              %d\n", res.Shed)
	}
	fmt.Printf("completed         %d\n", res.Completed)
	fmt.Printf("peak concurrent   %d\n", res.PeakActive)
	fmt.Printf("mean response     %v\n", res.MeanResponse)
	fmt.Printf("p95 response      %v\n", res.ResponseP95)
	fmt.Printf("max queue         %d\n", res.MaxQueue)
	if res.Cluster {
		cr := res.ClusterRes
		fmt.Printf("maintenance       %d failures, %d joins, %d drains, %d disk adds\n",
			cr.NodeFailures, cr.Joins, cr.Drains, cr.DiskAdds)
		fmt.Printf("stream movement   %d failed over, %d lost, %d migrated\n",
			cr.FailedOver, cr.LostStreams, cr.MigratedStreams)
		fmt.Printf("view version      %d\n", res.ViewVersion)
		if opts.autopilot {
			fmt.Printf("autopilot         %d actions\n", len(res.Actions))
			for _, a := range res.Actions {
				fmt.Printf("  %s\n", a)
			}
		}
	} else if res.Single.RebuildsDone > 0 {
		fmt.Printf("rebuilds          %d (first finished in %v)\n",
			res.Single.RebuildsDone, res.Single.RebuildTime)
	}
	fmt.Printf("timeline          %d buckets of %v\n", len(res.Timeline), compiled.Bucket())

	dest := opts.timeline
	if dest == "" && opts.csv {
		dest = "-"
	}
	if dest == "" {
		return nil
	}
	out := os.Stdout
	if dest != "-" {
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if strings.HasSuffix(dest, ".json") {
		return trace.WriteTimelineJSON(out, res.Timeline)
	}
	return trace.WriteTimelineCSV(out, res.Timeline)
}

// parseCorruptions parses "disk@sec:blocks[,disk@sec:blocks...]" into a
// silent-corruption script.
func parseCorruptions(s string) ([]sim.CorruptionEvent, error) {
	if s == "" {
		return nil, nil
	}
	var out []sim.CorruptionEvent
	for _, part := range strings.Split(s, ",") {
		var disk, blocks int
		var sec float64
		if _, err := fmt.Sscanf(part, "%d@%f:%d", &disk, &sec, &blocks); err != nil {
			return nil, fmt.Errorf("bad -corrupt entry %q (want disk@sec:blocks): %v", part, err)
		}
		out = append(out, sim.CorruptionEvent{
			Disk:   disk,
			At:     units.Duration(sec) * units.Second,
			Blocks: blocks,
		})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmsim:", err)
	os.Exit(1)
}
