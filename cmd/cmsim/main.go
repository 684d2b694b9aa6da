// Command cmsim runs the paper's simulation study (§8.2): every
// simulated experiment of the registry in internal/experiments (`cmsim
// -exp list` prints names, ids and one-line descriptions; EXPERIMENTS.md
// has the measured tables), single runs, and scenario days.
//
// Usage:
//
//	cmsim -exp figure6                   # a registered experiment as a text table
//	cmsim -exp continuity -csv           # the same columns as CSV
//	cmsim -scheme non-clustered -p 8 -rate 10              # one run, metrics printed
//	cmsim -scenario primetime-flashcrowd-rebuild           # a scenario day (-scenario list)
//	cmsim -h                             # every single-run and scenario flag
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"ftcms/internal/cliutil"
	"ftcms/internal/diskmodel"
	"ftcms/internal/experiments"
	"ftcms/internal/scenario"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/trace"
	"ftcms/internal/units"
)

// modeFlags lists the flags each mode reads. Under -exp each registry
// entry names its own; experiments.Run refuses the rest.
var modeFlags = map[string]string{
	"-scenario":    "scenario autopilot timeline csv seed subscribers timescale nodes rep",
	"a single run": "scheme p buffer seed duration rate bypass",
}

func main() {
	var list strings.Builder
	experiments.Run(&list, "cmsim", "list", experiments.Params{}, false) // a Builder takes every write
	exp := flag.String("exp", "", "print a registered experiment as a text table (with -csv: as CSV); -exp list prints these:\n"+list.String())
	schemeFlag := flag.String("scheme", "declustered", "scheme: "+strings.Join(scheme.Names(sim.Models), ", "))
	p := flag.Int("p", 4, "parity group size")
	bufferFlag := flag.String("buffer", "", "server buffer (e.g. 256MB, 2GB); default 256MB, and with -exp also 2GB where the paper has two panels")
	seed := flag.Int64("seed", 1, "random seed")
	duration := flag.Float64("duration", 600, "simulated seconds")
	rate := flag.Float64("rate", 20, "Poisson arrival rate (requests/second)")
	bypass := flag.Int("bypass", 0, "pending-list bypass window (0: default 256, -1: strict FIFO)")
	csvOut := flag.Bool("csv", false, "with -exp: emit the table's columns as CSV; with -scenario: the timeline CSV to stdout")
	scenarioFlag := flag.String("scenario", "", "run a scenario day: a builtin name, a profile JSON file, or 'list'")
	autopilotFlag := flag.Bool("autopilot", false, "run the scenario closed-loop: the autopilot drives all reconfiguration")
	timelineFlag := flag.String("timeline", "", "write the scenario timeline here (.json for JSON, else CSV; '-' for stdout)")
	subscribers := flag.Int64("subscribers", 0, "override the scenario's (or scenario sweep's) subscriber count")
	timescale := flag.Float64("timescale", 0, "override the scenario's (or scenario sweep's) time compression factor")
	nodes := flag.Int("nodes", 0, "scenario cluster size (0: default 3; 1: single array)")
	replication := flag.Int("rep", 0, "scenario replication factor (0: default 2)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Each mode reads only its own flags (and the profiling pair); any
	// other flag on the command line belongs to another mode.
	if *exp == "" {
		mode := "a single run"
		if *scenarioFlag != "" {
			mode = "-scenario"
		}
		applies := strings.Fields(modeFlags[mode] + " cpuprofile memprofile")
		flag.Visit(func(f *flag.Flag) {
			if !slices.Contains(applies, f.Name) {
				fatal(fmt.Errorf("-%s does not apply to %s", f.Name, mode))
			}
		})
	}
	var buffer units.Bits
	if *bufferFlag != "" {
		var err error
		if buffer, err = cliutil.ParseSize(*bufferFlag); err != nil {
			fatal(err)
		}
	}

	stopProfiling, err := cliutil.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiling()

	switch {
	case *exp != "":
		if err := experiments.Run(os.Stdout, "cmsim", *exp, experiments.Params{
			Buffer: buffer, Seed: *seed,
			Subscribers: *subscribers, TimeScale: *timescale, Set: experiments.SetFlags(flag.CommandLine),
		}, *csvOut); err != nil {
			fatal(err)
		}
	case *scenarioFlag != "":
		if err := runScenario(*scenarioFlag, scenarioOpts{
			timeline: *timelineFlag, csv: *csvOut, seed: *seed,
			subscribers: *subscribers, timescale: *timescale,
			nodes: *nodes, replication: *replication,
			autopilot: *autopilotFlag,
		}); err != nil {
			fatal(err)
		}
	default:
		sc, err := scheme.Parse(*schemeFlag)
		if err != nil {
			fatal(err)
		}
		if _, err := cliutil.ParseGeometry(32, *p); err != nil {
			fatal(err)
		}
		if buffer == 0 {
			buffer = experiments.BufferSizes[0]
		}
		res, err := sim.Run(sim.Config{
			Scheme:      sc,
			Disk:        diskmodel.Default(),
			D:           32,
			P:           *p,
			Buffer:      buffer,
			Catalog:     experiments.PaperCatalog(),
			ArrivalRate: *rate,
			Duration:    units.Duration(*duration),
			Seed:        *seed,
			QueueBypass: *bypass,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scheme            %s (p=%d, dynamic=%v)\n", sc.Legend(), *p, sc.Dynamic())
		fmt.Printf("operating point   b=%v q=%d f=%d\n", res.Block, res.Q, res.F)
		fmt.Printf("rounds            %d\n", res.Rounds)
		fmt.Printf("serviced          %d\n", res.Serviced)
		fmt.Printf("completed         %d\n", res.Completed)
		fmt.Printf("peak concurrent   %d\n", res.PeakActive)
		fmt.Printf("mean response     %v\n", res.MeanResponse)
		fmt.Printf("p95 response      %v\n", res.ResponseP95)
		fmt.Printf("max queue         %d\n", res.MaxQueue)
	}
}

// scenarioOpts carries the CLI knobs for one -scenario run.
type scenarioOpts struct {
	timeline           string
	csv                bool
	seed               int64
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
		Autopilot:   opts.autopilot,
	}
	res, err := scenario.Run(rc)
	if err != nil {
		return err
	}

	single := opts.nodes == 1
	engine := "cluster"
	if single {
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
	if !single {
		fmt.Printf("maintenance       %d failures, %d joins, %d drains, %d disk adds\n",
			res.NodeFailures, res.Joins, res.Drains, res.DiskAdds)
		fmt.Printf("stream movement   %d failed over, %d lost, %d migrated\n",
			res.FailedOver, res.LostStreams, res.MigratedStreams)
		fmt.Printf("view version      %d\n", res.ViewVersion)
		if opts.autopilot {
			fmt.Printf("autopilot         %d actions\n", len(res.Actions))
			for _, a := range res.Actions {
				fmt.Printf("  %s\n", a)
			}
		}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmsim:", err)
	os.Exit(1)
}
