package experiments

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"ftcms/internal/trace"
	"ftcms/internal/units"
)

// Params are the values the command-line flags reach. An entry reads the
// ones its Flags name.
type Params struct {
	// Buffer is the server buffer; zero selects the entry's default (see
	// Experiment.Panels).
	Buffer units.Bits
	// Seed drives the simulated entries.
	Seed int64
	// Subscribers and TimeScale override the scenario sweeps' population
	// and day compression (0: the sweep's default).
	Subscribers int64
	TimeScale   float64
	// D and P are the array width and parity group size of the entries
	// that take a geometry.
	D, P int
	// Set names the flags given besides the shared ones (see SetFlags);
	// Run refuses any the entry does not read.
	Set []string
}

// Experiment is one registry entry: everything a command knows about an
// experiment.
type Experiment struct {
	// Name is the -exp argument; ID the experiment's number in
	// EXPERIMENTS.md; Cmd the command that lists it; Doc one line of help.
	Name, ID, Cmd, Doc string
	// Flags names the flags the entry reads besides the shared ones.
	Flags string
	// Panels marks the entries the paper runs at both buffer sizes: unless
	// -buffer is given they run once per BufferSizes element, and every
	// text panel ends with a blank line. The others default to 256 MB.
	Panels bool
	// Render runs the entry for one buffer size and writes its text form
	// or, when csv is set, its CSV; see table and plain.
	Render func(w io.Writer, p Params, csv bool) error
}

// Registry is the experiment table, in EXPERIMENTS.md order.
var Registry = []Experiment{
	{Name: "figure1", ID: "E1", Cmd: "cmopt", Doc: "Figure 1 disk parameter table", Render: plain(figure1)},
	{Name: "optimal", ID: "Fig.4", Cmd: "cmopt", Doc: "computeOptimal (Figure 4) per scheme; takes -d", Flags: "buffer d", Panels: true, Render: plain(optimal)},
	{Name: "figure5", ID: "E4/E5", Cmd: "cmopt", Doc: "Figure 5 analytic capacity vs parity group size", Flags: "buffer d", Panels: true,
		Render: table(Figure5Columns, trace.WritePivot, func(p Params) (string, []Figure5Point, error) {
			if p.D != 32 {
				return "", nil, fmt.Errorf("figure 5 is defined for d=32; use -exp optimal with -d")
			}
			pts, err := Figure5(p.Buffer)
			return fmt.Sprintf("Figure 5 — concurrent clips vs parity group size (analytic), d=32, B=%v", p.Buffer), pts, err
		})},
	{Name: "figure6", ID: "E6/E7", Cmd: "cmsim", Doc: "Figure 6 simulated clips serviced vs parity group size", Flags: "buffer seed", Panels: true,
		Render: table(Figure6Columns, trace.WritePivot, func(p Params) (string, []Figure6Point, error) {
			pts, err := Figure6(p.Buffer, p.Seed)
			return fmt.Sprintf("Figure 6 — clips serviced in %v (simulation), d=32, B=%v, Poisson(20/s), seed %d",
				figure6Duration, p.Buffer, p.Seed), pts, err
		})},
	{Name: "admission", ID: "E8", Cmd: "cmsim", Doc: "admission-policy ablation: static f, §5 dynamic, strict FIFO", Flags: "buffer seed",
		Render: table(AdmissionColumns, trace.WriteText, func(p Params) (string, []AdmissionAblationPoint, error) {
			pts, err := AdmissionAblation(p.Buffer, p.Seed)
			return fmt.Sprintf("E8 — admission policy ablation (declustered, B=%v)", p.Buffer), pts, err
		})},
	{Name: "staggered", ID: "E9", Cmd: "cmopt", Doc: "staggered-group buffering ablation", Flags: "buffer", Panels: true,
		Render: table(StaggeredColumns, trace.WriteText, func(p Params) (string, []StaggeredAblationPoint, error) {
			pts, err := StaggeredAblation(p.Buffer)
			return fmt.Sprintf("E9 — staggered-group buffering ablation (prefetch-flat, B=%v)", p.Buffer), pts, err
		})},
	{Name: "continuity", ID: "E10", Cmd: "cmsim", Doc: "failure continuity and online rebuild at full load (E12) on core.Server", Flags: "seed",
		Render: table(ContinuityColumns, trace.WriteText, func(p Params) (string, []ContinuityPoint, error) {
			pts, err := FailureContinuity(p.Seed)
			return fmt.Sprintf("E10/E12 — disk %d fails at round %d of %d under full load, one hot spare (core.Server, d=32, B=%v)",
				continuityDisk, continuityFailAt, continuityRounds, continuityBuffer), pts, err
		})},
	{Name: "rebuild", ID: "E11", Cmd: "cmopt", Doc: "rebuild time and MTTDL per operating point", Flags: "buffer", Panels: true,
		Render: table(RebuildColumns, trace.WriteText, func(p Params) (string, []RebuildPoint, error) {
			pts, err := RebuildAblation(p.Buffer)
			return fmt.Sprintf("E11 — rebuild time and MTTDL per operating point (B=%v, 2 GB disk, 300,000 h disk MTTF)", p.Buffer), pts, err
		})},
	{Name: "conservatism", ID: "E13", Cmd: "cmopt", Doc: "Equation 1 worst-case margin over measured round times", Flags: "buffer", Panels: true,
		Render: table(ConservatismColumns, trace.WriteText, func(p Params) (string, []ConservatismPoint, error) {
			const trials = 500
			pts, err := ConservatismAblation(p.Buffer, trials, 1)
			return fmt.Sprintf("E13 — Equation 1 worst-case conservatism (B=%v, %d trials)", p.Buffer, trials), pts, err
		})},
	{Name: "cluster", ID: "E14", Cmd: "cmsim", Doc: "cluster scaling and node-failure survival, nodes × replication", Flags: "buffer seed",
		Render: table(ClusterColumns, trace.WriteText, func(p Params) (string, []ClusterPoint, error) {
			pts, err := ClusterSweep(p.Buffer, p.Seed)
			return fmt.Sprintf("E14 — cluster scaling and node-failure survival (B=%v per node, λ=%g/s, %v, fail node 0 at %v)",
				p.Buffer, clusterArrivalRate, clusterDuration, clusterDuration/2), pts, err
		})},
	{Name: "integrity", ID: "E17", Cmd: "cmsim", Doc: "patrol scrub rate vs. a silent-corruption campaign", Flags: "seed",
		Render: table(CorruptionColumns, trace.WriteText, func(p Params) (string, []CorruptionPoint, error) {
			pts, err := CorruptionSweep(p.Seed)
			return fmt.Sprintf("E17 — patrol scrub vs. silent corruption (declustered d=13, p=4, %d clips, %d played; %d rotten cold blocks at round %d; %d rounds)",
				scrubClips, scrubHot, scrubRotBlocks, scrubRotAt, scrubRounds), pts, err
		})},
	{Name: "doublefault", ID: "E18", Cmd: "cmsim", Doc: "two overlapping disk failures: single parity vs P+Q", Flags: "seed",
		Render: table(DoubleFaultColumns, trace.WriteText, func(p Params) (string, []DoubleFaultPoint, error) {
			pts, err := DoubleFaultSweep(p.Seed)
			return "E18 — two overlapping disk failures in one parity group (d=13, p=4, 3 streams, 2 spares)", pts, err
		})},
	{Name: "mttdl", ID: "E18b", Cmd: "cmopt", Doc: "MTTDL vs storage overhead: single parity, P+Q, replication; takes -d -p", Flags: "d p",
		Render: table(MTTDLColumns, trace.WriteText, mttdlTradeoff)},
	{Name: "reconfig", ID: "E19", Cmd: "cmsim", Doc: "graceful node drain under prime-time load, with and without a join", Flags: "buffer seed",
		Render: table(ReconfigColumns, trace.WriteText, func(p Params) (string, []ReconfigPoint, error) {
			pts, err := ReconfigSweep(p.Buffer, p.Seed)
			return fmt.Sprintf("E19 — drain under prime time (%d nodes rep %d, B=%v per node, %v; join at %v, drain node 1 at %v)",
				reconfigNodes, reconfigReplication, p.Buffer, reconfigDuration, reconfigDuration/4, reconfigDuration/2), pts, err
		})},
	{Name: "scenariosweep", ID: "E20", Cmd: "cmsim", Doc: "flash crowd during node loss; takes -subscribers -timescale", Flags: "seed subscribers timescale",
		Render: table(ScenarioColumns, trace.WriteText, func(p Params) (string, []ScenarioPoint, error) {
			p = scenarioParams(p)
			pts, err := ScenarioSweep(p.Subscribers, p.TimeScale, p.Seed)
			return fmt.Sprintf("E20 — flash crowd during node loss (%d subscribers, %g× compressed day, %d nodes rep %d; fail 19:45, join 20:00, crowd 20:00–21:00)",
				p.Subscribers, p.TimeScale, scenarioNodes, scenarioReplication), pts, err
		})},
	{Name: "autopilotsweep", ID: "E21", Cmd: "cmsim", Doc: "closed vs open loop reject curves; takes -subscribers -timescale", Flags: "seed subscribers timescale",
		Render: table(AutopilotColumns, trace.WriteText, func(p Params) (string, []AutopilotPoint, error) {
			p = scenarioParams(p)
			pts, err := AutopilotSweep(p.Subscribers, p.TimeScale, p.Seed)
			return fmt.Sprintf("E21 — closed vs open loop (%d subscribers, %g× compressed day, %d nodes rep %d; fail 19:45 unanswered, crowd 20:00–21:00)",
				p.Subscribers, p.TimeScale, scenarioNodes, scenarioReplication), pts, err
		})},
}

// table is the Render of an entry that is a grid of points: it adapts
// the typed sweep, its column list and the text layout (trace.WriteText
// or trace.WritePivot).
func table[T any](cols []trace.Column[T], text func(io.Writer, string, []trace.Column[T], []T) error,
	sweep func(Params) (caption string, points []T, err error)) func(io.Writer, Params, bool) error {
	return func(w io.Writer, p Params, csv bool) error {
		caption, points, err := sweep(p)
		if err != nil {
			return err
		}
		if csv {
			return trace.WriteCSV(w, cols, points)
		}
		return text(w, caption, cols, points)
	}
}

// plain is the Render of an entry that is not a grid of points: a text
// writer, and an error instead of a CSV.
func plain(text func(io.Writer, Params) error) func(io.Writer, Params, bool) error {
	return func(w io.Writer, p Params, csv bool) error {
		if csv {
			return errors.New("not a table of points: it has no -csv form")
		}
		return text(w, p)
	}
}

// sharedFlags are read by every entry: the entry's name, the CSV switch
// and cmsim's profiling pair.
const sharedFlags = "exp csv cpuprofile memprofile"

// SetFlags names the flags set on fs besides the shared ones: the
// Params.Set that Run checks against the entry's Flags.
func SetFlags(fs *flag.FlagSet) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(sharedFlags), f.Name) {
			set = append(set, f.Name)
		}
	})
	return set
}

// Run is the one dispatcher behind `cmsim -exp` and `cmopt -exp`: it
// renders cmd's entry called name to w, as text or CSV, once per buffer
// size. The name "list" prints cmd's part of the table instead, and an
// unknown name is an error that carries it.
func Run(w io.Writer, cmd, name string, p Params, csv bool) error {
	var list strings.Builder
	for _, e := range Registry {
		if e.Cmd != cmd {
			continue
		}
		fmt.Fprintf(&list, "%-15s %-6s %s\n", e.Name, e.ID, e.Doc)
		if e.Name != name {
			continue
		}
		for _, f := range p.Set {
			if !slices.Contains(strings.Fields(e.Flags), f) {
				return fmt.Errorf("-%s does not apply to -exp %s", f, name)
			}
		}
		buffers := []units.Bits{p.Buffer}
		if p.Buffer == 0 {
			buffers = BufferSizes
			if !e.Panels {
				buffers = BufferSizes[:1]
			}
		}
		for _, p.Buffer = range buffers {
			if err := e.Render(w, p, csv); err != nil {
				return fmt.Errorf("-exp %s: %w", name, err)
			}
			if e.Panels && !csv {
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if name == "list" {
		if len(p.Set) > 0 {
			return fmt.Errorf("-%s does not apply to -exp list", p.Set[0])
		}
		_, err := io.WriteString(w, list.String())
		return err
	}
	return fmt.Errorf("unknown experiment %q; %s -exp takes:\n%s", name, cmd, strings.TrimSuffix(list.String(), "\n"))
}
