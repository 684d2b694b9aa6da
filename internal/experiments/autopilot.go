package experiments

import (
	"fmt"

	"ftcms/internal/parallel"
	"ftcms/internal/scenario"
	"ftcms/internal/trace"
)

// AutopilotPoint is one flash-crowd-multiplier cell of E21: the
// prime-time day with a node lost at 19:45 and no scripted operator
// response, run twice — open loop (the cluster just rides it out
// degraded) and closed loop (the autopilot replaces the loss, scales
// out into the crowd and sheds lean-back arrivals) — so the columns
// are directly comparable reject curves.
type AutopilotPoint struct {
	// Multiplier is the flash crowd's rate multiplier (1 = no crowd).
	Multiplier float64
	// Offered counts requests the day offered (identical in both runs:
	// the arrival process does not depend on the controller).
	Offered int
	// Open* summarize the unattended run.
	OpenServiced, OpenRejected, OpenLost int
	// Closed* summarize the autopilot run. ClosedShed counts lean-back
	// arrivals the degradation mode turned away (disjoint from
	// ClosedRejected).
	ClosedServiced, ClosedRejected, ClosedShed, ClosedLost int
	// Actions is the closed-loop decision count; Joins the nodes the
	// controller added (scale-outs plus replacements).
	Actions, Joins int
}

// AutopilotSweep runs E21 over E20's configuration: each flash-crowd
// cell is the E20 day with the operator join removed — the 19:45 loss
// goes unanswered unless the controller answers it — run twice, open
// loop then closed loop, same seed and profile. Cells run in parallel;
// the two runs within a cell share nothing but the config, so
// determinism holds cell by cell.
func AutopilotSweep(cfg ScenarioSweepConfig) ([]AutopilotPoint, error) {
	cfg = cfg.withDefaults()
	return parallel.Map(len(scenarioMultipliers), func(k int) (AutopilotPoint, error) {
		mult := scenarioMultipliers[k]
		compiled, err := scenario.Compile(scenarioProfile(cfg, mult, false))
		if err != nil {
			return AutopilotPoint{}, fmt.Errorf("autopilot sweep ×%g: %w", mult, err)
		}
		rc := scenario.RunConfig{
			Scenario:    compiled,
			Seed:        cfg.Seed,
			Nodes:       scenarioNodes,
			Replication: scenarioReplication,
		}
		open, err := scenario.Run(rc)
		if err != nil {
			return AutopilotPoint{}, fmt.Errorf("autopilot sweep ×%g open: %w", mult, err)
		}
		rc.Autopilot = true
		closed, err := scenario.Run(rc)
		if err != nil {
			return AutopilotPoint{}, fmt.Errorf("autopilot sweep ×%g closed: %w", mult, err)
		}
		return AutopilotPoint{
			Multiplier:     mult,
			Offered:        open.Offered,
			OpenServiced:   open.Serviced,
			OpenRejected:   open.Rejected,
			OpenLost:       open.LostStreams,
			ClosedServiced: closed.Serviced,
			ClosedRejected: closed.Rejected,
			ClosedShed:     closed.Shed,
			ClosedLost:     closed.LostStreams,
			Actions:        len(closed.Actions),
			Joins:          closed.Joins,
		}, nil
	})
}

// AutopilotColumns is E21's table.
var AutopilotColumns = []trace.Column[AutopilotPoint]{
	trace.Col("multiplier", "crowd ×", func(pt AutopilotPoint) any { return pt.Multiplier }),
	trace.Col("offered", "offered", func(pt AutopilotPoint) any { return pt.Offered }),
	trace.Col("open_serviced", "open serviced", func(pt AutopilotPoint) any { return pt.OpenServiced }),
	trace.Col("open_rejected", "open rejected", func(pt AutopilotPoint) any { return pt.OpenRejected }),
	trace.Col("open_lost", "open lost", func(pt AutopilotPoint) any { return pt.OpenLost }),
	trace.Col("closed_serviced", "closed serviced", func(pt AutopilotPoint) any { return pt.ClosedServiced }),
	trace.Col("closed_rejected", "closed rejected", func(pt AutopilotPoint) any { return pt.ClosedRejected }),
	trace.Col("closed_shed", "closed shed", func(pt AutopilotPoint) any { return pt.ClosedShed }),
	trace.Col("closed_lost", "closed lost", func(pt AutopilotPoint) any { return pt.ClosedLost }),
	trace.Col("actions", "actions", func(pt AutopilotPoint) any { return pt.Actions }),
	trace.Col("joins", "joins", func(pt AutopilotPoint) any { return pt.Joins }),
}
