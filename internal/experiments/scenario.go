package experiments

import (
	"fmt"

	"ftcms/internal/parallel"
	"ftcms/internal/scenario"
	"ftcms/internal/trace"
)

// ScenarioPoint is one flash-crowd-multiplier cell of E20: the
// prime-time day with a node lost just before the crowd arrives and a
// replacement joining at the top of the hour, swept over how hard the
// crowd hits.
type ScenarioPoint struct {
	// Multiplier is the flash crowd's rate multiplier (1 = no crowd).
	Multiplier float64
	// Offered counts requests the day offered the cluster.
	Offered int
	// Serviced and Rejected split the offered load's outcome (the
	// remainder was still pending when the day ended).
	Serviced int
	Rejected int
	// PeakActive is the peak concurrent stream count.
	PeakActive int
	// FailedOver and LostStreams describe the 19:45 node loss.
	FailedOver  int
	LostStreams int
	// ViewVersion is the final membership view version.
	ViewVersion int64
}

// ScenarioSweepConfig parameterizes E20 and E21. Zero values select
// defaults.
type ScenarioSweepConfig struct {
	// Subscribers is the population per cell (default 200000 — large
	// enough to saturate prime time on a three-node cluster, small
	// enough to sweep quickly).
	Subscribers int64
	// TimeScale is the day's compression factor (default 480: a 24-hour
	// day in 180 simulated seconds).
	TimeScale float64
	// Seed drives all randomness (default 1).
	Seed int64
}

// E20's and E21's flash-crowd axis and cluster shape.
var scenarioMultipliers = []float64{1, 2, 4, 8}

const scenarioNodes, scenarioReplication = 3, 2

func (c ScenarioSweepConfig) withDefaults() ScenarioSweepConfig {
	if c.Subscribers <= 0 {
		c.Subscribers = 200000
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 480
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scenarioProfile builds one cell's profile: the flagship prime-time day
// with the flash multiplier as the swept variable and node 1 lost at
// 19:45. E20 has an operator join a replacement at 20:00; E21 does not.
func scenarioProfile(cfg ScenarioSweepConfig, mult float64, join bool) scenario.Profile {
	p := scenario.Profile{
		Name:        fmt.Sprintf("e20-flash-x%g", mult),
		TimeScale:   cfg.TimeScale,
		Subscribers: cfg.Subscribers,
		Zipf:        1.1,
		PatienceMin: 8,
		BucketMin:   60,
		Mix:         scenario.SessionMix{VCRShare: 0.3, Pause: 0.25, EarlyStop: 0.35, ResumeMin: 20},
		Phases: []scenario.Phase{
			{Kind: scenario.KindDiurnal, StartHour: 0, EndHour: 24, PeakHour: 20.5, MinFrac: 0.1},
			{Kind: scenario.KindFlashCrowd, StartHour: 20, EndHour: 21, Multiplier: mult, Clip: 0},
			{Kind: scenario.KindMaintenance, Action: scenario.ActionFail, Node: 1, Hour: 19.75},
		},
	}
	if join {
		p.Phases = append(p.Phases, scenario.Phase{Kind: scenario.KindMaintenance, Action: scenario.ActionJoin, Hour: 20})
	} else {
		p.Name = fmt.Sprintf("e21-autopilot-x%g", mult)
	}
	return p
}

// ScenarioSweep runs E20: the scenario engine's prime-time day with a
// node failure at 19:45 and a join at 20:00, over the flash-crowd
// multiplier axis. Cells run in parallel; each is independently seeded
// and deterministic.
func ScenarioSweep(cfg ScenarioSweepConfig) ([]ScenarioPoint, error) {
	cfg = cfg.withDefaults()
	return parallel.Map(len(scenarioMultipliers), func(k int) (ScenarioPoint, error) {
		mult := scenarioMultipliers[k]
		compiled, err := scenario.Compile(scenarioProfile(cfg, mult, true))
		if err != nil {
			return ScenarioPoint{}, fmt.Errorf("scenario sweep ×%g: %w", mult, err)
		}
		res, err := scenario.Run(scenario.RunConfig{
			Scenario:    compiled,
			Seed:        cfg.Seed,
			Nodes:       scenarioNodes,
			Replication: scenarioReplication,
		})
		if err != nil {
			return ScenarioPoint{}, fmt.Errorf("scenario sweep ×%g: %w", mult, err)
		}
		return ScenarioPoint{
			Multiplier:  mult,
			Offered:     res.Offered,
			Serviced:    res.Serviced,
			Rejected:    res.Rejected,
			PeakActive:  res.PeakActive,
			FailedOver:  res.FailedOver,
			LostStreams: res.LostStreams,
			ViewVersion: res.ViewVersion,
		}, nil
	})
}

// ScenarioColumns is E20's table.
var ScenarioColumns = []trace.Column[ScenarioPoint]{
	trace.Col("multiplier", "crowd ×", func(pt ScenarioPoint) any { return pt.Multiplier }),
	trace.Col("offered", "offered", func(pt ScenarioPoint) any { return pt.Offered }),
	trace.Col("serviced", "serviced", func(pt ScenarioPoint) any { return pt.Serviced }),
	trace.Col("rejected", "rejected", func(pt ScenarioPoint) any { return pt.Rejected }),
	trace.Col("peak_active", "peak active", func(pt ScenarioPoint) any { return pt.PeakActive }),
	trace.Col("failed_over", "failed over", func(pt ScenarioPoint) any { return pt.FailedOver }),
	trace.Col("lost_streams", "lost", func(pt ScenarioPoint) any { return pt.LostStreams }),
	trace.Col("view_version", "view", func(pt ScenarioPoint) any { return pt.ViewVersion }),
}
