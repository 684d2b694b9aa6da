package scenario

import (
	"fmt"

	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// The per-node shape every scenario runs: a declustered-parity array of
// 16 disks in parity groups of 4, with a 128 MB buffer.
const (
	nodeDisks  = 16
	nodeParity = 4
	nodeBuffer = 128 * units.MB
)

// RunConfig binds a compiled scenario to a cluster size. The zero value
// of every field selects a default, so {Scenario: c} is a runnable
// three-node declustered cluster.
type RunConfig struct {
	// Scenario is the compiled profile to run.
	Scenario *Compiled
	// Seed drives all randomness: arrivals, clip choice, session
	// behavior and placements.
	Seed int64
	// Nodes is the cluster size (default 3). 1 is a single array, which
	// rejects every maintenance action: they act on nodes.
	Nodes int
	// Replication is the clip replication factor (default 2, clamped to
	// Nodes).
	Replication int
	// Autopilot runs the scenario closed-loop: the policy controller
	// drives all reconfiguration, so the profile's operator
	// join/drain/adddisk maintenance is suppressed (faults — fail and
	// restart — still fire). Cluster runs only.
	Autopilot bool
}

// Result is a scenario run's outcome: the engine's result — service
// summary, stream movement, per-bucket timeline — plus what only the
// scenario knows.
type Result struct {
	sim.ClusterResult
	// Name echoes the profile name.
	Name string
	// Duration is the compressed day's simulated length.
	Duration units.Duration
	// Offered counts requests the scenario offered (admitted + rejected +
	// still pending at close).
	Offered int
}

func (rc RunConfig) withDefaults() RunConfig {
	if rc.Nodes == 0 {
		rc.Nodes = 3
	}
	if rc.Replication == 0 {
		rc.Replication = 2
	}
	if rc.Replication > rc.Nodes {
		rc.Replication = rc.Nodes
	}
	return rc
}

// Run executes a compiled scenario end to end: it builds the catalog and
// streaming arrival source, maps the maintenance schedule onto the
// simulator's node-failure and view traces (a cluster only) and runs it
// with a timeline collector sized by the profile's bucket width.
func Run(rc RunConfig) (Result, error) {
	if rc.Scenario == nil {
		return Result{}, fmt.Errorf("scenario: RunConfig needs a compiled scenario")
	}
	rc = rc.withDefaults()
	c := rc.Scenario
	p := c.Profile

	// The paper's clip shape at the profile's catalog size: 50-second
	// clips at MPEG-1 rate.
	catalog, err := workload.UniformCatalog(p.CatalogSize, 50*units.Second, 1.5*units.Mbps)
	if err != nil {
		return Result{}, err
	}
	clipLen := catalog.Clip(0).Length
	src, err := NewSource(c, clipLen, rc.Seed)
	if err != nil {
		return Result{}, err
	}

	node := sim.Config{
		Scheme:   scheme.Declustered,
		Disk:     diskmodel.Default(),
		D:        nodeDisks,
		P:        nodeParity,
		Buffer:   nodeBuffer,
		Catalog:  catalog,
		Duration: c.Duration(),
		Seed:     rc.Seed,
		Source:   src,
		Patience: c.Patience(),
		Timeline: &sim.TimelineConfig{Bucket: c.Bucket()},
	}

	out := Result{Name: p.Name, Duration: c.Duration()}
	if rc.Nodes == 1 {
		if rc.Autopilot {
			return Result{}, fmt.Errorf("scenario: autopilot needs a cluster (nodes > 1)")
		}
		if m := c.Maintenance(); len(m) > 0 {
			return Result{}, fmt.Errorf("scenario: maintenance action %q needs a cluster (nodes > 1)", m[0].Action)
		}
		out.Result, err = sim.Run(node)
	} else {
		ccfg := sim.ClusterConfig{
			Node:        node,
			Nodes:       rc.Nodes,
			Replication: rc.Replication,
			Autopilot:   rc.Autopilot,
		}
		for _, ev := range c.Maintenance() {
			switch ev.Action {
			case ActionFail, ActionRestart:
				ccfg.NodeTrace = append(ccfg.NodeTrace, sim.NodeFailure{Node: ev.Node, At: ev.At, Restart: ev.Action == ActionRestart})
			case ActionDrain, ActionJoin, ActionAddDisk:
				// The action names are the simulator's view-event kinds.
				// Closed-loop runs suppress operator reconfiguration: the
				// autopilot owns capacity. Faults above still fire.
				if !rc.Autopilot {
					ccfg.ViewTrace = append(ccfg.ViewTrace, sim.ViewEvent{Kind: ev.Action, Node: ev.Node, At: ev.At})
				}
			}
		}
		out.ClusterResult, err = sim.RunCluster(ccfg)
	}
	if err != nil {
		return Result{}, err
	}
	out.Offered = offered(out.Timeline)
	return out, nil
}

func offered(tl []sim.TimelineBucket) int {
	n := 0
	for _, b := range tl {
		n += int(b.Offered)
	}
	return n
}
