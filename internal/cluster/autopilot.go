package cluster

import (
	"fmt"

	"ftcms/internal/autopilot"
	"ftcms/internal/core"
)

// Pilot binds an autopilot.Controller to a live Cluster. The caller
// drives it from the same loop (and under the same lock) that calls
// Tick: one Step per round, after the Tick, so the controller sees the
// round's final counters. Signal gathering walks the cluster's own
// bookkeeping — no Stats() calls — so a quiescent Step allocates
// nothing.
//
// Actions map onto the cluster's reconfiguration surface directly:
// scale-out and replace call JoinNode with the pilot's node template,
// scale-in calls DrainNode on the least-loaded pilot-added node, and
// the shed transitions only flip the mode the front end consults
// before admitting new sessions (Shedding).
type Pilot struct {
	c    *Cluster
	ctrl *autopilot.Controller
	// tmpl is the core.Config every autopilot-joined node is built
	// from; servers are deterministic, so reuse needs no per-join
	// variation.
	tmpl core.Config
	// base is the membership size at attach: nodes with id >= base were
	// added by the pilot and are the only scale-in candidates, so the
	// pilot never drains a node the operator configured.
	base    int
	enabled bool
	// lastRejected is the cluster reject counter at the previous Step;
	// the delta is this round's reject signal.
	lastRejected int
}

// NewPilot attaches a controller to the cluster. The template is the
// node configuration JoinNode uses for every scale-out and replacement.
// The controller's floor is the membership at attach time — the pilot
// never shrinks the cluster below what the operator built.
func NewPilot(c *Cluster, tmpl core.Config) *Pilot {
	return &Pilot{
		c:            c,
		ctrl:         autopilot.New(len(c.nodes)),
		tmpl:         tmpl,
		base:         len(c.nodes),
		enabled:      true,
		lastRejected: c.stats.Rejected,
	}
}

// Enabled reports whether Step is acting on observations.
func (p *Pilot) Enabled() bool { return p.enabled }

// SetEnabled turns the loop on or off. Disabling freezes the
// controller (no observations, no actions) rather than resetting it;
// re-enabling resumes with the reject baseline rebased so the outage
// window's rejects do not fire a stale scale-out.
func (p *Pilot) SetEnabled(on bool) {
	if on && !p.enabled {
		p.lastRejected = p.c.stats.Rejected
	}
	p.enabled = on
}

// Shedding reports whether the degradation mode is on. The front end
// consults it before admitting new sessions.
func (p *Pilot) Shedding() bool { return p.enabled && p.ctrl.Shedding() }

// Status exposes the controller's STATS snapshot.
func (p *Pilot) Status() autopilot.Status { return p.ctrl.Status() }

// Step observes one completed round and applies at most one action.
// Call it right after Cluster.Tick, under the same serialization. The
// returned bool reports whether an action fired; the error is the
// cluster's, if applying the action failed (the decision stays in the
// trace either way — the controller decided it, the cluster refused
// it).
func (p *Pilot) Step() (autopilot.Action, bool, error) {
	if !p.enabled {
		return autopilot.Action{}, false, nil
	}
	c := p.c
	rejects := c.stats.Rejected - p.lastRejected
	p.lastRejected = c.stats.Rejected

	// One pass over the membership gathers every per-node signal.
	// Capacity counts active nodes only (a draining node's slots are on
	// their way out); rebuild and drain anywhere lock scale-in.
	activeNodes, capacity := 0, 0
	rebuilding := false
	reconfiguring := len(c.jobs) > 0
	cand, candLoad := -1, 0
	for _, n := range c.nodes {
		if n.draining() {
			reconfiguring = true
		}
		if !n.serving() {
			continue
		}
		if n.srv.DegradedDisks() > 0 {
			rebuilding = true
		}
		if !n.placeable() {
			continue
		}
		activeNodes++
		capacity += (n.srv.Budget() - n.srv.Contingency()) * n.srv.Disks()
		if n.id >= p.base {
			if load := n.srv.ActiveStreams(); cand < 0 || load < candLoad {
				cand, candLoad = n.id, load
			}
		}
	}

	a, ok := p.ctrl.Observe(autopilot.Signals{
		Round:          c.round,
		Rejects:        rejects,
		QueueDepth:     len(c.pendingFailover),
		Active:         len(c.streams),
		Capacity:       capacity,
		ActiveNodes:    activeNodes,
		NodeLosses:     c.nodeLosses,
		Rebuilding:     rebuilding,
		Reconfiguring:  reconfiguring,
		DrainCandidate: cand,
	})
	if !ok {
		return a, false, nil
	}
	switch a.Kind {
	case autopilot.ScaleOut, autopilot.Replace:
		if _, err := c.JoinNode(p.tmpl); err != nil {
			return a, true, fmt.Errorf("cluster: autopilot %s: %w", a.Kind, err)
		}
	case autopilot.ScaleIn:
		if err := c.DrainNode(a.Node); err != nil {
			return a, true, fmt.Errorf("cluster: autopilot %s: %w", a.Kind, err)
		}
	}
	// Shed transitions change only the mode Shedding reports.
	return a, true, nil
}
