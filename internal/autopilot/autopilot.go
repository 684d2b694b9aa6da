// Package autopilot closes the loop between the workload signals the
// cluster tier already produces and the §14 reconfiguration mechanisms
// it already implements. A Controller consumes one Signals snapshot per
// round and emits at most one Action: scale-out (join a node) on
// sustained admission rejects, scale-in (drain a node) off-peak,
// spare-node replacement after a detector-confirmed node loss, and a
// graceful-degradation shed mode that turns away new lean-back sessions
// before VCR resumes when no capacity action can land in time.
//
// The controller is deliberately boring: a pure deterministic state
// machine over the signal stream. No clocks, no randomness, no
// goroutines — the same signals in the same order produce a
// byte-identical action trace, which is what makes closed-loop scenario
// runs replayable at any GOMAXPROCS. Robustness comes from three
// guards layered on the thresholds:
//
//   - hysteresis: a threshold must hold for a fixed number of
//     consecutive rounds before the action arms, so one bad round (or a
//     flash crowd's leading edge) cannot flap the cluster;
//   - per-action cooldowns: after an action fires, its kind is locked
//     out for a fixed number of rounds, bounding the action rate no
//     matter how the load oscillates;
//   - interlocks: scale-in never runs below the replication floor, never
//     runs while a failure is unresolved or a rebuild/migration is in
//     flight, and only one reconfiguration is in flight at a time.
//     Suppressed decisions record the interlock reason for STATS.
package autopilot

import (
	"fmt"

	"ftcms/internal/admission"
)

// Kind enumerates the controller's actions.
type Kind uint8

const (
	// ScaleOut joins a fresh node on sustained admission rejects.
	ScaleOut Kind = iota
	// ScaleIn drains the least-loaded surplus node off-peak.
	ScaleIn
	// Replace joins a spare node after a confirmed node loss.
	Replace
	// ShedStart begins turning away new lean-back admissions.
	ShedStart
	// ShedStop ends the shed mode once the backlog clears.
	ShedStop
	numKinds
)

var kindNames = [numKinds]string{"scale-out", "scale-in", "replace", "shed-start", "shed-stop"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Action is one decision the controller issued.
type Action struct {
	// Round is the signal round the action fired on.
	Round int64
	// Kind is what to do.
	Kind Kind
	// Node is the drain target for ScaleIn and -1 otherwise (joins pick
	// their own id).
	Node int
	// Reason is a short static explanation for logs and STATS.
	Reason string
}

// String renders one trace line; the acceptance tests compare whole
// traces byte for byte.
func (a Action) String() string {
	if a.Node >= 0 {
		return fmt.Sprintf("round=%d %s node=%d %s", a.Round, a.Kind, a.Node, a.Reason)
	}
	return fmt.Sprintf("round=%d %s %s", a.Round, a.Kind, a.Reason)
}

// Signals is one round's worth of observations. Every field is derived
// from quantities the engines already maintain deterministically, so
// feeding the controller adds no allocation and no new sources of
// nondeterminism.
type Signals struct {
	// Round is the current round number.
	Round int64
	// Rejects counts requests lost this round: queue abandonments in the
	// simulator, synchronous admission refusals in the live cluster.
	Rejects int
	// QueueDepth is the pending-request backlog after this round's
	// admissions (0 for tiers without a queue).
	QueueDepth int
	// Active and Capacity are the cluster's in-flight stream count and
	// total admission slots over active nodes; their ratio is the
	// utilization the scale-in rule watches.
	Active, Capacity int
	// ActiveNodes counts nodes currently serving and accepting streams.
	ActiveNodes int
	// NodeLosses counts detector-confirmed permanent node losses so far
	// (cumulative; restarts that rejoin do not count). The controller
	// replaces each loss once.
	NodeLosses int
	// Rebuilding reports a rebuild or repair in flight anywhere.
	Rebuilding bool
	// Reconfiguring reports an in-flight reconfiguration (drain,
	// migration, re-layout). The controller will not stack another.
	Reconfiguring bool
	// DrainCandidate is the preferred scale-in target (least-loaded
	// surplus node), or -1 when nothing is safely drainable.
	DrainCandidate int
}

// The policy thresholds: the values every engine runs.
const (
	// window is the reject window width W in rounds.
	window = 16
	// scaleOutRejects arms scale-out when the window's reject sum
	// reaches it: any sustained rejection is capacity the cluster should
	// add.
	scaleOutRejects = 1
	// scaleOutHold is how many consecutive rounds the window must stay
	// over threshold before scale-out fires.
	scaleOutHold = 4
	// scaleOutCooldown locks out further scale-outs for this many rounds
	// after one fires.
	scaleOutCooldown = 4 * window
	// growth is how many nodes scale-out may add beyond minNodes.
	// Replacements are budgeted separately.
	growth = 2
	// scaleInUtil arms scale-in when utilization stays below it with an
	// empty window and queue.
	scaleInUtil = 0.5
	// scaleInHold is the consecutive-round hold for scale-in: leaving is
	// much cheaper to delay than arriving.
	scaleInHold = 4 * window
	// scaleInCooldown locks out further scale-ins.
	scaleInCooldown = 4 * window
	// spares is the replacement budget: how many lost nodes the
	// controller may replace.
	spares = 1
	// replaceCooldown spaces replacements.
	replaceCooldown = window
	// shedQueue starts shedding when the backlog reaches it for shedHold
	// rounds; shedExit stops it once the backlog falls to it. Shedding
	// needs no cooldown: the disjoint start/stop thresholds plus the hold
	// are the hysteresis.
	shedQueue, shedExit = 256, 32
	// shedHold is the consecutive-round hold for entering and leaving
	// the shed mode.
	shedHold = 4
)

// Interlock reasons are static strings so recording one never allocates.
const (
	lockReconfig = "reconfiguration in flight"
	lockRebuild  = "rebuild in flight"
	lockFailure  = "node failure unresolved"
	lockFloor    = "at replication floor"
	lockBudget   = "node budget exhausted"
	lockSpares   = "spare budget exhausted"
	lockCooldown = "cooldown"
	lockNoTarget = "no drain candidate"
)

// Controller is the policy state machine. Not safe for concurrent use;
// callers drive it from their own round loop.
type Controller struct {
	// minNodes is the replication-safety floor scale-in never crosses:
	// the membership when the engine attached the controller.
	minNodes             int
	window               *admission.RejectWindow
	overFor              int // consecutive rounds with window sum ≥ scaleOutRejects
	underFor             int // consecutive rounds idle enough to scale in
	shedHiFor, shedLoFor int
	cooldownUntil        [numKinds]int64
	shedding             bool
	replaced             int // losses replaced
	actions              []Action
	last                 Action
	hasLast              bool
	interlock            string // why the most recent armed decision was suppressed
	round                int64
}

// New builds a controller that never scales in below minNodes nor out
// beyond minNodes+2.
func New(minNodes int) *Controller {
	return &Controller{
		minNodes: minNodes,
		window:   admission.NewRejectWindow(window),
	}
}

// Shedding reports whether the degradation mode is on; the serving tier
// consults it before admitting new lean-back sessions.
func (c *Controller) Shedding() bool { return c.shedding }

// Actions returns the full decision trace in firing order. The slice is
// the controller's own; callers must not mutate it.
func (c *Controller) Actions() []Action { return c.actions }

// cool reports whether kind k is out of cooldown at round r.
func (c *Controller) cool(k Kind, r int64) bool { return r >= c.cooldownUntil[k] }

// fire records an action and starts its cooldown.
func (c *Controller) fire(k Kind, node int, reason string, cooldown int64) Action {
	a := Action{Round: c.round, Kind: k, Node: node, Reason: reason}
	c.cooldownUntil[k] = c.round + cooldown
	c.actions = append(c.actions, a)
	c.last = a
	c.hasLast = true
	c.interlock = ""
	return a
}

// Observe feeds one round of signals and returns the action to apply,
// if any. At most one action fires per round; replacement outranks
// scale-out, which outranks shed transitions, which outrank scale-in.
// When no action is pending the call is allocation-free.
func (c *Controller) Observe(s Signals) (Action, bool) {
	c.round = s.Round
	c.window.Observe(s.Rejects)

	// Hysteresis counters advance every round regardless of interlocks,
	// so a blocked decision fires as soon as the lock clears instead of
	// re-accumulating from zero.
	if c.window.Sum() >= scaleOutRejects {
		c.overFor++
	} else {
		c.overFor = 0
	}
	idle := c.window.Sum() == 0 && s.QueueDepth == 0 &&
		s.Capacity > 0 && float64(s.Active) < scaleInUtil*float64(s.Capacity)
	if idle {
		c.underFor++
	} else {
		c.underFor = 0
	}
	if s.QueueDepth >= shedQueue {
		c.shedHiFor++
	} else {
		c.shedHiFor = 0
	}
	if s.QueueDepth <= shedExit {
		c.shedLoFor++
	} else {
		c.shedLoFor = 0
	}

	// 1. Replace a confirmed node loss from the spare budget.
	if s.NodeLosses > c.replaced {
		switch {
		case c.replaced >= spares:
			c.interlock = lockSpares
		case s.Reconfiguring:
			c.interlock = lockReconfig
		case !c.cool(Replace, s.Round):
			c.interlock = lockCooldown
		default:
			c.replaced++
			return c.fire(Replace, -1, "node loss confirmed", replaceCooldown), true
		}
	}

	// 2. Scale out on sustained rejects.
	if c.overFor >= scaleOutHold {
		switch {
		case s.ActiveNodes >= c.minNodes+growth:
			c.interlock = lockBudget
		case s.Reconfiguring:
			c.interlock = lockReconfig
		case !c.cool(ScaleOut, s.Round):
			c.interlock = lockCooldown
		default:
			c.overFor = 0
			return c.fire(ScaleOut, -1, "sustained rejects", scaleOutCooldown), true
		}
	}

	// 3. Shed-mode transitions: admission-level, so they are exempt
	// from the reconfiguration interlock — degradation must be able to
	// engage exactly when the cluster is busiest.
	if !c.shedding && c.shedHiFor >= shedHold {
		c.shedding = true
		return c.fire(ShedStart, -1, "backlog over shed threshold", 0), true
	}
	if c.shedding && c.shedLoFor >= shedHold {
		c.shedding = false
		return c.fire(ShedStop, -1, "backlog cleared", 0), true
	}

	// 4. Scale in off-peak.
	if c.underFor >= scaleInHold {
		switch {
		case s.NodeLosses > c.replaced || s.Rebuilding:
			// Abort, don't defer: shrinking while degraded is never right.
			c.underFor = 0
			if s.Rebuilding {
				c.interlock = lockRebuild
			} else {
				c.interlock = lockFailure
			}
		case s.Reconfiguring:
			c.interlock = lockReconfig
		case s.ActiveNodes <= c.minNodes:
			c.interlock = lockFloor
		case s.DrainCandidate < 0:
			c.interlock = lockNoTarget
		case !c.cool(ScaleIn, s.Round):
			c.interlock = lockCooldown
		default:
			c.underFor = 0
			return c.fire(ScaleIn, s.DrainCandidate, "sustained idle capacity", scaleInCooldown), true
		}
	}

	return Action{}, false
}

// Status is a STATS-friendly snapshot.
type Status struct {
	// Mode is "steady" or "shedding".
	Mode string
	// Actions is the total number of actions fired.
	Actions int
	// Last is the most recent action ("none" before the first).
	Last string
	// Cooldown is the largest remaining per-kind cooldown in rounds.
	Cooldown int64
	// Interlock is why the most recent armed decision was suppressed
	// ("" when nothing was).
	Interlock string
}

// Status reports the controller's externally visible state.
func (c *Controller) Status() Status {
	st := Status{Mode: "steady", Actions: len(c.actions), Last: "none", Interlock: c.interlock}
	if c.shedding {
		st.Mode = "shedding"
	}
	if c.hasLast {
		st.Last = c.last.String()
	}
	for k := Kind(0); k < numKinds; k++ {
		if rem := c.cooldownUntil[k] - c.round; rem > st.Cooldown {
			st.Cooldown = rem
		}
	}
	return st
}

// TraceString renders the full action trace, one line per action — the
// byte-identical replay artifact the determinism tests compare.
func TraceString(actions []Action) string {
	out := ""
	for _, a := range actions {
		out += a.String() + "\n"
	}
	return out
}
