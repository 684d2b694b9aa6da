// Package reconfig implements versioned cluster views: the membership
// and geometry record that makes online reconfiguration auditable.
//
// A View is an immutable snapshot — a monotonically increasing version
// plus the member set with each node's lifecycle state and disk count.
// A Log owns the current view and applies explicit transitions (join,
// drain, retire, remove, disk-count change), bumping the version on
// every observable change. Consumers (the cluster tier, daemons, sim)
// key their guarantees to the version: admission is re-audited on every
// bump, so a stream admitted under view v is never hiccuped by the
// switch to v+1.
//
// The Log is deliberately not concurrency-safe: the cluster tier
// serializes all reconfiguration through its own lock, and the sim is
// single-threaded per round.
package reconfig

import "fmt"

// State is a member's lifecycle stage within a view.
type State int

const (
	// Active nodes serve streams and receive new placements.
	Active State = iota
	// Draining nodes keep serving their current streams but receive
	// no new placements; their clips are re-replicated elsewhere and
	// their streams migrated before the node retires.
	Draining
	// Retired nodes are out of the cluster: no streams, no probes, no
	// placements. Retirement is terminal.
	Retired
)

// String names the state for STATS lines and test failures.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Retired:
		return "retired"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Member is one node's entry in a view.
type Member struct {
	Node  int   // cluster-wide node id, stable across views
	State State // lifecycle stage
	Disks int   // array width (grows on AddDisk re-layout)
}

// View is an immutable membership snapshot. Version increases by
// exactly one on every observable transition and never moves backward.
type View struct {
	Version int64
	Members []Member
}

// Clone deep-copies the view so callers can hold it across later
// transitions.
func (v View) Clone() View {
	c := View{Version: v.Version}
	c.Members = append([]Member(nil), v.Members...)
	return c
}

// Member returns the entry for node, if present.
func (v View) Member(node int) (Member, bool) {
	for _, m := range v.Members {
		if m.Node == node {
			return m, true
		}
	}
	return Member{}, false
}

// Draining lists draining nodes in node order.
func (v View) Draining() []int {
	var out []int
	for _, m := range v.Members {
		if m.State == Draining {
			out = append(out, m.Node)
		}
	}
	return out
}

// Log owns the current view and applies transitions. The zero value is
// unusable; construct with NewLog.
type Log struct {
	view View
}

// NewLog starts a log at version 0 with the given already-active node
// geometry: disks[i] is node i's array width.
func NewLog(disks []int) *Log {
	l := &Log{}
	for i, d := range disks {
		l.view.Members = append(l.view.Members, Member{Node: i, State: Active, Disks: d})
	}
	return l
}

// View returns a copy of the current view.
func (l *Log) View() View { return l.view.Clone() }

// Version returns the current view version.
func (l *Log) Version() int64 { return l.view.Version }

// bump applies a mutation as a new view version.
func (l *Log) bump(mutate func(*View)) View {
	next := l.view.Clone()
	next.Version++
	mutate(&next)
	l.view = next
	return next.Clone()
}

// Join adds a new active member with the given disk count and returns
// its node id alongside the new view.
func (l *Log) Join(disks int) (int, View) {
	node := 0
	for _, m := range l.view.Members {
		if m.Node >= node {
			node = m.Node + 1
		}
	}
	v := l.bump(func(v *View) {
		v.Members = append(v.Members, Member{Node: node, State: Active, Disks: disks})
	})
	return node, v
}

// Drain marks an active node draining. Draining an already-draining
// node is idempotent: the current view is returned unchanged, with no
// version bump. Draining a retired or unknown node is an error.
func (l *Log) Drain(node int) (View, error) {
	m, ok := l.view.Member(node)
	if !ok {
		return View{}, fmt.Errorf("reconfig: drain of unknown node %d", node)
	}
	switch m.State {
	case Draining:
		return l.view.Clone(), nil // idempotent
	case Retired:
		return View{}, fmt.Errorf("reconfig: node %d already retired", node)
	}
	return l.setState(node, Draining), nil
}

// Retire completes a drain: the node must be draining. The caller is
// responsible for having moved every stream and replica off it first.
func (l *Log) Retire(node int) (View, error) {
	m, ok := l.view.Member(node)
	if !ok {
		return View{}, fmt.Errorf("reconfig: retire of unknown node %d", node)
	}
	if m.State != Draining {
		return View{}, fmt.Errorf("reconfig: retire of node %d in state %v (want draining)", node, m.State)
	}
	return l.setState(node, Retired), nil
}

// Remove retires a node immediately, from any non-retired state. The
// cluster tier pairs this with its failover path: streams on the node
// are re-opened elsewhere or lost, exactly as on a fail-stop.
func (l *Log) Remove(node int) (View, error) {
	m, ok := l.view.Member(node)
	if !ok {
		return View{}, fmt.Errorf("reconfig: remove of unknown node %d", node)
	}
	if m.State == Retired {
		return View{}, fmt.Errorf("reconfig: node %d already retired", node)
	}
	return l.setState(node, Retired), nil
}

// SetDisks records a node's new array width after an AddDisk
// re-layout. Equal width is a no-op (no version bump); shrinking is an
// error — disks are only ever added.
func (l *Log) SetDisks(node, disks int) (View, error) {
	m, ok := l.view.Member(node)
	if !ok {
		return View{}, fmt.Errorf("reconfig: setdisks of unknown node %d", node)
	}
	if m.State == Retired {
		return View{}, fmt.Errorf("reconfig: node %d already retired", node)
	}
	if disks == m.Disks {
		return l.view.Clone(), nil
	}
	if disks < m.Disks {
		return View{}, fmt.Errorf("reconfig: node %d disks %d -> %d would shrink", node, m.Disks, disks)
	}
	return l.bump(func(v *View) {
		for i := range v.Members {
			if v.Members[i].Node == node {
				v.Members[i].Disks = disks
			}
		}
	}), nil
}

func (l *Log) setState(node int, s State) View {
	return l.bump(func(v *View) {
		for i := range v.Members {
			if v.Members[i].Node == node {
				v.Members[i].State = s
			}
		}
	})
}
