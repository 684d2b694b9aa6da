package reconfig

import "testing"

// Versions must increase by exactly one on every observable transition
// and never move backward, across every transition kind.
func TestViewVersionMonotonic(t *testing.T) {
	l := NewLog([]int{7, 7, 7})
	if got := l.Version(); got != 0 {
		t.Fatalf("fresh log version = %d, want 0", got)
	}
	last := l.Version()
	step := func(name string, v View, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Version != last+1 {
			t.Fatalf("%s: version %d, want %d", name, v.Version, last+1)
		}
		if l.Version() != v.Version {
			t.Fatalf("%s: log version %d != returned %d", name, l.Version(), v.Version)
		}
		last = v.Version
	}

	node, v := l.Join(5)
	step("join", v, nil)
	if node != 3 {
		t.Fatalf("join assigned node %d, want 3", node)
	}
	v, err := l.Drain(1)
	step("drain", v, err)
	v, err = l.SetDisks(0, 8)
	step("adddisk", v, err)
	v, err = l.Retire(1)
	step("retire", v, err)
	v, err = l.Remove(2)
	step("remove", v, err)

	// No-op transitions must not bump.
	if v, err := l.SetDisks(0, 8); err != nil || v.Version != last {
		t.Fatalf("same-width SetDisks: view %d err %v, want version %d and nil", v.Version, err, last)
	}
}

// Draining an already-draining node is a no-op, not an error and not a
// version bump — operators can safely re-issue DRAIN.
func TestDrainIdempotent(t *testing.T) {
	l := NewLog([]int{7, 7})
	v1, err := l.Drain(1)
	if err != nil {
		t.Fatalf("first drain: %v", err)
	}
	v2, err := l.Drain(1)
	if err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if v2.Version != v1.Version {
		t.Fatalf("double drain bumped version %d -> %d", v1.Version, v2.Version)
	}
	m, ok := v2.Member(1)
	if !ok || m.State != Draining {
		t.Fatalf("node 1 after double drain: %+v ok=%v, want draining", m, ok)
	}
	if _, err := l.Retire(1); err != nil {
		t.Fatalf("retire after double drain: %v", err)
	}
	if _, err := l.Drain(1); err == nil {
		t.Fatal("drain of retired node succeeded, want error")
	}
}

// Retirement is terminal and gated on draining; removal works from any
// live state and exactly once.
func TestRetireAndRemoveGuards(t *testing.T) {
	l := NewLog([]int{7, 7, 7})
	if _, err := l.Retire(0); err == nil {
		t.Fatal("retire of active node succeeded, want error")
	}
	if _, err := l.Remove(0); err != nil {
		t.Fatalf("remove of active node: %v", err)
	}
	if _, err := l.Remove(0); err == nil {
		t.Fatal("second remove succeeded, want error")
	}
	if _, err := l.Drain(9); err == nil {
		t.Fatal("drain of unknown node succeeded, want error")
	}
	if _, err := l.SetDisks(1, 6); err == nil {
		t.Fatal("shrinking SetDisks succeeded, want error")
	}
	v := l.View()
	for node, want := range []State{Retired, Active, Active} {
		if m, ok := v.Member(node); !ok || m.State != want {
			t.Fatalf("node %d: member %+v (found %v), want state %v", node, m, ok, want)
		}
	}
}

// Returned views are snapshots: later transitions must not mutate them.
func TestViewCloneIsolation(t *testing.T) {
	l := NewLog([]int{7, 7})
	before := l.View()
	if _, err := l.Drain(0); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if m, _ := before.Member(0); m.State != Active {
		t.Fatalf("snapshot mutated: node 0 state %v, want active", m.State)
	}
	if d := l.View().Draining(); len(d) != 1 || d[0] != 0 {
		t.Fatalf("Draining() = %v, want [0]", d)
	}
}
