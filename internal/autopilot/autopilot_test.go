package autopilot

import (
	"slices"
	"testing"
)

// calm returns a baseline healthy-cluster signal for round r.
func calm(r int64) Signals {
	return Signals{Round: r, Active: 80, Capacity: 100, ActiveNodes: 3, DrainCandidate: -1}
}

// TestScaleOutHysteresis: one reject keeps the window's sum over the
// threshold for a whole window, and scale-out fires on the hold's last
// round — not before — and never at the node budget.
func TestScaleOutHysteresis(t *testing.T) {
	c := New(3)
	var got []Action
	for r := int64(0); r < 40; r++ {
		s := calm(r)
		if r == 10 {
			s.Rejects = 1
		}
		if a, ok := c.Observe(s); ok {
			got = append(got, a)
		}
	}
	if len(got) != 1 || got[0].Kind != ScaleOut {
		t.Fatalf("one reject fired %v, want one scale-out", got)
	}
	if want := int64(10 + scaleOutHold - 1); got[0].Round != want {
		t.Fatalf("scale-out at round %d, want %d (sum≥1 from 10, hold %d)", got[0].Round, want, scaleOutHold)
	}

	// At minNodes+2 active nodes sustained rejects are suppressed.
	c = New(1)
	for r := int64(0); r < 40; r++ {
		s := calm(r) // three active nodes
		s.Rejects = 1
		if a, ok := c.Observe(s); ok {
			t.Fatalf("scale-out beyond the node budget: %v", a)
		}
	}
	if got := c.Status().Interlock; got != lockBudget {
		t.Fatalf("interlock %q, want %q", got, lockBudget)
	}
}

// TestFlappingCooldown is the satellite coverage: a synthetic load that
// oscillates across the scale-out threshold must produce at most one
// action per cooldown period.
func TestFlappingCooldown(t *testing.T) {
	cases := []struct {
		name   string
		period int64 // load on for period rounds, off for period
	}{
		{"every-other-window", window},
		{"fast-flap", 2},
		{"slow-swing", 3 * window / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Joins land nowhere, so the node budget never binds and
			// only the cooldown spaces the actions.
			c := New(3)
			var fired []Action
			for r := int64(0); r < 16*window; r++ {
				s := calm(r)
				if (r/tc.period)%2 == 0 {
					s.Rejects = 5 // well over threshold: crossing every other period
				}
				if a, ok := c.Observe(s); ok {
					fired = append(fired, a)
				}
			}
			// Bucket the fired actions by cooldown period: no bucket may
			// hold more than one.
			buckets := map[int64]int{}
			for _, a := range fired {
				if a.Kind != ScaleOut {
					t.Fatalf("unexpected action %v", a)
				}
				buckets[a.Round/scaleOutCooldown]++
			}
			for b, n := range buckets {
				if n > 1 {
					t.Fatalf("cooldown period %d saw %d actions, want ≤ 1", b, n)
				}
			}
			if len(fired) < 2 {
				t.Fatalf("oscillating load above threshold fired %d times, want one per cooldown", len(fired))
			}
		})
	}
}

// TestScaleInFloorAndInterlocks: scale-in never crosses minNodes, aborts
// when a failure or rebuild is in flight, and defers while another
// reconfiguration runs — each suppression recording its reason.
func TestScaleInFloorAndInterlocks(t *testing.T) {
	idle := func(r int64) Signals {
		return Signals{Round: r, Active: 5, Capacity: 100, ActiveNodes: 4, DrainCandidate: 3}
	}

	// Happy path: idle for the hold drains the candidate.
	c := New(3)
	var fired []Action
	for r := int64(0); r < scaleInHold+8; r++ {
		if a, ok := c.Observe(idle(r)); ok {
			fired = append(fired, a)
		}
	}
	if len(fired) != 1 || fired[0].Kind != ScaleIn || fired[0].Node != 3 || fired[0].Round != scaleInHold-1 {
		t.Fatalf("idle cluster fired %v, want one scale-in of node 3 at round %d", fired, scaleInHold-1)
	}

	// At the floor: suppressed with the floor reason.
	c = New(3)
	for r := int64(0); r < 2*scaleInHold; r++ {
		s := idle(r)
		s.ActiveNodes = 3
		s.DrainCandidate = -1
		if a, ok := c.Observe(s); ok {
			t.Fatalf("scale-in below replication floor: %v", a)
		}
	}
	if got := c.Status().Interlock; got != lockFloor {
		t.Fatalf("interlock %q, want %q", got, lockFloor)
	}

	// Rebuild in flight: aborted (hysteresis resets), reason recorded.
	c = New(3)
	for r := int64(0); r < scaleInHold; r++ {
		s := idle(r)
		s.Rebuilding = true
		if a, ok := c.Observe(s); ok {
			t.Fatalf("scale-in during rebuild: %v", a)
		}
	}
	if got := c.Status().Interlock; got != lockRebuild {
		t.Fatalf("interlock %q, want %q", got, lockRebuild)
	}

	// Unreplaced node loss blocks scale-in too: the first loss takes the
	// one spare, so a second keeps NodeLosses > replaced for ever.
	c = New(3)
	for r := int64(0); r < scaleInHold; r++ {
		s := idle(r)
		s.NodeLosses = 2
		if r == 0 {
			s.NodeLosses = 1
		}
		if a, ok := c.Observe(s); ok != (r == 0) || (ok && a.Kind != Replace) {
			t.Fatalf("round %d with unresolved failure fired %v (ok=%v), want only the first loss's replace", r, a, ok)
		}
	}
	if got := c.Status().Interlock; got != lockFailure {
		t.Fatalf("interlock %q, want %q", got, lockFailure)
	}

	// Reconfiguration in flight: deferred, fires once clear.
	c = New(3)
	for r := int64(0); r < scaleInHold; r++ {
		s := idle(r)
		s.Reconfiguring = true
		if a, ok := c.Observe(s); ok {
			t.Fatalf("stacked reconfiguration: %v", a)
		}
	}
	if got := c.Status().Interlock; got != lockReconfig {
		t.Fatalf("interlock %q, want %q", got, lockReconfig)
	}
	if a, ok := c.Observe(idle(scaleInHold)); !ok || a.Kind != ScaleIn {
		t.Fatalf("cleared interlock did not release the deferred scale-in (got %v, %v)", a, ok)
	}
}

// TestReplaceOnLoss: a confirmed loss consumes one spare, exactly once,
// and the budget caps further replacements.
func TestReplaceOnLoss(t *testing.T) {
	c := New(3)
	s := calm(0)
	s.NodeLosses = 1
	a, ok := c.Observe(s)
	if !ok || a.Kind != Replace {
		t.Fatalf("loss produced %v ok=%v, want replace", a, ok)
	}
	for r := int64(1); r < 4*replaceCooldown; r++ {
		s := calm(r)
		s.NodeLosses = 1
		if a, ok := c.Observe(s); ok {
			t.Fatalf("same loss replaced twice: %v", a)
		}
	}
	// Second loss: spare budget exhausted.
	s = calm(4 * replaceCooldown)
	s.NodeLosses = 2
	if a, ok := c.Observe(s); ok {
		t.Fatalf("replacement beyond spare budget: %v", a)
	}
	if got := c.Status().Interlock; got != lockSpares {
		t.Fatalf("interlock %q, want %q", got, lockSpares)
	}
}

// TestShedHysteresis: the shed mode starts after the backlog holds over
// shedQueue, stops only after it holds at shedExit or under, and a
// backlog wobbling between the two thresholds changes nothing.
func TestShedHysteresis(t *testing.T) {
	c := New(3)
	mode := false
	steps := []struct {
		q, rounds int
		want      Kind // fired on the last round of the step
	}{
		{shedQueue - 1, 8, numKinds}, // just under: never starts
		{shedQueue, shedHold, ShedStart},
		{shedExit + 1, 8, numKinds}, // between thresholds: stays shedding
		{shedQueue, 2, numKinds},
		{shedExit, shedHold, ShedStop},
		{0, 8, numKinds},
	}
	r := int64(0)
	for i, st := range steps {
		for k := 1; k <= st.rounds; k++ {
			s := calm(r)
			s.QueueDepth = st.q
			a, ok := c.Observe(s)
			r++
			last := k == st.rounds && st.want != numKinds
			if ok != last || (ok && a.Kind != st.want) {
				t.Fatalf("step %d round %d (queue %d): got %v ok=%v, want fired=%v kind=%v",
					i, k, st.q, a, ok, last, st.want)
			}
			if last {
				mode = !mode
			}
			if c.Shedding() != mode {
				t.Fatalf("step %d round %d: shedding=%v, want %v", i, k, c.Shedding(), mode)
			}
		}
	}
}

// TestDeterministicReplay: the same signal stream always yields a
// byte-identical action trace.
func TestDeterministicReplay(t *testing.T) {
	stream := make([]Signals, 600)
	for r := range stream {
		s := calm(int64(r))
		if r > 50 && r < 120 {
			s.Rejects = 3
			s.QueueDepth = 400
		}
		if r >= 200 {
			s.NodeLosses = 1
		}
		if r > 400 {
			s.Active = 5
			s.DrainCandidate = 4
			s.ActiveNodes = 4
		}
		stream[r] = s
	}
	run := func() []Action {
		c := New(3)
		var fired []Action
		for _, s := range stream {
			s.ActiveNodes += countJoins(fired)
			if a, ok := c.Observe(s); ok {
				fired = append(fired, a)
			}
		}
		return fired
	}
	a, b := run(), run()
	if !slices.Equal(a, b) || len(a) == 0 {
		t.Fatalf("replay diverged or empty:\n%v\nvs\n%v", a, b)
	}
}

func countJoins(actions []Action) int {
	n := 0
	for _, a := range actions {
		if a.Kind == ScaleOut || a.Kind == Replace {
			n++
		}
	}
	return n
}

// TestQuiescentObserveAllocs: with nothing pending, Observe must not
// touch the heap — it runs inside every round tick.
func TestQuiescentObserveAllocs(t *testing.T) {
	c := New(3)
	r := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		r++
		c.Observe(calm(r))
	}); n != 0 {
		t.Fatalf("quiescent Observe allocates %v per call, want 0", n)
	}
}
