package scenario

import (
	"slices"
	"testing"

	"ftcms/internal/autopilot"
)

// closedLoop runs the named builtin with the autopilot on.
func closedLoop(t *testing.T, name string, seed int64) Result {
	t.Helper()
	res, err := Run(RunConfig{Scenario: builtin(t, name), Seed: seed, Autopilot: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClosedLoopFlagshipAcceptance is the headline acceptance run: the
// flagship day with the autopilot enabled survives the 4× flash crowd
// and the 19:45 node loss with zero operator-issued reconfig commands,
// zero lost active streams, and strictly fewer rejected sessions than
// the open-loop baseline.
func TestClosedLoopFlagshipAcceptance(t *testing.T) {
	open, err := Run(RunConfig{Scenario: builtin(t, "primetime-flashcrowd-rebuild"), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	closed := closedLoop(t, "primetime-flashcrowd-rebuild", 11)

	// Zero operator commands: the profile's scripted join/drain/adddisk
	// were suppressed, so every join and drain in the result is the
	// autopilot's own. The trace must account for each one.
	if open.Actions != nil {
		t.Fatalf("open-loop run has an action trace: %v", open.Actions)
	}
	if len(closed.Actions) == 0 {
		t.Fatal("closed-loop run fired no actions")
	}
	joins, drains, replaces := 0, 0, 0
	for _, a := range closed.Actions {
		switch a.Kind {
		case autopilot.ScaleOut:
			joins++
		case autopilot.Replace:
			replaces++
		case autopilot.ScaleIn:
			drains++
		}
	}
	if closed.Joins != joins+replaces {
		t.Fatalf("joins %d not all autopilot-issued (trace has %d scale-outs + %d replaces)",
			closed.Joins, joins, replaces)
	}
	if closed.Drains != drains {
		t.Fatalf("drains %d not all autopilot-issued (trace has %d)", closed.Drains, drains)
	}
	if closed.DiskAdds != 0 {
		t.Fatalf("operator adddisk leaked into closed-loop run: %d", closed.DiskAdds)
	}
	// The node loss was confirmed and replaced from the spare budget.
	if replaces != 1 {
		t.Fatalf("replace actions = %d, want 1 for the 19:45 node loss", replaces)
	}

	// Zero lost active streams, against an open-loop baseline that loses
	// hundreds at the same instant.
	if closed.LostStreams != 0 {
		t.Fatalf("closed-loop lost %d active streams, want 0", closed.LostStreams)
	}
	if open.LostStreams == 0 {
		t.Fatal("open-loop baseline lost no streams; the scenario no longer stresses failover")
	}

	// Strictly fewer rejected sessions than open loop.
	if closed.Rejected >= open.Rejected {
		t.Fatalf("closed-loop rejected %d, open-loop %d — want strictly fewer", closed.Rejected, open.Rejected)
	}
	if closed.Serviced <= 0 {
		t.Fatal("closed-loop serviced nothing")
	}

	// Shed/abandon accounting is disjoint and fully bucketed: the
	// timeline's shed and rejected columns each sum to their totals, and
	// no offered request is counted twice.
	var shed, rejected, admitted, offered, actions int
	for _, b := range closed.Timeline {
		shed += b.Shed
		rejected += b.Rejected
		admitted += b.Admitted
		offered += b.Offered
		actions += b.Actions
	}
	if shed != closed.Shed {
		t.Fatalf("timeline shed %d != result shed %d", shed, closed.Shed)
	}
	if rejected != closed.Rejected {
		t.Fatalf("timeline rejected %d != result rejected %d", rejected, closed.Rejected)
	}
	if actions != len(closed.Actions) {
		t.Fatalf("timeline actions %d != trace length %d", actions, len(closed.Actions))
	}
	if admitted+rejected+shed > offered {
		t.Fatalf("admitted %d + rejected %d + shed %d exceed offered %d — a session was double-counted",
			admitted, rejected, shed, offered)
	}
	if closed.Shed == 0 {
		t.Fatal("degradation mode never shed under a 4× flash crowd")
	}
}

// TestClosedLoopActionTraceDeterminism pins the replay bar: the same
// scenario and seed yield a byte-identical autopilot action trace on
// every run.
func TestClosedLoopActionTraceDeterminism(t *testing.T) {
	a := closedLoop(t, "primetime-autopilot", 7)
	b := closedLoop(t, "primetime-autopilot", 7)
	if len(a.Actions) == 0 {
		t.Fatal("closed-loop run produced an empty action trace")
	}
	if !slices.Equal(a.Actions, b.Actions) {
		t.Fatalf("action trace diverged between runs:\n--- first\n%v\n--- second\n%v", a.Actions, b.Actions)
	}
	if a.Serviced != b.Serviced || a.Rejected != b.Rejected || a.Shed != b.Shed || a.LostStreams != b.LostStreams {
		t.Fatalf("closed-loop totals diverged between runs: %+v vs %+v", a, b)
	}
}

// TestAutopilotBuiltinExercisesLoop: the primetime-autopilot builtin has
// a node loss with no scripted operator response, so only the controller
// can save the day — and does.
func TestAutopilotBuiltinExercisesLoop(t *testing.T) {
	res := closedLoop(t, "primetime-autopilot", 11)
	if res.NodeFailures != 1 {
		t.Fatalf("node failures = %d, want 1", res.NodeFailures)
	}
	if res.Joins == 0 {
		t.Fatal("autopilot never joined a node")
	}
	if res.LostStreams != 0 {
		t.Fatalf("lost %d streams with the autopilot on, want 0", res.LostStreams)
	}
}

// TestAutopilotNeedsCluster: the single-array engine has no membership
// to reconfigure.
func TestAutopilotNeedsCluster(t *testing.T) {
	c := mustCompile(t, `{"name": "tiny", "subscribers": 1000}`)
	if _, err := Run(RunConfig{Scenario: c, Seed: 1, Nodes: 1, Autopilot: true}); err == nil {
		t.Fatal("single-array run accepted the autopilot")
	}
}
