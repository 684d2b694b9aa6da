package sim

import (
	"testing"

	"ftcms/internal/units"
)

// TestTraceValidation rejects out-of-range and negative-time node
// failures.
func TestTraceValidation(t *testing.T) {
	bad := clusterBase(t)
	bad.NodeTrace = []NodeFailure{{Node: 3, At: units.Second}}
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted out-of-range trace node")
	}
	bad = clusterBase(t)
	bad.NodeTrace = []NodeFailure{{Node: 1, At: -units.Second}}
	if _, err := RunCluster(bad); err == nil {
		t.Error("accepted negative trace time")
	}
}

// TestTraceRefailIgnored: failing a node that is down already is
// ignored; a restarted node can fail again.
func TestTraceRefailIgnored(t *testing.T) {
	cfg := clusterBase(t)
	cfg.NodeTrace = []NodeFailure{
		{Node: 0, At: 30 * units.Second},
		{Node: 0, At: 40 * units.Second},
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeFailures != 1 {
		t.Errorf("NodeFailures = %d, want 1 (re-failing a down node is ignored)", res.NodeFailures)
	}
	cfg.NodeTrace[0].Restart = true
	if res, err = RunCluster(cfg); err != nil {
		t.Fatal(err)
	}
	if res.NodeFailures != 2 {
		t.Errorf("NodeFailures = %d, want 2 (a restarted node fails again)", res.NodeFailures)
	}
}
