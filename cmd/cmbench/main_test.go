package main

import (
	"strings"
	"testing"
)

// TestSuiteRegistry: every suite has a unique name and default output,
// and a gate name resolves to a benchmark the suite actually contains —
// in the -quick list too, since that is what CI gates.
func TestSuiteRegistry(t *testing.T) {
	names, outs := map[string]bool{}, map[string]bool{}
	for _, s := range suites {
		if s.name == "" || names[s.name] {
			t.Errorf("suite name %q empty or duplicated", s.name)
		}
		if s.out == "" || outs[s.out] {
			t.Errorf("suite %s: default output %q empty or shared with another suite", s.name, s.out)
		}
		names[s.name], outs[s.out] = true, true
		if s.baselineDesc == "" {
			t.Errorf("suite %s: no baseline description for the report", s.name)
		}
		for _, quick := range []bool{true, false} {
			seen := map[string]bool{}
			for _, bc := range s.benches(quick) {
				if seen[bc.name] {
					t.Errorf("suite %s (quick=%v): duplicate benchmark %s", s.name, quick, bc.name)
				}
				seen[bc.name] = true
			}
			if len(seen) == 0 {
				t.Errorf("suite %s (quick=%v): no benchmarks", s.name, quick)
			}
			if s.gate != "" && !seen[s.gate] {
				t.Errorf("suite %s (quick=%v): gate %s is not one of its benchmarks", s.name, quick, s.gate)
			}
			for name := range s.baseline {
				if !quick && !seen[name] {
					t.Errorf("suite %s: baseline entry %s matches no benchmark", s.name, name)
				}
			}
		}
	}
}

// TestSelectSuite: one -suite value selects exactly one suite, so two
// suites can no longer be combined into one mislabelled report; unknown
// names and -allocgate on a gateless suite are errors that name the
// valid choices.
func TestSelectSuite(t *testing.T) {
	for _, s := range suites {
		got, err := selectSuite(s.name, -1)
		if err != nil || got.name != s.name || got.out != s.out {
			t.Errorf("selectSuite(%q) = %s/%s, %v", s.name, got.name, got.out, err)
		}
		_, err = selectSuite(s.name, 0)
		if (err == nil) != (s.gate != "") {
			t.Errorf("selectSuite(%q, allocgate 0): err %v, gate %q", s.name, err, s.gate)
		}
		if err != nil && !strings.Contains(err.Error(), "-allocgate needs a suite with a gate benchmark (streams, reconfig, workload, autopilot)") {
			t.Errorf("gateless-suite error %q does not list the gated suites", err)
		}
	}
	for _, bad := range []string{"", "bogus", "pq,streams", "-pq", "STREAMS"} {
		_, err := selectSuite(bad, -1)
		if err == nil || !strings.Contains(err.Error(), "single, cluster, pq, streams, reconfig, workload, autopilot") {
			t.Errorf("selectSuite(%q) = %v, want an error listing the valid names", bad, err)
		}
	}
}
