package cliutil

import (
	"sort"
	"testing"

	"ftcms/internal/core"
	"ftcms/internal/scheme"
)

func TestParseGeometry(t *testing.T) {
	cases := []struct {
		d, p int
		ok   bool
	}{
		{7, 3, true},
		{32, 4, true},
		{2, 2, true},
		{32, 0, true},  // no -p flag
		{1, 0, false},  // too few disks
		{0, 3, false},  // too few disks
		{7, 1, false},  // degenerate group
		{7, -2, false}, // negative group
		{4, 5, false},  // group wider than array
	}
	for _, c := range cases {
		g, err := ParseGeometry(c.d, c.p)
		if (err == nil) != c.ok {
			t.Errorf("ParseGeometry(%d, %d): err = %v, want ok=%v", c.d, c.p, err, c.ok)
			continue
		}
		if err == nil && (g.D != c.d || g.P != c.p) {
			t.Errorf("ParseGeometry(%d, %d) = %+v", c.d, c.p, g)
		}
	}
}

// TestResolveScheme: every key the front ends accept for -scheme parses
// back to its scheme, and a bogus name is refused.
func TestResolveScheme(t *testing.T) {
	for _, s := range scheme.All() {
		got, err := scheme.Parse(s.Key())
		if err != nil || got != s {
			t.Errorf("scheme.Parse(%q) = %v, %v", s.Key(), got, err)
		}
	}
	if _, err := scheme.Parse("raid-0"); err == nil {
		t.Error("resolved a bogus scheme name")
	}
}

// TestResolveCoreScheme: the names resolve to the constants core
// re-exports, including the two schemes outside the paper's five.
func TestResolveCoreScheme(t *testing.T) {
	for name, want := range map[string]core.Scheme{
		"declustered":         core.Declustered,
		"declustered-dynamic": core.DeclusteredDynamic,
		"declustered-pq":      core.DeclusteredPQ,
	} {
		if got, err := scheme.Parse(name); err != nil || got != want {
			t.Errorf("scheme.Parse(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := scheme.Parse(""); err == nil {
		t.Error("resolved an empty scheme name")
	}
}

// TestSchemeNamesSortedAndComplete: the -scheme usage lists all seven
// keys, without repeats, and the paper's five are among them.
func TestSchemeNamesSortedAndComplete(t *testing.T) {
	names := scheme.Names(nil)
	if len(names) != len(scheme.All()) || len(names) != 7 {
		t.Fatalf("%d names for %d schemes", len(names), len(scheme.All()))
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] == sorted[i] {
			t.Fatalf("repeated scheme name %q", sorted[i])
		}
	}
	paper := scheme.Names(func(s scheme.Scheme) bool {
		for _, p := range scheme.Paper() {
			if p == s {
				return true
			}
		}
		return false
	})
	if len(paper) != 5 {
		t.Fatalf("paper scheme names %v", paper)
	}
}
