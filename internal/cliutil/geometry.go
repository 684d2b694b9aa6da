package cliutil

import (
	"fmt"
	"sort"
	"strings"

	"ftcms/internal/analytic"
	"ftcms/internal/core"
)

// Geometry is the validated -d/-p array geometry the front ends share
// (cmopt, cmsim, cmcluster), so every command rejects a
// nonsensical array the same way instead of each rolling its own checks.
type Geometry struct {
	// D is the number of disks.
	D int
	// P is the parity group size (0 when the command has no -p flag).
	P int
}

// ParseGeometry validates a -d/-p flag pair. p == 0 means the command
// takes no parity-group flag and only d is checked.
func ParseGeometry(d, p int) (Geometry, error) {
	if d < 2 {
		return Geometry{}, fmt.Errorf("need at least 2 disks, got -d %d", d)
	}
	if p == 0 {
		return Geometry{D: d}, nil
	}
	if p < 2 {
		return Geometry{}, fmt.Errorf("parity groups need at least 2 disks, got -p %d", p)
	}
	if p > d {
		return Geometry{}, fmt.Errorf("parity group size %d exceeds %d disks", p, d)
	}
	return Geometry{D: d, P: p}, nil
}

// ResolveScheme maps a -scheme flag value to its analytic scheme.
func ResolveScheme(name string) (analytic.Scheme, error) {
	for _, s := range analytic.Schemes() {
		if s.Key() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(SchemeNames(), ", "))
}

// SchemeNames returns the analytic scheme keys, sorted.
func SchemeNames() []string {
	out := make([]string, 0, len(analytic.Schemes()))
	for _, s := range analytic.Schemes() {
		out = append(out, s.Key())
	}
	sort.Strings(out)
	return out
}

// ResolveCoreScheme maps a -scheme flag value to the core server's
// scheme set — the analytic schemes plus declustered-dynamic and
// declustered-pq, which only the server implements (the simulator
// selects dynamic reservations with a knob and the analytic models
// have no double-parity column).
func ResolveCoreScheme(name string) (core.Scheme, error) {
	for _, n := range CoreSchemeNames() {
		if n == name {
			return core.Scheme(name), nil
		}
	}
	return "", fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(CoreSchemeNames(), ", "))
}

// CoreSchemeNames returns the core server's scheme names, sorted.
func CoreSchemeNames() []string {
	out := append(SchemeNames(), string(core.DeclusteredDynamic), string(core.DeclusteredPQ))
	sort.Strings(out)
	return out
}
