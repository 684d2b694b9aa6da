package cliutil

import "fmt"

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
