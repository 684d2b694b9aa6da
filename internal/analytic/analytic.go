// Package analytic implements §7 of Özden et al. (SIGMOD 1996):
// closed-form capacity analysis for the fault-tolerant schemes, and the
// computeOptimal procedure (Figure 4) that picks the block size b, parity
// group size p and contingency reservation f maximizing the number of
// concurrently serviceable clips.
//
// Every scheme combines two constraints, both read off its scheme.Scheme
// record: continuity of playback (Scheme.Continuous — Equation 1, or the
// §7.3 whole-group form for streaming RAID) bounds the accesses per disk
// per round q given b, and the buffer constraint bounds b given q. The
// printed §7.1–§7.4 buffer constraints are one: every admitted unit's
// q−f clips hold the normal per-clip buffer of c blocks, except those of
// the failed unit, which hold the degraded buffer of c_deg blocks,
//
//	(q−f)·b·(units·c + failed·(c_deg − c)) ≤ B,
//
// where failed is one unit, or a whole cluster's units for the clustered
// schemes. It has three instances: c_deg = p for declustered (2(d−1) + p,
// as §7.1 prints it), c_deg = p/2 for non-clustered (§7.4), and
// c_deg = c for the pre-fetching schemes and streaming RAID.
//
// For a given (p, f), the buffer constraint yields the largest usable b
// for each candidate q; both larger q and the smaller b it forces make
// continuity harder, so feasibility is monotone in q and the maximum is a
// linear scan up to the disk's stream ceiling (times the blocks a round
// delivers). The schemes that are not clustered then grow f from 1 until
// a unit's contingency classes cover its admitted clips, classes·f ≥ q−f.
// The number of clips is (q−f)·units (§8.1).
package analytic

import (
	"errors"
	"fmt"
	"math"

	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

// Config is the server sizing problem: the disk model, array width d,
// server buffer B, and total storage requirement S of the clip library
// (which lower-bounds the parity group size: only (p−1)/p of raw capacity
// stores data).
type Config struct {
	// Disk is the per-disk timing/capacity model.
	Disk diskmodel.Parameters
	// D is the number of disks.
	D int
	// Buffer is the server RAM buffer B.
	Buffer units.Bits
	// Storage is the library size S. Zero means "no storage constraint"
	// (pmin = 2).
	Storage units.Bits
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if c.D < 2 {
		return errors.New("analytic: need at least 2 disks")
	}
	if c.Buffer <= 0 {
		return errors.New("analytic: buffer must be positive")
	}
	if c.Storage < 0 {
		return errors.New("analytic: storage must be non-negative")
	}
	if c.Storage >= units.Bits(c.D)*c.Disk.Capacity {
		return errors.New("analytic: library exceeds raw capacity")
	}
	return nil
}

// MinGroupSize returns pmin = ⌈d·C_d / (d·C_d − S)⌉, clamped to >= 2: the
// smallest parity group size leaving room for the library after parity
// overhead (§7).
func (c Config) MinGroupSize() int {
	raw := float64(c.D) * float64(c.Disk.Capacity)
	s := float64(c.Storage)
	p := int(math.Ceil(raw / (raw - s)))
	if p < 2 {
		p = 2
	}
	return p
}

// Result is one solved operating point.
type Result struct {
	// Scheme is the scheme solved.
	Scheme scheme.Scheme
	// P is the parity group size.
	P int
	// Q is the per-disk (per-cluster for streaming RAID) blocks-per-round
	// bound from the continuity constraint.
	Q int
	// F is the contingency reservation per disk (0 for the clustered
	// schemes, which reserve none).
	F int
	// Block is the chosen block size b.
	Block units.Bits
	// Clips is the number of concurrently serviceable clips.
	Clips int
}

// Solve solves scheme s at group size p, running Figure 4's inner loop:
// the clustered schemes reserve no contingency and solve once at f = 0;
// the others grow f from 1 until a unit's classes cover its admitted
// clips, classes·f ≥ q−f. P+Q, which §7 does not analyse, has no
// solution.
func Solve(c Config, s scheme.Scheme, p int) (Result, error) {
	if s.Clustered() {
		return solveF(c, s, p, 0)
	}
	for f := 1; ; f++ {
		res, err := solveF(c, s, p, f)
		if err != nil {
			return Result{}, err
		}
		if _, classes := s.Grid(c.D, p); classes*f >= res.Q-f {
			return res, nil
		}
	}
}

// solveF solves s at group size p for a fixed contingency f: the largest
// q whose buffer-bound block size keeps playback continuous.
func solveF(c Config, s scheme.Scheme, p, f int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	norm, deg, ok := s.BufferBlocks(p)
	if !ok {
		return Result{}, fmt.Errorf("analytic: no §7 closed form for scheme %v", s)
	}
	if p < 2 || p > c.D || s.Clustered() && c.D%p != 0 {
		return Result{}, fmt.Errorf("analytic: %v cannot group d=%d disks by p=%d", s, c.D, p)
	}
	if s.Clustered() != (f == 0) || f < 0 {
		return Result{}, fmt.Errorf("analytic: %v cannot reserve f=%d (clustered schemes reserve none, the others at least 1)", s, f)
	}
	n, _ := s.Grid(c.D, p)
	failed := 1 // unit; a clustered scheme loses a whole cluster's units
	if s.Clustered() {
		failed = n * p / c.D
	}
	k := float64(n)*norm + float64(failed)*(deg-norm) // blocks buffered per clip each unit admits
	var best Result
	for q := 1; q <= c.Disk.StreamCeiling()*s.RoundBlocks(p); q++ {
		b := c.Buffer // no clip admitted yet: continuity alone bounds b
		if q > f {
			b = units.Bits(float64(c.Buffer) / (float64(q-f) * k))
		}
		if s.Continuous(c.Disk, p, q, b) {
			best = Result{Scheme: s, P: p, Q: q, F: f, Block: b, Clips: (q - f) * n}
		}
	}
	if best.Q <= f {
		return Result{}, fmt.Errorf("analytic: %v p=%d f=%d infeasible (q=%d)", s, p, f, best.Q)
	}
	return best, nil
}

// Optimize runs the outer loop of Figure 4 for one scheme: p sweeps from
// max(pmin, 2) to d (restricted to feasible geometries), and the point
// maximizing Clips wins; the first p reaching the maximum keeps it.
func Optimize(c Config, s scheme.Scheme) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	var best Result
	found := false
	for p := c.MinGroupSize(); p <= c.D; p++ {
		if res, err := Solve(c, s, p); err == nil && (!found || res.Clips > best.Clips) {
			best, found = res, true
		}
	}
	if !found {
		return Result{}, fmt.Errorf("analytic: no feasible operating point for %v", s)
	}
	return best, nil
}
