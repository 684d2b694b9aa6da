// Package analytic implements §7 of Özden et al. (SIGMOD 1996):
// closed-form capacity analysis for the five fault-tolerant schemes, and
// the computeOptimal procedure (Figure 4) that picks the block size b,
// parity group size p and contingency reservation f maximizing the number
// of concurrently serviceable clips.
//
// Every scheme combines two constraints:
//
//   - the continuity-of-playback constraint (Equation 1, owned by
//     diskmodel), bounding blocks per disk per round q given b;
//   - a scheme-specific buffer constraint bounding b given q (each clip
//     needs a scheme-dependent amount of RAM, and the total may not
//     exceed the server buffer B).
//
// For a given (p, f), the buffer constraint yields the largest usable b
// for each candidate q; both larger q and the smaller b it forces make
// Equation 1 harder, so feasibility is monotone in q and the maximum is a
// linear scan up to the disk's stream ceiling.
//
// The number-of-clips formulas follow §8.1: (q−f)·d for declustered and
// prefetch-without-parity-disks; q·d·(p−1)/p for prefetch-with-parity-
// disks and non-clustered; q·d/p for streaming RAID.
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
	// Scheme identifies the closed form solved: Declustered for the §5
	// dynamic variant too, whose capacity analysis is §4's.
	Scheme scheme.Scheme
	// P is the parity group size.
	P int
	// Q is the per-disk (per-cluster for streaming RAID) blocks-per-round
	// bound from Equation 1.
	Q int
	// F is the contingency reservation per disk (0 for schemes without
	// one).
	F int
	// Rows is r = ⌊(d−1)/(p−1)⌋ for the declustered scheme, 0 otherwise.
	Rows int
	// Block is the chosen block size b.
	Block units.Bits
	// Clips is the number of concurrently serviceable clips.
	Clips int
}

// maxQ returns the largest q >= 1 such that blockFor(q) yields a positive
// block size satisfying Equation 1 (or the custom check), scanning up to
// the disk stream ceiling. It returns 0 and a zero block when no q works.
func maxQ(disk diskmodel.Parameters, ceiling int, blockFor func(q int) units.Bits, ok func(q int, b units.Bits) bool) (int, units.Bits) {
	bestQ, bestB := 0, units.Bits(0)
	for q := 1; q <= ceiling; q++ {
		b := blockFor(q)
		if b <= 0 {
			break
		}
		if ok(q, b) {
			bestQ, bestB = q, b
		}
	}
	return bestQ, bestB
}

// SolveDeclustered solves the declustered-parity scheme for a fixed p and
// f (§7.1). The buffer constraint is the paper's literal
//
//	2·(q−f)·(d−1)·b + (q−f)·p·b ≤ B
//
// (2·b per clip in normal operation plus (p−1)·b per failed-disk clip on
// failure; the printed formula's (d−1) and p factors are kept as printed).
func SolveDeclustered(c Config, p, f int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if p < 2 || p > c.D {
		return Result{}, fmt.Errorf("analytic: p=%d outside [2, %d]", p, c.D)
	}
	if f < 1 {
		return Result{}, errors.New("analytic: declustered needs f >= 1")
	}
	r := (c.D - 1) / (p - 1)
	if r < 1 {
		r = 1
	}
	k := float64(2*(c.D-1) + p)
	q, b := maxQ(c.Disk, c.Disk.StreamCeiling(),
		func(q int) units.Bits {
			if q <= f {
				return units.Bits(float64(c.Buffer)) // unconstrained; Eq1 will bound
			}
			return units.Bits(float64(c.Buffer) / (float64(q-f) * k))
		},
		func(q int, b units.Bits) bool { return c.Disk.SatisfiesEquation1(q, b) },
	)
	if q <= f {
		return Result{}, fmt.Errorf("analytic: declustered p=%d f=%d infeasible (q=%d)", p, f, q)
	}
	return Result{
		Scheme: scheme.Declustered, P: p, Q: q, F: f, Rows: r, Block: b,
		Clips: (q - f) * c.D,
	}, nil
}

// SolvePrefetchFlat solves pre-fetching without parity disks for fixed p
// and f (§7.2). Buffer per clip is p·b/2 (staggered-group optimization)
// and q−f clips run per disk: p·b/2·(q−f)·d ≤ B.
func SolvePrefetchFlat(c Config, p, f int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if p < 2 || p > c.D {
		return Result{}, fmt.Errorf("analytic: p=%d outside [2, %d]", p, c.D)
	}
	if f < 1 {
		return Result{}, errors.New("analytic: prefetch-flat needs f >= 1")
	}
	k := float64(p) / 2 * float64(c.D)
	q, b := maxQ(c.Disk, c.Disk.StreamCeiling(),
		func(q int) units.Bits {
			if q <= f {
				return units.Bits(float64(c.Buffer))
			}
			return units.Bits(float64(c.Buffer) / (float64(q-f) * k))
		},
		func(q int, b units.Bits) bool { return c.Disk.SatisfiesEquation1(q, b) },
	)
	if q <= f {
		return Result{}, fmt.Errorf("analytic: prefetch-flat p=%d f=%d infeasible (q=%d)", p, f, q)
	}
	return Result{
		Scheme: scheme.PrefetchFlat, P: p, Q: q, F: f, Block: b,
		Clips: (q - f) * c.D,
	}, nil
}

// SolvePrefetchParityDisk solves pre-fetching with dedicated parity disks
// for fixed p (§7.3 first part): p·b/2 per clip over q·d·(p−1)/p clips.
func SolvePrefetchParityDisk(c Config, p int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if p < 2 || p > c.D || c.D%p != 0 {
		return Result{}, fmt.Errorf("analytic: prefetch-parity-disk needs p | d, got p=%d d=%d", p, c.D)
	}
	dataDisks := c.D * (p - 1) / p
	k := float64(p) / 2 * float64(dataDisks)
	q, b := maxQ(c.Disk, c.Disk.StreamCeiling(),
		func(q int) units.Bits { return units.Bits(float64(c.Buffer) / (float64(q) * k)) },
		func(q int, b units.Bits) bool { return c.Disk.SatisfiesEquation1(q, b) },
	)
	if q < 1 {
		return Result{}, fmt.Errorf("analytic: prefetch-parity-disk p=%d infeasible", p)
	}
	return Result{
		Scheme: scheme.PrefetchParityDisk, P: p, Q: q, Block: b,
		Clips: q * dataDisks,
	}, nil
}

// SolveStreamingRAID solves the streaming RAID baseline for fixed p
// (§7.3): each cluster is a logical disk retrieving whole (p−1)-block
// groups; continuity is
//
//	2·t_seek + q·(t_rot + b/r_d) ≤ (p−1)·b/r_p
//
// (the paper's printed form, with no settle term), and the buffer
// constraint is 2·(p−1)·b·q·(d/p) ≤ B.
func SolveStreamingRAID(c Config, p int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if p < 2 || p > c.D || c.D%p != 0 {
		return Result{}, fmt.Errorf("analytic: streaming RAID needs p | d, got p=%d d=%d", p, c.D)
	}
	clusters := c.D / p
	k := 2 * float64(p-1) * float64(clusters)
	ok := func(q int, b units.Bits) bool {
		lhs := 2*c.Disk.Seek.Seconds() + float64(q)*(c.Disk.Rotation.Seconds()+units.TransferTime(b, c.Disk.TransferRate).Seconds())
		rhs := float64(p-1) * units.TransferTime(b, c.Disk.PlaybackRate).Seconds()
		return lhs <= rhs
	}
	// The cluster moves (p−1)·b per access at (p−1)·r_d aggregate rate, so
	// the effective per-stream ceiling scales with p−1.
	ceiling := c.Disk.StreamCeiling() * (p - 1)
	q, b := maxQ(c.Disk, ceiling,
		func(q int) units.Bits { return units.Bits(float64(c.Buffer) / (float64(q) * k)) },
		ok,
	)
	if q < 1 {
		return Result{}, fmt.Errorf("analytic: streaming RAID p=%d infeasible", p)
	}
	return Result{
		Scheme: scheme.StreamingRAID, P: p, Q: q, Block: b,
		Clips: q * clusters,
	}, nil
}

// SolveNonClustered solves the non-clustered baseline for fixed p (§7.4):
// 2·b per clip during normal operation, p·b/2 per clip of the (single)
// failed cluster during degraded mode:
//
//	2·b·q·(d/p − 1)·(p−1) + (p/2)·b·q·(p−1) ≤ B.
func SolveNonClustered(c Config, p int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if p < 2 || p > c.D || c.D%p != 0 {
		return Result{}, fmt.Errorf("analytic: non-clustered needs p | d, got p=%d d=%d", p, c.D)
	}
	clusters := c.D / p
	k := 2*float64(clusters-1)*float64(p-1) + float64(p)/2*float64(p-1)
	q, b := maxQ(c.Disk, c.Disk.StreamCeiling(),
		func(q int) units.Bits { return units.Bits(float64(c.Buffer) / (float64(q) * k)) },
		func(q int, b units.Bits) bool { return c.Disk.SatisfiesEquation1(q, b) },
	)
	if q < 1 {
		return Result{}, fmt.Errorf("analytic: non-clustered p=%d infeasible", p)
	}
	return Result{
		Scheme: scheme.NonClustered, P: p, Q: q, Block: b,
		Clips: q * (p - 1) * clusters,
	}, nil
}

// Solve dispatches to the per-scheme solver for a fixed p, running the f
// search (Figure 4's inner loop) for the two schemes that reserve
// contingency bandwidth: f grows from 1 until the row/class capacity
// covers the admitted clips (r·f ≥ q−f for declustered with
// r = ⌊(d−1)/(p−1)⌋; f·(d−(p−1)) ≥ q−f for prefetch-flat). The §5
// dynamic variant shares the declustered closed form; P+Q has none.
func Solve(c Config, s scheme.Scheme, p int) (Result, error) {
	switch s {
	case scheme.Declustered, scheme.DeclusteredDynamic:
		r := (c.D - 1) / (p - 1)
		if r < 1 {
			r = 1
		}
		return solveWithF(p, func(f int) (Result, error) { return SolveDeclustered(c, p, f) },
			func(res Result, f int) bool { return r*f >= res.Q-f })
	case scheme.PrefetchFlat:
		m := c.D - (p - 1)
		return solveWithF(p, func(f int) (Result, error) { return SolvePrefetchFlat(c, p, f) },
			func(res Result, f int) bool { return f*m >= res.Q-f })
	case scheme.PrefetchParityDisk:
		return SolvePrefetchParityDisk(c, p)
	case scheme.StreamingRAID:
		return SolveStreamingRAID(c, p)
	case scheme.NonClustered:
		return SolveNonClustered(c, p)
	default:
		return Result{}, fmt.Errorf("analytic: no §7 closed form for scheme %v", s)
	}
}

// solveWithF runs Figure 4's inner loop: f := f+1 until enough(q, f).
func solveWithF(p int, solve func(f int) (Result, error), enough func(Result, int) bool) (Result, error) {
	var lastErr error
	for f := 1; ; f++ {
		res, err := solve(f)
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return Result{}, fmt.Errorf("analytic: f search exhausted at f=%d: %w", f, lastErr)
		}
		if enough(res, f) {
			return res, nil
		}
		if f >= res.Q {
			return Result{}, fmt.Errorf("analytic: f search exhausted (f=%d >= q=%d)", f, res.Q)
		}
	}
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
