package core

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"ftcms/internal/analytic"
	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

// TestNewAcceptsFigure5StreamingRAID: New checks continuity with the rule
// the §7 solver scans with, so it builds streaming RAID at every Figure 5
// operating point, whose whole-group rounds Equation 1 alone refuses,
// and still refuses TestNewValidation's block too small for q = 8 under
// every paper scheme.
func TestNewAcceptsFigure5StreamingRAID(t *testing.T) {
	for _, buffer := range []units.Bits{256 * units.MB, 2 * units.GB} {
		c := analytic.Config{Disk: diskmodel.Default(), D: 32, Buffer: buffer}
		for _, p := range []int{2, 4, 8, 16, 32} {
			op, err := analytic.Solve(c, StreamingRAID, p)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Scheme: StreamingRAID, D: 32, P: p, Block: op.Block, Q: op.Q, Buffer: buffer}
			if _, err := New(cfg); err != nil {
				t.Errorf("B=%v p=%d: %v", buffer, p, err)
			}
		}
	}
	for _, sc := range scheme.Paper() {
		cfg := testConfig(sc, 8, 4)
		cfg.Block = 100
		if _, err := New(cfg); err == nil {
			t.Errorf("%v: accepted q=8 blocks of 100 bits", sc)
		}
	}
}

// TestServerAdmitsWhatSolveSays runs every paper scheme New can build at
// d = 12 on the Figure 1 disk with Solve's operating point, opens streams
// at every group start each round until refused, and pins the peak of
// ActiveStreams to Solve's Clips, served without an overflow of q (a
// stream booked on the wrong unit shows there, not in the peak). Where
// the per-clip buffer pool binds first, at ⌊B/PerClip⌋, the gap is named
// here: non-clustered at p ∈ {2, 3}, whose §7.4 constraint charges the
// failed cluster's clips p·b/2 while the server reserves 2·b for every
// clip.
func TestServerAdmitsWhatSolveSays(t *testing.T) {
	const d = 12
	poolBinds := map[string]bool{
		"non-clustered/2MB/p=2": true, "non-clustered/2MB/p=3": true,
		"non-clustered/8MB/p=2": true, "non-clustered/8MB/p=3": true,
	}
	for _, buffer := range []units.Bits{2 * units.MB, 8 * units.MB} {
		for _, sc := range scheme.Paper() {
			for _, p := range []int{2, 3, 4, 6} {
				name := fmt.Sprintf("%v/%dMB/p=%d", sc, buffer/units.MB, p)
				op, err := analytic.Solve(analytic.Config{Disk: diskmodel.Default(), D: d, Buffer: buffer}, sc, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if _, _, err := sc.Layout(d, p, d*blocksPerDisk); err != nil {
					continue // prefetch-flat needs (p−1) | d
				}
				s, err := New(Config{Scheme: sc, D: d, P: p, Block: op.Block, Q: op.Q, F: op.F, Buffer: buffer})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := min(op.Clips, int(buffer/sc.PerClip(op.Block, p)))
				if (want != op.Clips) != poolBinds[name] {
					t.Errorf("%s: pool holds %d clips, Solve %d; named gap %v", name, want, op.Clips, poolBinds[name])
				}
				if got := peakStreams(t, s, d); got != want {
					t.Errorf("%s: peak %d streams, want %d (Solve %d)", name, got, want, op.Clips)
				}
				if st := s.Stats(); st.Overflows != 0 || st.Hiccups != 0 {
					t.Errorf("%s: admitted streams overran q: %d overflows, %d hiccups", name, st.Overflows, st.Hiccups)
				}
			}
		}
	}
}

// peakStreams stores one clip long enough to start on every admission
// cell, then for 2d rounds opens streams at each group start, in a fresh
// random order each round, until refused and ticks, returning the most
// streams open at once.
func peakStreams(t *testing.T, s *Server, d int) int {
	t.Helper()
	bs := int64(s.cfg.Block.Bytes())
	group := bs * s.prefetchDepth
	if err := s.AddClip("c", clipBytes(1, int(group)*2*d*d)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var open []*Stream
	peak := 0
	for round := 0; round < 2*d; round++ {
		for _, g := range rng.Perm(2 * d * d) {
			off := int64(g) * group
			for st, err := s.OpenStreamAt("c", off); err == nil; st, err = s.OpenStreamAt("c", off) {
				open = append(open, st)
			}
		}
		peak = max(peak, s.ActiveStreams())
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
		for _, st := range open {
			io.Copy(io.Discard, st) // stops at ErrNoData or io.EOF
		}
	}
	return peak
}
