// Package bibd constructs balanced incomplete block designs (BIBDs), the
// combinatorial structure behind the declustered-parity layout of Özden et
// al. (SIGMOD 1996, §4.1).
//
// A (v, k, λ)-BIBD arranges v objects (disks) into s sets of k distinct
// objects such that every object occurs in exactly r sets and every pair of
// distinct objects occurs together in exactly λ sets, with
//
//	r·(k−1) = λ·(v−1)   and   s·k = v·r.
//
// The paper needs λ = 1 designs (so any two parity groups share at most one
// disk). It takes them from tables in Hall's "Combinatorial Theory"; we
// construct them algorithmically instead:
//
//   - k = 2: the complete pair design (all edges of K_v),
//   - k = v: the trivial single-set design,
//   - cyclic difference families found by bounded backtracking search
//     (reproduces the paper's Example 1 Fano plane for v=7, k=3),
//   - affine planes AG(2,q) for v = q², k = q, q prime,
//   - projective planes PG(2,q) for v = q²+q+1, k = q+1, q prime.
//
// For (v, k) with no λ = 1 BIBD — including the paper's own evaluation
// points d=32 with p ∈ {4, 8, 16} — New falls back to an approximate
// rotational design with r = ⌊(v−1)/(k−1)⌋ rows, each row a partition of
// the disks into v/k groups, chosen greedily to minimize the worst pair
// multiplicity. Verify reports how close any design is to balanced.
package bibd

import (
	"errors"
	"fmt"
	"sort"
)

// Design is a block design over objects 0..V-1. For exact λ=1 BIBDs,
// Lambda is 1 and Replication()·(K−1) = V−1; approximate designs keep the
// per-object replication exact and relax only the pair balance.
type Design struct {
	// V is the number of objects (disks).
	V int
	// K is the set (parity group) size.
	K int
	// Sets holds the blocks of the design; each is a sorted slice of K
	// distinct objects.
	Sets [][]int
	// Exact reports whether the design is a true λ=1 BIBD.
	Exact bool
}

// Replication returns r, the number of sets each object occurs in.
// It is exact for every design this package produces (including
// approximations, which keep per-object replication uniform).
func (d *Design) Replication() int {
	if d.V == 0 {
		return 0
	}
	return len(d.Sets) * d.K / d.V
}

// SetsContaining returns the indices of all sets containing object x, in
// ascending set order. The result is freshly allocated.
func (d *Design) SetsContaining(x int) []int {
	var out []int
	for i, s := range d.Sets {
		for _, o := range s {
			if o == x {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Stats summarizes how balanced a design is, as computed by Verify.
type Stats struct {
	// RMin and RMax bound the per-object replication counts.
	RMin, RMax int
	// LambdaMin and LambdaMax bound the pair-coverage counts over all
	// object pairs.
	LambdaMin, LambdaMax int
	// Exact is true when RMin == RMax and LambdaMin == LambdaMax == 1:
	// a true λ=1 BIBD.
	Exact bool
}

// Verify checks structural validity of the design (set sizes, object
// ranges, no duplicates within a set) and returns balance statistics.
func Verify(d *Design) (Stats, error) {
	if d.V < 2 {
		return Stats{}, errors.New("bibd: need at least two objects")
	}
	if d.K < 2 || d.K > d.V {
		return Stats{}, fmt.Errorf("bibd: set size k=%d outside [2, v=%d]", d.K, d.V)
	}
	if len(d.Sets) == 0 {
		return Stats{}, errors.New("bibd: design has no sets")
	}
	repl := make([]int, d.V)
	pair := make([]int, d.V*d.V)
	for si, s := range d.Sets {
		if len(s) != d.K {
			return Stats{}, fmt.Errorf("bibd: set %d has size %d, want %d", si, len(s), d.K)
		}
		for _, a := range s {
			if a < 0 || a >= d.V {
				return Stats{}, fmt.Errorf("bibd: set %d contains out-of-range object %d", si, a)
			}
		}
		for i, a := range s {
			repl[a]++
			for _, b := range s[i+1:] {
				if a == b {
					return Stats{}, fmt.Errorf("bibd: set %d contains duplicate object %d", si, a)
				}
				pair[a*d.V+b]++
				pair[b*d.V+a]++
			}
		}
	}
	st := Stats{RMin: repl[0], RMax: repl[0], LambdaMin: -1}
	for _, c := range repl {
		if c < st.RMin {
			st.RMin = c
		}
		if c > st.RMax {
			st.RMax = c
		}
	}
	for a := 0; a < d.V; a++ {
		for b := a + 1; b < d.V; b++ {
			c := pair[a*d.V+b]
			if st.LambdaMin == -1 || c < st.LambdaMin {
				st.LambdaMin = c
			}
			if c > st.LambdaMax {
				st.LambdaMax = c
			}
		}
	}
	st.Exact = st.RMin == st.RMax && st.LambdaMin == 1 && st.LambdaMax == 1
	return st, nil
}

// ExistsExact reports whether the necessary arithmetic conditions for a
// (v, k, 1)-BIBD hold: (v−1) divisible by (k−1) and v(v−1) divisible by
// k(k−1). (Necessary, not sufficient.)
func ExistsExact(v, k int) bool {
	if k < 2 || k > v {
		return false
	}
	if k == v {
		return true // trivial single-set design
	}
	return (v-1)%(k-1) == 0 && (v*(v-1))%(k*(k-1)) == 0
}

// Trivial returns the k = v design: a single set containing every object.
// It is the degenerate λ=1 BIBD with r = 1, matching RAID-5 with one
// array-wide parity group.
func Trivial(v int) (*Design, error) {
	if v < 2 {
		return nil, errors.New("bibd: trivial design needs v >= 2")
	}
	s := make([]int, v)
	for i := range s {
		s[i] = i
	}
	return &Design{V: v, K: v, Sets: [][]int{s}, Exact: true}, nil
}

// CompletePairs returns the k = 2 design containing every pair of objects
// — the edge set of K_v. It is a λ=1 BIBD with r = v−1.
func CompletePairs(v int) (*Design, error) {
	if v < 2 {
		return nil, errors.New("bibd: pair design needs v >= 2")
	}
	var sets [][]int
	for a := 0; a < v; a++ {
		for b := a + 1; b < v; b++ {
			sets = append(sets, []int{a, b})
		}
	}
	return &Design{V: v, K: 2, Sets: sets, Exact: true}, nil
}

// FromDifferenceFamily builds a cyclic design over Z_v from base blocks:
// each base block B yields v sets {B+t mod v : t ∈ Z_v}. When the base
// blocks form a (v, k, 1) difference family — every nonzero residue occurs
// exactly once as a difference within the family — the result is an exact
// λ=1 BIBD; a *planar difference set* (one base block with
// k(k−1) = v−1) gives the projective plane. The translates of a
// full-orbit block are distinct; a repeated one would double λ on its
// pairs, which the exactness check refuses.
func FromDifferenceFamily(v int, family [][]int) (*Design, error) {
	if v < 2 || len(family) == 0 {
		return nil, errors.New("bibd: empty difference family")
	}
	k := len(family[0])
	var sets [][]int
	for _, base := range family {
		if len(base) != k {
			return nil, errors.New("bibd: base blocks must share one size")
		}
		for t := 0; t < v; t++ {
			s := make([]int, k)
			for i, x := range base {
				s[i] = (x + t) % v
			}
			sort.Ints(s)
			sets = append(sets, s)
		}
	}
	d := &Design{V: v, K: k, Sets: sets}
	st, err := Verify(d)
	if err != nil {
		return nil, err
	}
	d.Exact = st.Exact
	if !d.Exact {
		return nil, fmt.Errorf("bibd: base blocks are not a (v=%d, k=%d, 1) difference family (λ in [%d,%d])", v, k, st.LambdaMin, st.LambdaMax)
	}
	return d, nil
}

// SearchDifferenceFamily looks for a (v, k, 1) cyclic difference family by
// lexicographic backtracking, bounded by maxNodes search nodes. It returns
// the family and true on success. The lexicographically-first solution for
// v=7, k=3 is {0,1,3}, the Fano plane labeling of the paper's Example 1.
func SearchDifferenceFamily(v, k int, maxNodes int) ([][]int, bool) {
	if !ExistsExact(v, k) || k < 2 || k >= v {
		return nil, false
	}
	need := (v - 1) / (k * (k - 1)) // number of base blocks (full orbits)
	if need*k*(k-1) != v-1 {
		return nil, false // a short orbit would be required
	}
	usedDiff := make([]bool, v)
	family := make([][]int, 0, need)
	nodes := 0

	var extend func() bool
	var grow func(block []int, minNext int) bool

	// grow extends the current partial base block one element at a time,
	// keeping the running difference marks consistent.
	grow = func(block []int, minNext int) bool {
		nodes++
		if nodes > maxNodes {
			return false
		}
		if len(block) == k {
			family = append(family, append([]int(nil), block...))
			if extend() {
				return true
			}
			family = family[:len(family)-1]
			return false
		}
		for x := minNext; x < v; x++ {
			ok := true
			var marked [][2]int
			for _, y := range block {
				d1 := ((x-y)%v + v) % v
				d2 := (v - d1) % v
				if usedDiff[d1] || (d2 != d1 && usedDiff[d2]) {
					ok = false
					break
				}
				usedDiff[d1] = true
				if d2 != d1 {
					usedDiff[d2] = true
				}
				marked = append(marked, [2]int{d1, d2})
			}
			if ok {
				block = append(block, x)
				if grow(block, x+1) {
					return true
				}
				block = block[:len(block)-1]
			}
			for _, m := range marked {
				usedDiff[m[0]] = false
				if m[1] != m[0] {
					usedDiff[m[1]] = false
				}
			}
		}
		return false
	}

	extend = func() bool {
		if len(family) == need {
			return true
		}
		// Each base block is normalized to start with 0; the second
		// element is the smallest unused positive difference, which prunes
		// equivalent orderings.
		return grow([]int{0}, 1)
	}

	if !extend() {
		return nil, false
	}
	return family, true
}

// AffinePlane constructs AG(2, q) for prime q: v = q² points (x, y)
// numbered x·q + y, and q² + q lines of k = q points — the q·q lines
// y = m·x + c plus the q vertical lines x = c. It is an exact λ=1 BIBD
// with r = q+1, and is resolvable: lines with equal slope partition the
// points.
func AffinePlane(q int) (*Design, error) {
	if !isPrime(q) {
		return nil, fmt.Errorf("bibd: affine plane order %d: only prime orders are implemented", q)
	}
	v := q * q
	var sets [][]int
	for m := 0; m < q; m++ {
		for c := 0; c < q; c++ {
			line := make([]int, q)
			for x := 0; x < q; x++ {
				y := (m*x + c) % q
				line[x] = x*q + y
			}
			sort.Ints(line)
			sets = append(sets, line)
		}
	}
	for c := 0; c < q; c++ {
		line := make([]int, q)
		for y := 0; y < q; y++ {
			line[y] = c*q + y
		}
		sets = append(sets, line)
	}
	return &Design{V: v, K: q, Sets: sets, Exact: true}, nil
}

// ProjectivePlane constructs PG(2, q) for prime q: v = q²+q+1 points (the
// 1-dimensional subspaces of GF(q)³) and as many lines (the 2-dimensional
// subspaces), each with k = q+1 points. Exact λ=1 BIBD with r = q+1.
func ProjectivePlane(q int) (*Design, error) {
	if !isPrime(q) {
		return nil, fmt.Errorf("bibd: projective plane order %d: only prime orders are implemented", q)
	}
	// Canonical point representatives: (1, y, z), (0, 1, z), (0, 0, 1).
	type pt [3]int
	var points []pt
	for y := 0; y < q; y++ {
		for z := 0; z < q; z++ {
			points = append(points, pt{1, y, z})
		}
	}
	for z := 0; z < q; z++ {
		points = append(points, pt{0, 1, z})
	}
	points = append(points, pt{0, 0, 1})
	index := make(map[pt]int, len(points))
	for i, p := range points {
		index[p] = i
	}
	normalize := func(p pt) pt {
		// Scale so the first nonzero coordinate is 1 (GF(q) inverse via
		// Fermat exponentiation is overkill; linear scan is fine).
		for _, lead := range p {
			if lead == 0 {
				continue
			}
			inv := 0
			for t := 1; t < q; t++ {
				if lead*t%q == 1 {
					inv = t
					break
				}
			}
			return pt{p[0] * inv % q, p[1] * inv % q, p[2] * inv % q}
		}
		return p
	}
	// Lines are also parameterized by dual coordinates [a,b,c]: the line
	// contains points with a·x + b·y + c·z ≡ 0.
	var sets [][]int
	for _, l := range points { // dual: same canonical representatives
		var line []int
		for _, p := range points {
			if (l[0]*p[0]+l[1]*p[1]+l[2]*p[2])%q == 0 {
				line = append(line, index[normalize(p)])
			}
		}
		sort.Ints(line)
		sets = append(sets, line)
	}
	return &Design{V: q*q + q + 1, K: q + 1, Sets: sets, Exact: true}, nil
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for i := 2; i*i <= n; i++ {
		if n%i == 0 {
			return false
		}
	}
	return true
}

// SteinerTriple constructs a Steiner triple system STS(v) — a (v, 3, 1)
// BIBD — for every v ≡ 3 (mod 6) via the Bose construction: points are
// Z_n × {0,1,2} with v = 3n (n odd); the triples are the n "spokes"
// {(i,0),(i,1),(i,2)} plus, for every pair i < j in Z_n and every level
// k, the triple {(i,k), (j,k), ((i+j)/2, k+1)} with /2 the inverse of 2
// in Z_n. Unlike the backtracking difference-family search, this is
// constructive and instant for any size.
func SteinerTriple(v int) (*Design, error) {
	if v%6 != 3 || v < 3 {
		return nil, fmt.Errorf("bibd: Bose construction needs v ≡ 3 (mod 6), got %d", v)
	}
	if v == 3 {
		return Trivial(3)
	}
	n := v / 3
	inv2 := (n + 1) / 2 // 2·(n+1)/2 = n+1 ≡ 1 (mod n) for odd n
	point := func(i, k int) int { return i + k*n }
	var sets [][]int
	for i := 0; i < n; i++ {
		sets = append(sets, []int{point(i, 0), point(i, 1), point(i, 2)})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mid := (i + j) * inv2 % n
			for k := 0; k < 3; k++ {
				tri := []int{point(i, k), point(j, k), point(mid, (k+1)%3)}
				sort.Ints(tri)
				sets = append(sets, tri)
			}
		}
	}
	return &Design{V: v, K: 3, Sets: sets, Exact: true}, nil
}
