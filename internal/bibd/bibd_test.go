package bibd

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestExample1FanoPlane reproduces the paper's Example 1 exactly: the
// (7,3,1)-BIBD generated by the difference set {0,1,3} mod 7, i.e.
// S_i = {i, i+1, i+3} (E2).
func TestExample1FanoPlane(t *testing.T) {
	fam, ok := SearchDifferenceFamily(7, 3, searchBudget)
	if !ok {
		t.Fatal("no (7,3,1) difference set found")
	}
	if fmt.Sprint(fam) != "[[0 1 3]]" {
		t.Fatalf("difference set = %v, want [[0 1 3]]", fam)
	}
	d, err := FromDifferenceFamily(7, fam)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{0, 1, 3}, {1, 2, 4}, {2, 3, 5}, {3, 4, 6},
		{0, 4, 5}, {1, 5, 6}, {0, 2, 6},
	}
	if len(d.Sets) != 7 {
		t.Fatalf("got %d sets, want 7", len(d.Sets))
	}
	for i, w := range want {
		if fmt.Sprint(d.Sets[i]) != fmt.Sprint(w) {
			t.Errorf("S%d = %v, want %v", i, d.Sets[i], w)
		}
	}
	if d.Replication() != 3 {
		t.Errorf("r = %d, want 3", d.Replication())
	}
	st, err := Verify(d)
	if err != nil || !st.Exact {
		t.Errorf("Fano plane not verified exact: %+v, %v", st, err)
	}
}

func TestTrivial(t *testing.T) {
	d, err := Trivial(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Sets) != 1 || d.K != 5 || d.Replication() != 1 {
		t.Fatalf("trivial design malformed: %+v", d)
	}
	st, err := Verify(d)
	if err != nil {
		t.Fatal(err)
	}
	// λ for k=v is 1 trivially (each pair in the one set).
	if !st.Exact {
		t.Errorf("trivial design should verify exact: %+v", st)
	}
	if _, err := Trivial(1); err == nil {
		t.Error("Trivial(1) should error")
	}
}

func TestCompletePairs(t *testing.T) {
	d, err := CompletePairs(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Sets) != 15 {
		t.Fatalf("C(6,2) = %d sets, want 15", len(d.Sets))
	}
	if d.Replication() != 5 {
		t.Fatalf("r = %d, want 5", d.Replication())
	}
	st, err := Verify(d)
	if err != nil || !st.Exact {
		t.Fatalf("pair design not exact: %+v, %v", st, err)
	}
	if _, err := CompletePairs(1); err == nil {
		t.Error("CompletePairs(1) should error")
	}
}

func TestAffinePlanes(t *testing.T) {
	for _, q := range []int{2, 3, 5, 7} {
		d, err := AffinePlane(q)
		if err != nil {
			t.Fatalf("AffinePlane(%d): %v", q, err)
		}
		if d.V != q*q || d.K != q || len(d.Sets) != q*q+q {
			t.Fatalf("AffinePlane(%d) dimensions wrong: v=%d k=%d s=%d", q, d.V, d.K, len(d.Sets))
		}
		if d.Replication() != q+1 {
			t.Fatalf("AffinePlane(%d) r = %d, want %d", q, d.Replication(), q+1)
		}
		st, err := Verify(d)
		if err != nil || !st.Exact {
			t.Fatalf("AffinePlane(%d) not exact: %+v, %v", q, st, err)
		}
	}
	if _, err := AffinePlane(4); err == nil {
		t.Error("AffinePlane(4) should error (prime-power orders unimplemented)")
	}
	if _, err := AffinePlane(1); err == nil {
		t.Error("AffinePlane(1) should error")
	}
}

func TestProjectivePlanes(t *testing.T) {
	for _, q := range []int{2, 3, 5} {
		d, err := ProjectivePlane(q)
		if err != nil {
			t.Fatalf("ProjectivePlane(%d): %v", q, err)
		}
		v := q*q + q + 1
		if d.V != v || d.K != q+1 || len(d.Sets) != v {
			t.Fatalf("PG(2,%d) dimensions wrong: v=%d k=%d s=%d", q, d.V, d.K, len(d.Sets))
		}
		st, err := Verify(d)
		if err != nil || !st.Exact {
			t.Fatalf("PG(2,%d) not exact: %+v, %v", q, st, err)
		}
	}
	if _, err := ProjectivePlane(6); err == nil {
		t.Error("ProjectivePlane(6) should error")
	}
}

func TestSearchDifferenceFamilyMultiBlock(t *testing.T) {
	// (13,3,1) needs two base blocks; (21,5,1) is the planar difference
	// set for PG(2,4); (9,3,1) has no cyclic solution over Z_9 (the affine
	// plane AG(2,3) is not cyclic) — search may fail, which is fine; we
	// only assert that successes verify.
	cases := []struct{ v, k int }{{13, 3}, {13, 4}, {21, 5}, {31, 6}}
	for _, c := range cases {
		fam, ok := SearchDifferenceFamily(c.v, c.k, searchBudget)
		if !ok {
			t.Errorf("no (%d,%d,1) difference family found", c.v, c.k)
			continue
		}
		d, err := FromDifferenceFamily(c.v, fam)
		if err != nil {
			t.Errorf("(%d,%d): %v", c.v, c.k, err)
			continue
		}
		if st, _ := Verify(d); !st.Exact {
			t.Errorf("(%d,%d) family not exact: %+v", c.v, c.k, st)
		}
	}
}

func TestSearchDifferenceFamilyRejectsImpossible(t *testing.T) {
	// v=8, k=3: (v-1)%(k-1) = 7%2 = 1 != 0, no BIBD.
	if _, ok := SearchDifferenceFamily(8, 3, searchBudget); ok {
		t.Error("found impossible (8,3,1) design")
	}
	if ExistsExact(8, 3) {
		t.Error("ExistsExact(8,3) should be false")
	}
	if !ExistsExact(7, 3) || !ExistsExact(13, 4) || !ExistsExact(9, 3) {
		t.Error("ExistsExact rejected known designs")
	}
	if ExistsExact(32, 4) || ExistsExact(32, 8) || ExistsExact(32, 16) {
		t.Error("ExistsExact accepted d=32 cases known to have none")
	}
	if !ExistsExact(32, 2) || !ExistsExact(32, 32) {
		t.Error("ExistsExact rejected pair/trivial designs for v=32")
	}
}

func TestFromDifferenceFamilyRejectsBadFamily(t *testing.T) {
	// {0,1,2} mod 7 repeats difference 1: not a difference set.
	if _, err := FromDifferenceFamily(7, [][]int{{0, 1, 2}}); err == nil {
		t.Error("accepted invalid difference family")
	}
	if _, err := FromDifferenceFamily(7, nil); err == nil {
		t.Error("accepted empty family")
	}
	if _, err := FromDifferenceFamily(13, [][]int{{0, 1, 4}, {0, 2}}); err == nil {
		t.Error("accepted ragged family")
	}
}

// TestRotationalPaperConfigs exercises exactly the approximate designs the
// paper's d=32 evaluation needs: p in {4, 8, 16}.
func TestRotationalPaperConfigs(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		d, err := Rotational(32, k)
		if err != nil {
			t.Fatalf("Rotational(32,%d): %v", k, err)
		}
		wantR := 31 / (k - 1)
		if got := d.Replication(); got != wantR {
			t.Errorf("Rotational(32,%d) r = %d, want %d", k, got, wantR)
		}
		st, err := Verify(d)
		if err != nil {
			t.Fatalf("Rotational(32,%d): %v", k, err)
		}
		if st.RMin != st.RMax {
			t.Errorf("Rotational(32,%d) replication not uniform: [%d,%d]", k, st.RMin, st.RMax)
		}
		// Approximation quality: no pair should repeat more than twice.
		if st.LambdaMax > 2 {
			t.Errorf("Rotational(32,%d) λmax = %d, want <= 2", k, st.LambdaMax)
		}
		if d.Exact {
			t.Errorf("Rotational(32,%d) claims exactness", k)
		}
	}
}

func TestRotationalErrors(t *testing.T) {
	if _, err := Rotational(32, 5); err == nil {
		t.Error("Rotational should require k | v")
	}
	if _, err := Rotational(4, 1); err == nil {
		t.Error("Rotational should reject k < 2")
	}
	if _, err := Rotational(4, 8); err == nil {
		t.Error("Rotational should reject k > v")
	}
}

// TestRotationalRowsArePartitions: each consecutive chunk of v/k sets must
// partition the objects (every object exactly once), which the PGT layer
// depends on.
func TestRotationalRowsArePartitions(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		d, err := Rotational(32, k)
		if err != nil {
			t.Fatal(err)
		}
		perRow := 32 / k
		for row := 0; row*perRow < len(d.Sets); row++ {
			seen := make([]bool, 32)
			for _, s := range d.Sets[row*perRow : (row+1)*perRow] {
				for _, x := range s {
					if seen[x] {
						t.Fatalf("k=%d row %d covers object %d twice", k, row, x)
					}
					seen[x] = true
				}
			}
			for x, ok := range seen {
				if !ok {
					t.Fatalf("k=%d row %d misses object %d", k, row, x)
				}
			}
		}
	}
}

func TestNewDispatcher(t *testing.T) {
	cases := []struct {
		v, k      int
		wantExact bool
	}{
		{7, 3, true},    // Fano plane via difference set
		{13, 4, true},   // PG(2,3) via difference set
		{9, 3, true},    // AG(2,3) via geometric fallback
		{32, 2, true},   // complete pairs
		{32, 32, true},  // trivial
		{32, 4, false},  // rotational
		{32, 8, false},  // rotational
		{32, 16, false}, // rotational
	}
	for _, c := range cases {
		d, err := New(c.v, c.k)
		if err != nil {
			t.Errorf("New(%d,%d): %v", c.v, c.k, err)
			continue
		}
		if d.Exact != c.wantExact {
			t.Errorf("New(%d,%d).Exact = %v, want %v", c.v, c.k, d.Exact, c.wantExact)
		}
		if st, err := Verify(d); err != nil {
			t.Errorf("New(%d,%d) verify: %v", c.v, c.k, err)
		} else if c.wantExact && !st.Exact {
			t.Errorf("New(%d,%d) stats not exact: %+v", c.v, c.k, st)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(1, 1); err == nil {
		t.Error("New(1,1) should error")
	}
	if _, err := New(10, 1); err == nil {
		t.Error("New(10,1) should error")
	}
	if _, err := New(10, 11); err == nil {
		t.Error("New(10,11) should error")
	}
	// v=10, k=3: no exact design (ExistsExact false: 9%2=1... actually
	// 9%2=1 so false) and 3 does not divide 10.
	if _, err := New(10, 3); err == nil {
		t.Error("New(10,3) should error")
	}
}

func TestSetsContaining(t *testing.T) {
	d, err := New(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := d.SetsContaining(0)
	// Object 0 is in S0={0,1,3}, S4={0,4,5}, S6={0,2,6}.
	if fmt.Sprint(got) != "[0 4 6]" {
		t.Fatalf("SetsContaining(0) = %v, want [0 4 6]", got)
	}
	for x := 0; x < 7; x++ {
		if n := len(d.SetsContaining(x)); n != 3 {
			t.Errorf("object %d in %d sets, want 3", x, n)
		}
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	cases := []*Design{
		{V: 1, K: 2, Sets: [][]int{{0, 1}}},
		{V: 5, K: 1, Sets: [][]int{{0}}},
		{V: 5, K: 6, Sets: [][]int{{0, 1, 2, 3, 4}}},
		{V: 5, K: 2, Sets: nil},
		{V: 5, K: 2, Sets: [][]int{{0, 1, 2}}}, // wrong size
		{V: 5, K: 2, Sets: [][]int{{0, 5}}},    // out of range
		{V: 5, K: 2, Sets: [][]int{{3, 3}}},    // duplicate
		{V: 5, K: 2, Sets: [][]int{{-1, 2}}},   // negative
	}
	for i, d := range cases {
		if _, err := Verify(d); err == nil {
			t.Errorf("case %d: Verify accepted malformed design", i)
		}
	}
}

// Property: for every design New can build over small v, the replication
// count derived from s·k = v·r matches actual per-object counts.
func TestReplicationConsistency(t *testing.T) {
	f := func(vv, kk uint8) bool {
		v := int(vv)%30 + 2
		k := int(kk)%v + 2
		if k > v {
			k = v
		}
		d, err := New(v, k)
		if err != nil {
			return true // no construction: fine
		}
		st, err := Verify(d)
		if err != nil {
			return false
		}
		return st.RMin == st.RMax && st.RMin == d.Replication()
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSteinerTriple: the Bose construction yields exact (v,3,1) designs
// for all v ≡ 3 (mod 6), instantly even at sizes the backtracking search
// cannot reach.
func TestSteinerTriple(t *testing.T) {
	for _, v := range []int{9, 15, 21, 27, 33, 63, 99} {
		d, err := SteinerTriple(v)
		if err != nil {
			t.Fatalf("SteinerTriple(%d): %v", v, err)
		}
		st, err := Verify(d)
		if err != nil {
			t.Fatalf("SteinerTriple(%d): %v", v, err)
		}
		if !st.Exact {
			t.Fatalf("SteinerTriple(%d) not exact: %+v", v, st)
		}
		if want := v * (v - 1) / 6; len(d.Sets) != want {
			t.Fatalf("STS(%d) has %d triples, want %d", v, len(d.Sets), want)
		}
		if want := (v - 1) / 2; d.Replication() != want {
			t.Fatalf("STS(%d) r = %d, want %d", v, d.Replication(), want)
		}
	}
	if _, err := SteinerTriple(7); err == nil {
		t.Error("accepted v=7 (≡ 1 mod 6: needs Skolem, not Bose)")
	}
	if _, err := SteinerTriple(12); err == nil {
		t.Error("accepted v=12")
	}
	// v=3 degenerates to the trivial design.
	if d, err := SteinerTriple(3); err != nil || len(d.Sets) != 1 {
		t.Errorf("SteinerTriple(3): %v, %v", d, err)
	}
}
