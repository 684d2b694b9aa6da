package scheme_test

import (
	"fmt"
	"testing"

	"ftcms/internal/reliability"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

// TestTable pins every record at two geometries: the per-clip buffer
// (b = 1000 bits), storage overhead, critical disks, pre-fetch depth,
// round multiplier, AddDisk support, the layout ("" where it refuses the
// geometry; a table layout's scheme key, else its concrete type) and the
// admission cell of blocks 0 and p.
func TestTable(t *testing.T) {
	cases := []struct {
		s        scheme.Scheme
		d, p     int
		buf      units.Bits
		overhead float64
		critical int
		depth    int
		mult     int
		addDisk  bool
		layout   string
		coords   [4]int // unit and class of block 0, then of block p
	}{
		{scheme.Declustered, 32, 4, 2000, 0.25, 31, 1, 1, true, "declustered", [4]int{0, 0, 4, 0}},
		{scheme.Declustered, 13, 4, 2000, 0.25, 12, 1, 1, true, "declustered", [4]int{0, 0, 4, 0}},
		{scheme.PrefetchFlat, 32, 4, 2000, 0.25, 31, 3, 1, false, "", [4]int{}},
		{scheme.PrefetchFlat, 13, 4, 2000, 0.25, 12, 3, 1, false, "", [4]int{}},
		{scheme.PrefetchParityDisk, 32, 4, 2000, 0.25, 3, 3, 1, false, "*layout.Clustered", [4]int{0, 0, 4, 0}},
		{scheme.PrefetchParityDisk, 13, 4, 2000, 0.25, 3, 3, 1, false, "", [4]int{}},
		{scheme.StreamingRAID, 32, 4, 6000, 0.25, 3, 3, 3, false, "*layout.Clustered", [4]int{0, 0, 1, 0}},
		{scheme.StreamingRAID, 13, 4, 6000, 0.25, 3, 3, 3, false, "", [4]int{}},
		{scheme.NonClustered, 32, 4, 2000, 0.25, 3, 1, 1, false, "*layout.Clustered", [4]int{0, 0, 4, 0}},
		{scheme.NonClustered, 13, 4, 2000, 0.25, 3, 1, 1, false, "", [4]int{}},
		{scheme.DeclusteredDynamic, 32, 4, 2000, 0.25, 31, 1, 1, false, "declustered-dynamic", [4]int{0, 0, 0, 4}},
		{scheme.DeclusteredDynamic, 13, 4, 2000, 0.25, 12, 1, 1, false, "declustered-dynamic", [4]int{0, 0, 1, 0}},
		{scheme.DeclusteredPQ, 32, 4, 2000, 0.5, 31, 1, 1, true, "declustered-pq", [4]int{0, 0, 4, 0}},
		{scheme.DeclusteredPQ, 13, 4, 2000, 0.5, 12, 1, 1, true, "declustered-pq", [4]int{0, 0, 4, 0}},
	}
	for _, c := range cases {
		s, d, p := c.s, c.d, c.p
		if got := s.PerClip(1000, p); got != c.buf {
			t.Errorf("%v: PerClip = %d, want %d", s, got, c.buf)
		}
		if got := float64(s.ParityCols()) / float64(p); got != c.overhead {
			t.Errorf("%v: overhead = %v; want %v", s, got, c.overhead)
		}
		spread := d
		if s.Clustered() {
			spread = p
		}
		if got, err := reliability.CriticalDisks(d, spread); err != nil || got != c.critical {
			t.Errorf("%v d=%d: critical = %d, %v; want %d", s, d, got, err, c.critical)
		}
		if got := s.PrefetchDepth(p); got != c.depth {
			t.Errorf("%v: PrefetchDepth = %d, want %d", s, got, c.depth)
		}
		if got := s.RoundBlocks(p); got != c.mult {
			t.Errorf("%v: RoundBlocks = %d, want %d", s, got, c.mult)
		}
		if s.CanAddDisk() != c.addDisk {
			t.Errorf("%v: CanAddDisk = %v", s, s.CanAddDisk())
		}
		lay, tab, err := s.Layout(d, p, int64(d)*4096)
		if (err == nil) != (c.layout != "") {
			t.Errorf("%v d=%d: layout error %v, want name %q", s, d, err, c.layout)
			continue
		}
		if err != nil {
			continue
		}
		name := fmt.Sprintf("%T", lay)
		if tab != nil {
			name = tab.Name()
		}
		if name != c.layout {
			t.Errorf("%v d=%d: layout %q, want %q", s, d, name, c.layout)
		}
		var got [4]int
		got[0], got[1] = s.Coords(lay, tab, 0)
		got[2], got[3] = s.Coords(lay, tab, int64(p))
		if got != c.coords {
			t.Errorf("%v d=%d: coords %v, want %v", s, d, got, c.coords)
		}
		if _, err := s.Admission(d, p, 8, 2, tab); err != nil {
			t.Errorf("%v d=%d: admission: %v", s, d, err)
		}
	}
}

// TestParseRoundTrip: every key parses back to its scheme, and the lists
// agree with the table.
func TestParseRoundTrip(t *testing.T) {
	all := scheme.All()
	if len(all) != 7 || len(scheme.Names(nil)) != 7 {
		t.Fatalf("%d schemes, %d names; want 7", len(all), len(scheme.Names(nil)))
	}
	for _, s := range all {
		if got, err := scheme.Parse(s.Key()); err != nil || got != s {
			t.Errorf("Parse(%q) = %v, %v", s.Key(), got, err)
		}
		if s.Legend() == "" || s.String() != s.Key() {
			t.Errorf("%v: legend %q", s, s.Legend())
		}
	}
	if _, err := scheme.Parse("raid-0"); err == nil {
		t.Error("Parse accepted raid-0")
	}
	want := []scheme.Scheme{scheme.Declustered, scheme.PrefetchFlat, scheme.PrefetchParityDisk, scheme.StreamingRAID, scheme.NonClustered}
	if got := scheme.Paper(); len(got) != len(want) || got[0] != want[0] || got[4] != want[4] {
		t.Errorf("Paper() = %v, want %v", got, want)
	}
}

// TestInvalid: the zero value and out-of-range values are invalid, and
// nothing builds from them.
func TestInvalid(t *testing.T) {
	for _, s := range []scheme.Scheme{0, 8, 255} {
		if s.Valid() {
			t.Errorf("%v valid", s)
		}
		if _, _, err := s.Layout(7, 3, 100); err == nil {
			t.Errorf("%v: Layout succeeded", s)
		}
		if _, err := s.Admission(7, 3, 8, 2, nil); err == nil {
			t.Errorf("%v: Admission succeeded", s)
		}
	}
	if got := scheme.Scheme(0).String(); got != "Scheme(0)" {
		t.Errorf("String() = %q", got)
	}
}

// TestPerClipMatchesIntegerBuffers pins the per-clip buffer, now a
// coefficient in blocks, to the integer formulas it replaced, odd b and
// odd p·b included.
func TestPerClipMatchesIntegerBuffers(t *testing.T) {
	double := func(b units.Bits, _ int) units.Bits { return 2 * b }
	staggered := func(b units.Bits, p int) units.Bits { return units.Bits(p) * b / 2 }
	wholeGroups := func(b units.Bits, p int) units.Bits { return 2 * units.Bits(p-1) * b }
	old := map[scheme.Scheme]func(units.Bits, int) units.Bits{
		scheme.Declustered: double, scheme.PrefetchFlat: staggered, scheme.PrefetchParityDisk: staggered,
		scheme.StreamingRAID: wholeGroups, scheme.NonClustered: double,
		scheme.DeclusteredDynamic: double, scheme.DeclusteredPQ: double,
	}
	for _, s := range scheme.All() {
		for p := 2; p <= 64; p++ {
			for _, b := range []units.Bits{1, 7, 1000, 12345, 92*units.KB + 3, 8*units.MB + 1, 1<<40 + 1} {
				if got, want := s.PerClip(b, p), old[s](b, p); got != want {
					t.Fatalf("%v p=%d b=%d: PerClip = %d, want %d", s, p, b, got, want)
				}
			}
		}
	}
}

// TestGridRowsMatchTables: every parity group table buildable at d ≤ 40
// has the r = max(⌊(d−1)/(p−1)⌋, 1) rows Grid reports without building
// it.
func TestGridRowsMatchTables(t *testing.T) {
	built := 0
	for _, s := range scheme.All() {
		for d := 2; d <= 40; d++ {
			for p := 2; p <= d; p++ {
				tab, err := s.Table(d, p)
				if err != nil || tab == nil {
					continue
				}
				built++
				if _, rows := s.Grid(d, p); rows != tab.Rows() {
					t.Errorf("%v d=%d p=%d: Grid rows %d, table %d", s, d, p, rows, tab.Rows())
				}
			}
		}
	}
	if built == 0 {
		t.Fatal("no table layout built")
	}
}
