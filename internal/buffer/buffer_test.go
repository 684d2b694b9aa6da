package buffer

import (
	"testing"

	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := NewPool(-units.MB); err == nil {
		t.Error("accepted negative capacity")
	}
}

func TestReserveRelease(t *testing.T) {
	p, err := NewPool(10 * units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Reserve(4 * units.MB) {
		t.Fatal("first reserve refused")
	}
	if !p.Reserve(4 * units.MB) {
		t.Fatal("second reserve refused")
	}
	if p.Reserve(4 * units.MB) {
		t.Fatal("over-reserve accepted")
	}
	if p.Used() != 8*units.MB || p.Free() != 2*units.MB || p.Clips() != 2 {
		t.Fatalf("accounting: used=%v free=%v clips=%d", p.Used(), p.Free(), p.Clips())
	}
	p.Release(4 * units.MB)
	if !p.Reserve(6 * units.MB) {
		t.Fatal("reserve after release refused")
	}
	if p.Capacity() != 10*units.MB {
		t.Fatalf("capacity changed: %v", p.Capacity())
	}
}

func TestExactFit(t *testing.T) {
	p, _ := NewPool(units.MB)
	if !p.Reserve(units.MB) {
		t.Fatal("exact fit refused")
	}
	if p.Free() != 0 {
		t.Fatalf("free = %v", p.Free())
	}
}

func TestReservePanicsOnZero(t *testing.T) {
	p, _ := NewPool(units.MB)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Reserve(0)
}

func TestReleasePanicsOnExcess(t *testing.T) {
	p, _ := NewPool(units.MB)
	p.Reserve(units.KB)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Release(2 * units.KB)
}

// TestPerClip: a pool sized for n clips of a scheme's per-clip buffer
// admits exactly n of them.
func TestPerClip(t *testing.T) {
	b := units.Bits(1000)
	cases := []struct {
		s    scheme.Scheme
		p    int
		want units.Bits
	}{
		{scheme.Declustered, 8, 2000},
		{scheme.DeclusteredDynamic, 8, 2000},
		{scheme.NonClustered, 8, 2000},
		{scheme.PrefetchParityDisk, 8, 4000},
		{scheme.PrefetchFlat, 4, 2000},
		{scheme.StreamingRAID, 4, 6000},
	}
	for _, c := range cases {
		got := c.s.PerClip(b, c.p)
		if got != c.want {
			t.Errorf("%v.PerClip(p=%d) = %d, want %d", c.s, c.p, got, c.want)
			continue
		}
		pool, err := NewPool(3 * got)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if !pool.Reserve(got) {
				t.Errorf("%v: clip %d refused", c.s, i)
			}
		}
		if pool.Reserve(got) {
			t.Errorf("%v: fourth clip admitted", c.s)
		}
	}
}
