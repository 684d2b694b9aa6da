package sched

import (
	"testing"

	"ftcms/internal/diskmodel"
	"ftcms/internal/units"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(8, 10, diskmodel.Default(), 2*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	d := diskmodel.Default()
	if _, err := NewEngine(0, 10, d, units.MB); err == nil {
		t.Error("accepted zero disks")
	}
	if _, err := NewEngine(8, 0, d, units.MB); err == nil {
		t.Error("accepted q=0")
	}
	if _, err := NewEngine(8, 10, d, 0); err == nil {
		t.Error("accepted zero block")
	}
}

func TestChargeBudget(t *testing.T) {
	e := newEngine(t)
	e.BeginRound()
	for i := 0; i < 10; i++ {
		if !e.Charge(3) {
			t.Fatalf("charge %d refused within budget", i)
		}
	}
	if e.Charge(3) {
		t.Fatal("11th charge accepted beyond q=10")
	}
	if e.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", e.Overflows)
	}
	if e.Load(3) != 11 || e.Load(2) != 0 {
		t.Fatalf("loads: %d/%d", e.Load(3), e.Load(2))
	}
	// New round clears ledgers but keeps the overflow history.
	e.BeginRound()
	if e.Load(3) != 0 || e.Overflows != 1 {
		t.Fatal("BeginRound cleared wrong state")
	}
	if e.Round() != 2 {
		t.Fatalf("Round = %d", e.Round())
	}
}

func TestChargePanicsOutOfRange(t *testing.T) {
	e := newEngine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Charge(8)
}

// TestServiceTimeWithinRound: q=10 blocks of 2 MB satisfy Equation 1, so
// a round charged within budget fits the round's duration on its heaviest
// disk.
func TestServiceTimeWithinRound(t *testing.T) {
	e := newEngine(t)
	e.BeginRound()
	for i := 0; i < 10; i++ {
		e.Charge(i % 8)
	}
	peak := 0
	for disk := 0; disk < 8; disk++ {
		peak = max(peak, e.Load(disk))
	}
	disk, block := diskmodel.Default(), 2*units.MB
	if used, round := disk.RoundBudgetUsed(peak, block), disk.RoundDuration(block); used > round {
		t.Fatalf("service time %v exceeds round %v within budget", used, round)
	}
}
