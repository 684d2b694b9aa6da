package faultinject

import (
	"errors"
	"slices"
	"testing"

	"ftcms/internal/storage"
)

func TestFailStopFiresFromRound(t *testing.T) {
	in := New(Plan{FailStops: []FailStop{{Disk: 2, Round: 5}}})
	if _, err := in.Hook(2, 0); err != nil {
		t.Fatalf("round 0: %v", err)
	}
	in.SetRound(5)
	if _, err := in.Hook(2, 0); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("round 5: %v, want ErrFailed", err)
	}
	if _, err := in.Hook(1, 0); err != nil {
		t.Fatalf("other disk: %v", err)
	}
	in.SetRound(100)
	if _, err := in.Hook(2, 9); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("round 100: %v, want ErrFailed (fail-stop is permanent)", err)
	}
}

func TestBadBlockAndClear(t *testing.T) {
	in := New(Plan{BadBlocks: []BadBlock{{Disk: 1, Block: 7}}})
	if _, err := in.Hook(1, 7); !errors.Is(err, storage.ErrBadBlock) {
		t.Fatalf("bad block: %v, want ErrBadBlock", err)
	}
	if _, err := in.Hook(1, 8); err != nil {
		t.Fatalf("neighbouring block: %v", err)
	}
	in.ClearBadBlock(1, 7)
	if _, err := in.Hook(1, 7); err != nil {
		t.Fatalf("after clear: %v", err)
	}
}

func TestTransientIsProbabilisticAndDeterministic(t *testing.T) {
	count := func(seed int64) int {
		in := New(Plan{Seed: seed, Transients: []Transient{{Disk: 0, Prob: 0.5, From: 0}}})
		n := 0
		for i := 0; i < 1000; i++ {
			if _, err := in.Hook(0, int64(i)); err != nil {
				if !errors.Is(err, storage.ErrFailed) {
					t.Fatalf("transient error kind: %v", err)
				}
				n++
			}
		}
		return n
	}
	a, b := count(42), count(42)
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	if a < 350 || a > 650 {
		t.Fatalf("p=0.5 over 1000 reads injected %d errors", a)
	}
	if c := count(43); c == a {
		t.Logf("different seeds coincided (possible but unlikely): %d", c)
	}
}

func TestTransientWindow(t *testing.T) {
	in := New(Plan{Seed: 1, Transients: []Transient{{Disk: 0, Prob: 1, From: 10, Until: 20}}})
	check := func(round int64, wantErr bool) {
		t.Helper()
		in.SetRound(round)
		_, err := in.Hook(0, 0)
		if (err != nil) != wantErr {
			t.Fatalf("round %d: err=%v, wantErr=%v", round, err, wantErr)
		}
	}
	check(9, false)
	check(10, true)
	check(19, true)
	check(20, false)
}

func TestSlowWindowStacksWithErrors(t *testing.T) {
	in := New(Plan{
		Slows:      []Slow{{Disk: 3, Factor: 4, From: 0, Until: 0}},
		Transients: []Transient{{Disk: 3, Prob: 1, From: 5}},
	})
	slow, err := in.Hook(3, 0)
	if err != nil || slow != 4 {
		t.Fatalf("healthy slow read: slow=%v err=%v, want 4, nil", slow, err)
	}
	in.SetRound(5)
	slow, err = in.Hook(3, 0)
	if !errors.Is(err, storage.ErrFailed) || slow != 4 {
		t.Fatalf("slow+transient: slow=%v err=%v, want 4, ErrFailed", slow, err)
	}
}

func TestRuntimeMutation(t *testing.T) {
	in := New(Plan{})
	in.SetRound(3)
	if _, err := in.Hook(0, 0); err != nil {
		t.Fatal(err)
	}
	in.AddFailStop(FailStop{Disk: 0, Round: 4})
	in.AddBadBlock(BadBlock{Disk: 1, Block: 2})
	in.AddTransient(Transient{Disk: 2, Prob: 1, From: 0})
	in.AddSlow(Slow{Disk: 3, Factor: 2})
	if _, err := in.Hook(0, 0); err != nil {
		t.Fatalf("fail-stop fired before its round: %v", err)
	}
	in.SetRound(4)
	if _, err := in.Hook(0, 0); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("added fail-stop: %v", err)
	}
	if _, err := in.Hook(1, 2); !errors.Is(err, storage.ErrBadBlock) {
		t.Fatalf("added bad block: %v", err)
	}
	if _, err := in.Hook(2, 0); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("added transient: %v", err)
	}
	if slow, _ := in.Hook(3, 0); slow != 2 {
		t.Fatalf("added slow: %v", slow)
	}
}

// Two injectors built from one plan, as two nodes built from one config
// are, own their events: one's ClearDisk or Add* reaches neither the other
// nor the caller's plan.
func TestInjectorsShareNoPlan(t *testing.T) {
	plan := Plan{FailStops: make([]FailStop, 2, 4)}
	plan.FailStops[0], plan.FailStops[1] = FailStop{Disk: 1}, FailStop{Disk: 2}
	a, b := New(plan), New(plan)
	a.ClearDisk(1)
	if _, err := b.Hook(1, 0); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("b.Hook(1, 0) after a.ClearDisk(1) = %v, want ErrFailed", err)
	}
	a.AddFailStop(FailStop{Disk: 3})
	b.AddFailStop(FailStop{Disk: 4})
	if _, err := a.Hook(3, 0); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("a.Hook(3, 0) after b.AddFailStop = %v, want ErrFailed", err)
	}
	if want := []FailStop{{Disk: 1}, {Disk: 2}}; !slices.Equal(plan.FailStops, want) {
		t.Fatalf("caller's plan = %v, want %v", plan.FailStops, want)
	}
}

// TestHookOnArray wires the injector into a real array end-to-end.
func TestHookOnArray(t *testing.T) {
	arr, err := storage.NewArray(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for d := 0; d < 4; d++ {
		if err := arr.Write(d, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	in := New(Plan{
		FailStops: []FailStop{{Disk: 0, Round: 1}},
		BadBlocks: []BadBlock{{Disk: 1, Block: 0}},
		Slows:     []Slow{{Disk: 2, Factor: 8}},
	})
	arr.SetReadHook(in.Hook)
	in.SetRound(1)
	buf := make([]byte, arr.BlockSize())
	if err := arr.ReadInto(0, 0, buf); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("fail-stop via array: %v", err)
	}
	if arr.Failed(0) {
		t.Fatal("injector must not set the array's failure flag — detection does")
	}
	if err := arr.ReadInto(1, 0, buf); !errors.Is(err, storage.ErrBadBlock) {
		t.Fatalf("bad block via array: %v", err)
	}
	slow, err := arr.ReadTimedInto(2, 0, buf)
	if err != nil || slow != 8 {
		t.Fatalf("slow read via array: slow=%v err=%v", slow, err)
	}
	if err := arr.ReadInto(3, 0, buf); err != nil {
		t.Fatalf("untouched disk: %v", err)
	}
}

func TestOverlapSchedulesTwoFailStops(t *testing.T) {
	var plan Plan
	plan.Overlap(3, 7, 10, 2)
	if len(plan.FailStops) != 2 {
		t.Fatalf("Overlap added %d fail-stops, want 2", len(plan.FailStops))
	}
	in := New(plan)
	// Before the window: both disks answer.
	in.SetRound(9)
	if _, err := in.Hook(3, 0); err != nil {
		t.Fatalf("disk 3 round 9: %v", err)
	}
	// First failure lands at round 10, the second not yet.
	in.SetRound(10)
	if _, err := in.Hook(3, 0); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("disk 3 round 10: %v, want ErrFailed", err)
	}
	if _, err := in.Hook(7, 0); err != nil {
		t.Fatalf("disk 7 round 10: %v (window not elapsed)", err)
	}
	// Second failure overlaps the first at round 10+2.
	in.SetRound(12)
	if _, err := in.Hook(7, 0); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("disk 7 round 12: %v, want ErrFailed", err)
	}
	if _, err := in.Hook(3, 0); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("disk 3 round 12: %v, want ErrFailed (still down)", err)
	}
}

func TestOverlapAppendsToExistingPlan(t *testing.T) {
	plan := Plan{FailStops: []FailStop{{Disk: 0, Round: 1}}}
	plan.Overlap(4, 5, 20, 1)
	if len(plan.FailStops) != 3 {
		t.Fatalf("FailStops = %d, want 3 (Overlap must append, not replace)", len(plan.FailStops))
	}
}
