package faultinject

import (
	"errors"
	"testing"

	"ftcms/internal/storage"
)

func TestSilentCorruptionExplicitBlockFiresOnce(t *testing.T) {
	in := New(Plan{Seed: 1, Corruptions: []SilentCorruption{
		{Disk: 2, Block: 5, From: 3, Bits: 2},
	}})
	for r := int64(0); r < 3; r++ {
		in.SetRound(r)
		if due := in.CorruptionsDue(); len(due) != 0 {
			t.Fatalf("round %d: orders %v before From", r, due)
		}
	}
	in.SetRound(3)
	due := in.CorruptionsDue()
	if len(due) != 1 {
		t.Fatalf("round 3: %d orders, want 1", len(due))
	}
	o := due[0]
	if o.Disk != 2 || o.Block != 5 || len(o.Bits) != 2 {
		t.Fatalf("order = %+v, want disk 2 block 5 with 2 bits", o)
	}
	if o.Bits[0] == o.Bits[1] {
		t.Fatalf("order bits %v not distinct", o.Bits)
	}
	// One-shot: never again, even on later rounds.
	for r := int64(4); r < 8; r++ {
		in.SetRound(r)
		if due := in.CorruptionsDue(); len(due) != 0 {
			t.Fatalf("round %d: explicit entry refired: %v", r, due)
		}
	}
}

func TestSilentCorruptionRateIsSeededAndWindowed(t *testing.T) {
	plan := Plan{Seed: 42, Corruptions: []SilentCorruption{
		{Disk: 0, Block: -1, Rate: 0.5, From: 10, Until: 60},
	}}
	collect := func() []CorruptionOrder {
		in := New(plan)
		var all []CorruptionOrder
		for r := int64(0); r < 100; r++ {
			in.SetRound(r)
			all = append(all, in.CorruptionsDue()...)
		}
		return all
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatalf("rate 0.5 over 50 rounds emitted nothing")
	}
	if len(a) >= 50 {
		t.Fatalf("rate 0.5 emitted %d orders in a 50-round window", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d orders", len(a), len(b))
	}
	for i := range a {
		if a[i].Disk != b[i].Disk || a[i].Pick != b[i].Pick || a[i].Bits[0] != b[i].Bits[0] {
			t.Fatalf("order %d differs across replays: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Block != -1 {
			t.Fatalf("rate order %d has explicit block %d", i, a[i].Block)
		}
	}
}

func TestSilentCorruptionLandsOnArrayUndetectedByHook(t *testing.T) {
	arr, err := storage.NewArray(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i)
	}
	if err := arr.Write(1, 7, data); err != nil {
		t.Fatal(err)
	}

	in := New(Plan{Seed: 3, Corruptions: []SilentCorruption{{Disk: 1, Block: 7, From: 0}}})
	arr.SetReadHook(in.Hook)
	in.SetRound(0)
	for _, o := range in.CorruptionsDue() {
		if o.Block >= 0 {
			err = arr.CorruptBits(o.Disk, o.Block, o.Bits)
		} else {
			_, err = arr.CorruptRandomBlock(o.Disk, o.Pick, o.Bits)
		}
		if err != nil {
			t.Fatalf("apply order %+v: %v", o, err)
		}
	}

	// The hook itself stays silent — no injected error, no slowdown —
	// and only the checksum layer catches the rot.
	if slow, herr := in.Hook(1, 7); herr != nil || slow != 1 {
		t.Fatalf("Hook = (%v, %v), want silent (1, nil)", slow, herr)
	}
	if err := arr.ReadInto(1, 7, make([]byte, arr.BlockSize())); !errors.Is(err, storage.ErrCorruptBlock) {
		t.Fatalf("read of rotted block = %v, want ErrCorruptBlock", err)
	}
}

func TestClearDiskDropsCorruptionEntries(t *testing.T) {
	in := New(Plan{Seed: 1, Corruptions: []SilentCorruption{
		{Disk: 0, Block: -1, Rate: 1},
		{Disk: 1, Block: 3, From: 5},
	}})
	in.AddSilentCorruption(SilentCorruption{Disk: 0, Block: 9, From: 0})
	in.ClearDisk(0)
	in.SetRound(5)
	due := in.CorruptionsDue()
	if len(due) != 1 || due[0].Disk != 1 || due[0].Block != 3 {
		t.Fatalf("orders after ClearDisk(0) = %v, want only disk 1 block 3", due)
	}
}
