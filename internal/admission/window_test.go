package admission

import "testing"

// TestRejectWindowRollOff pins the sliding semantics: the sum tracks
// exactly the last W observations, rolling old rounds off one at a time.
func TestRejectWindowRollOff(t *testing.T) {
	w := NewRejectWindow(4)
	if w.Sum() != 0 {
		t.Fatalf("fresh window not empty: sum=%d", w.Sum())
	}
	pushes := []int{5, 0, 3, 2, 7, 0, 0, 0, 0}
	wantSum := []int{5, 5, 8, 10, 12, 12, 9, 7, 0}
	for i, n := range pushes {
		w.Observe(n)
		if w.Sum() != wantSum[i] {
			t.Fatalf("after push %d (%d): sum %d, want %d", i, n, w.Sum(), wantSum[i])
		}
	}
}

// TestRejectWindowDegenerate covers width clamping: a width below 1 is a
// one-round window.
func TestRejectWindowDegenerate(t *testing.T) {
	w := NewRejectWindow(0)
	w.Observe(9)
	w.Observe(1)
	if w.Sum() != 1 {
		t.Fatalf("width-1 window sum %d, want last push only", w.Sum())
	}
}

// TestRejectWindowObserveAllocs keeps Observe off the heap: the
// autopilot's quiescent tick calls it every round.
func TestRejectWindowObserveAllocs(t *testing.T) {
	w := NewRejectWindow(16)
	if n := testing.AllocsPerRun(100, func() { w.Observe(1) }); n != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", n)
	}
}
