package admission

// RejectWindow is a sliding-window counter of admission rejects over the
// last W rounds. The policy layer (internal/autopilot) keys its scale-out
// decision on a *sustained* reject rate, not a single bad round, so the
// window is the primitive: push one per-round count per round, read the
// rolling sum. The ring is allocated once at construction and Observe is
// allocation-free, keeping the quiescent controller tick off the heap.
type RejectWindow struct {
	counts []int
	sum    int
	pos    int
}

// NewRejectWindow returns a window over w rounds (w < 1 is treated as 1).
func NewRejectWindow(w int) *RejectWindow {
	if w < 1 {
		w = 1
	}
	return &RejectWindow{counts: make([]int, w)}
}

// Observe pushes one round's reject count, rolling the oldest round out
// of the sum once the window is full.
func (w *RejectWindow) Observe(rejects int) {
	w.sum += rejects - w.counts[w.pos]
	w.counts[w.pos] = rejects
	w.pos++
	if w.pos == len(w.counts) {
		w.pos = 0
	}
}

// Sum returns the total rejects over the last w observed rounds.
func (w *RejectWindow) Sum() int { return w.sum }
