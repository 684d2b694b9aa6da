package admission

// Queue is the pending list of §3: client requests wait here until the
// admission controller accepts them. Service is FIFO with an optional
// bounded bypass window: with Bypass = 0 strictly head-of-line (a blocked
// head blocks everyone — trivially starvation-free), with Bypass = k up
// to k requests behind a blocked head may be tried each round. Bounded
// bypass preserves starvation-freedom: the head's wait is bounded because
// admitted clips eventually complete and release exactly the capacity
// class the head needs (clip positions rotate, they never change class).
//
// [ORS96], which the paper defers admission details to, motivates exactly
// this starvation-free low-response-time design point; the trade-off is
// measured by the E8 ablation benchmark.
type Queue[T any] struct {
	// Bypass is the number of requests behind a blocked head that may be
	// attempted per Drain call. 0 means strict FIFO.
	Bypass int

	items []T
}

// Len returns the number of queued requests.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push appends a request.
func (q *Queue[T]) Push(item T) { q.items = append(q.items, item) }

// Drain repeatedly offers queued requests to admit, which reports whether
// the request was admitted (and, if so, must have recorded it). Admitted
// requests leave the queue. Per call, scanning stops after the head plus
// Bypass blocked requests have been refused. It returns the number
// admitted.
func (q *Queue[T]) Drain(admit func(T) bool) int {
	admitted := 0
	refused := 0
	i := 0
	for i < len(q.items) && refused <= q.Bypass {
		if admit(q.items[i]) {
			q.items = append(q.items[:i], q.items[i+1:]...)
			admitted++
			continue
		}
		refused++
		i++
	}
	return admitted
}

// ExpireHead removes leading requests for which expired reports true,
// stopping at the first keeper, and returns how many were removed.
// Pushes arrive in nondecreasing arrival order and Drain preserves
// relative order, so the head is always the oldest waiter — a head-only
// scan suffices for an age cutoff and costs O(removed), not O(queue).
func (q *Queue[T]) ExpireHead(expired func(T) bool) int {
	n := 0
	for n < len(q.items) && expired(q.items[n]) {
		n++
	}
	if n > 0 {
		q.items = q.items[:copy(q.items, q.items[n:])]
	}
	return n
}
