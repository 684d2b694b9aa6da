// Package health is the failure detector the paper assumes away: it
// turns raw per-read outcomes (success, hard error, latent bad block,
// slow response) into disk lifecycle decisions, so the server flips to
// degraded mode by itself instead of being told a disk died.
//
// The detector is deliberately simple and deterministic — the classic
// consecutive-error counter with a timeout channel:
//
//   - every block read goes through bounded retry (Read): a count of
//     attempts, with no wall-clock wait between them;
//   - a hard error (storage.ErrFailed or any unclassified error)
//     increments the disk's consecutive-error count; any success resets
//     it;
//   - a read slower than SlowFactor × nominal counts as a timeout, which
//     is scored like a hard error — a disk that answers too late misses
//     round deadlines just as surely as one that does not answer;
//   - FailThreshold consecutive strikes declare the disk failed, firing
//     the OnFail callback exactly once per declaration;
//   - storage.ErrBadBlock indicts a block, not the device: it is retried
//     once (controller hiccups happen) and surfaced to the caller for
//     per-block reconstruction without counting against the disk;
//   - storage.ErrCorruptBlock is its own class: like a bad block it
//     indicts the block (retry once, surface for reconstruction, no
//     consecutive-error strike — the disk answered on time), but unlike
//     a bad block the wrong bytes came from the medium itself, so the
//     detector also keeps a per-disk *cumulative* corruption count; a
//     disk that rots past CorruptionThreshold is declared failed and
//     takes the normal hot-spare rebuild exit;
//   - storage.ErrNotWritten is not a fault at all — the disk answered.
package health

import (
	"errors"

	"ftcms/internal/storage"
)

// State is the detector's opinion of one disk.
type State int

// Detector states.
const (
	// OK: no outstanding suspicion.
	OK State = iota
	// Suspect: at least one strike, below the failure threshold.
	Suspect
	// Down: declared failed; stays Down until Reset.
	Down
)

// Config tunes a Detector. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Retries is how many times a failed read attempt is retried before
	// the error is surfaced (0 selects the default 2, i.e. up to 3
	// attempts; any negative value disables retry entirely — exactly one
	// attempt per Read).
	Retries int
	// FailThreshold is k: consecutive hard errors or timeouts on a disk
	// that declare it failed (default 3).
	FailThreshold int
	// SlowFactor: a read whose injected service-time multiplier reaches
	// this counts as a timeout strike (default 8; the paper's Equation 1
	// budgets leave far less than 8× slack, so a disk this slow has
	// already blown its round).
	SlowFactor float64
	// CorruptionThreshold is the cumulative per-disk count of corrupt
	// block observations that declares the disk failed (default 16; any
	// negative value disables escalation). Cumulative, not consecutive:
	// bit rot is at-rest damage that successful reads of *other* blocks
	// say nothing about.
	CorruptionThreshold int
}

func (c Config) withDefaults() Config {
	switch {
	case c.Retries == 0:
		c.Retries = 2
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.SlowFactor <= 1 {
		c.SlowFactor = 8
	}
	if c.CorruptionThreshold == 0 {
		c.CorruptionThreshold = 16
	}
	return c
}

// Detector watches d disks. Like the array it watches, one goroutine uses
// it at a time; the OnFail callback runs once an observation is scored.
type Detector struct {
	cfg    Config
	consec []int
	// corrupt is the per-disk cumulative corrupt-block count feeding
	// CorruptionThreshold escalation. Cleared only by Reset.
	corrupt []int
	state   []State
	// retired marks deregistered targets: their slots stay allocated
	// (indices are stable) but Observe no-ops on them, so a node that
	// left the cluster can never be re-declared failed by a stale probe.
	retired []bool
	onFail  func(disk int)
	// clock, when set, timestamps detection: suspectAt[d] records the
	// clock reading of the first strike (or corruption) in the disk's
	// current suspicion window, and a declaration appends the elapsed
	// time to detectLat. The unit is whatever the clock counts — the
	// tick-driven server passes rounds.
	clock     func() int64
	suspectAt []int64
	detectLat []int64
}

// NewDetector creates a detector for d disks.
func NewDetector(d int, cfg Config) *Detector {
	dt := &Detector{
		cfg:     cfg.withDefaults(),
		consec:  make([]int, d),
		corrupt: make([]int, d),
		state:   make([]State, d),
		retired: make([]bool, d),
	}
	dt.suspectAt = make([]int64, d)
	for i := range dt.suspectAt {
		dt.suspectAt[i] = -1
	}
	return dt
}

// Stop is kept only because the benchmark module still calls it
// (bench/layers.go); it goes once that module stops.
//
// Deprecated: does nothing; a detector holds no goroutine, timer or wait.
func (dt *Detector) Stop() {}

// SetOnFail installs the callback fired (once per declaration) when a
// disk crosses the failure threshold. The server uses it to fail-stop
// the disk in the array and flip to degraded mode.
func (dt *Detector) SetOnFail(fn func(disk int)) {
	dt.onFail = fn
}

// SetClock installs the timestamp source used for time-to-detect
// accounting. The detector reads it at the first strike of a suspicion
// window and again at declaration; the tick-driven server passes the
// round counter. With no clock, detection latencies are simply not
// recorded.
func (dt *Detector) SetClock(fn func() int64) {
	dt.clock = fn
}

// DetectLatencies returns, in declaration order, the time from each
// declared disk's first suspicious observation to its declaration, in
// clock units. Empty when no clock is installed.
func (dt *Detector) DetectLatencies() []int64 {
	return append([]int64(nil), dt.detectLat...)
}

// suspect stamps the start of a disk's suspicion window, once.
func (dt *Detector) suspect(disk int) {
	if dt.clock != nil && dt.suspectAt[disk] < 0 {
		dt.suspectAt[disk] = dt.clock()
	}
}

// declareAt closes a disk's suspicion window into a detection latency.
func (dt *Detector) declareAt(disk int) {
	if dt.clock != nil {
		start := dt.suspectAt[disk]
		if start < 0 {
			start = dt.clock()
		}
		dt.detectLat = append(dt.detectLat, dt.clock()-start)
	}
	dt.suspectAt[disk] = -1
}

// Reset clears the disk's strikes and state — called when a rebuilt disk
// rejoins or an operator repairs it.
func (dt *Detector) Reset(disk int) {
	if disk < 0 || disk >= len(dt.state) {
		return
	}
	dt.consec[disk] = 0
	dt.corrupt[disk] = 0
	dt.state[disk] = OK
	dt.suspectAt[disk] = -1
}

// Deregister retires a target that has left the cluster: its slot
// becomes inert — Observe no-ops, strikes and corruption counts are
// cleared, and OnFail can never fire for it again. Indices of other
// targets are unaffected. Deregistration is permanent (retired nodes
// never rejoin); Reset does not resurrect a deregistered slot.
func (dt *Detector) Deregister(disk int) {
	if disk < 0 || disk >= len(dt.state) {
		return
	}
	dt.retired[disk] = true
	dt.consec[disk] = 0
	dt.corrupt[disk] = 0
	dt.state[disk] = OK
	dt.suspectAt[disk] = -1
}

// Grow appends n fresh targets (state OK, no strikes) and returns the
// new target count. Existing indices are stable; the new slots take the
// next indices in order. Used when a node joins the cluster or an array
// adds a disk.
func (dt *Detector) Grow(n int) int {
	for i := 0; i < n; i++ {
		dt.consec = append(dt.consec, 0)
		dt.corrupt = append(dt.corrupt, 0)
		dt.state = append(dt.state, OK)
		dt.retired = append(dt.retired, false)
		dt.suspectAt = append(dt.suspectAt, -1)
	}
	return len(dt.state)
}

// Observe records one read outcome for a disk and returns the disk's
// state afterwards. err == nil with a modest slowdown is a success and
// clears strikes; a slowdown ≥ SlowFactor is a timeout strike even if
// data came back; hard errors are strikes; bad blocks and absent blocks
// are not.
func (dt *Detector) Observe(disk int, slowdown float64, err error) State {
	if disk < 0 || disk >= len(dt.state) || dt.retired[disk] {
		return OK
	}
	strike := false
	var fire func(int)
	switch {
	case err == nil:
		strike = slowdown >= dt.cfg.SlowFactor
	case errors.Is(err, storage.ErrBadBlock):
	case errors.Is(err, storage.ErrCorruptBlock):
		// Block-indicting, like a bad block: no consecutive-error
		// strike — the device answered on time. But rot is medium
		// damage, so it accrues on the disk's cumulative count, and a
		// disk past the threshold is declared failed exactly as if it
		// had struck out.
		dt.corrupt[disk]++
		dt.suspect(disk)
		if dt.cfg.CorruptionThreshold > 0 && dt.corrupt[disk] >= dt.cfg.CorruptionThreshold && dt.state[disk] != Down {
			dt.state[disk] = Down
			dt.declareAt(disk)
			fire = dt.onFail
		}
	case errors.Is(err, storage.ErrNotWritten):
		// The disk answered; the block is absent. Not a fault.
	default:
		strike = true
	}

	if strike {
		dt.consec[disk]++
		dt.suspect(disk)
		if dt.state[disk] != Down {
			if dt.consec[disk] >= dt.cfg.FailThreshold {
				dt.state[disk] = Down
				dt.declareAt(disk)
				fire = dt.onFail
			} else {
				dt.state[disk] = Suspect
			}
		}
	} else if err == nil && dt.state[disk] != Down {
		dt.consec[disk] = 0
		dt.state[disk] = OK
		// A clean read closes the strike window, but a disk accruing
		// corruption stays on its cumulative clock: rot on other blocks
		// is not exonerated by this one.
		if dt.corrupt[disk] == 0 {
			dt.suspectAt[disk] = -1
		}
	}
	st := dt.state[disk]
	if fire != nil {
		fire(disk)
	}
	return st
}

// BlockReader is the read surface the detector monitors: one timed
// physical read that lends the block's verified bytes or copies them.
// *storage.Array satisfies it directly; tests script it attempt by attempt.
type BlockReader interface {
	Lend(disk int, block int64) ([]byte, float64, error)
	ReadTimedInto(disk int, block int64, dst []byte) (float64, error)
}

// Read performs one monitored read of (disk, block) from r with bounded
// retry: up to Retries+1 back-to-back attempts, every outcome Observed.
// Hard errors and timeouts retry; a bad block or corrupt block retries
// once then surfaces (reconstruction is the cure, not persistence);
// ErrNotWritten surfaces immediately. The returned error is the last
// attempt's. On success it returns the bytes r lent, which the caller must
// not change, or with a dst the copy there (on error dst is left alone).
// Zero per-call allocations.
func (dt *Detector) Read(r BlockReader, disk int, block int64, dst []byte) ([]byte, error) {
	var lastErr error
	for try := 0; try <= dt.cfg.Retries; try++ {
		b, slowdown, err := dst, 0.0, error(nil)
		if dst == nil {
			b, slowdown, err = r.Lend(disk, block)
		} else {
			slowdown, err = r.ReadTimedInto(disk, block, dst)
		}
		dt.Observe(disk, slowdown, err)
		if err == nil {
			return b, nil
		}
		lastErr = err
		if errors.Is(err, storage.ErrNotWritten) {
			return nil, err
		}
		if (errors.Is(err, storage.ErrBadBlock) || errors.Is(err, storage.ErrCorruptBlock)) && try >= 1 {
			return nil, err
		}
	}
	return nil, lastErr
}

// ReadInto is Read into dst, which must be as long as the block: unlike a
// loan, a copy leaves the block unmarked, so its next write reuses its bytes.
func (dt *Detector) ReadInto(r BlockReader, disk int, block int64, dst []byte) error {
	_, err := dt.Read(r, disk, block, dst)
	return err
}
