package sim

// Per-bucket timeline reporting for scenario runs. The round loop counts
// offered/admitted/rejected requests as they happen and closes a
// bucket whenever the simulated clock crosses a bucket boundary, so a
// compressed 24-hour day comes back as a demand-and-service curve instead
// of a single aggregate.

import (
	"errors"

	"ftcms/internal/units"
)

// TimelineConfig asks a run to record a per-bucket timeline.
type TimelineConfig struct {
	// Bucket is the bucket width in simulated time. Buckets close at
	// round granularity, so widths below one round degenerate to
	// per-round buckets.
	Bucket units.Duration
}

// TimelineBucket is one reporting interval of a run. The json tags are
// the column names of trace.WriteTimelineJSON (and the timeline CSV).
type TimelineBucket struct {
	// Start is the bucket's start time.
	Start units.Duration `json:"start_s"`
	// Offered counts requests that arrived during the bucket.
	Offered int `json:"offered"`
	// Admitted counts fresh streams started during the bucket.
	Admitted int `json:"admitted"`
	// Rejected counts pending requests that abandoned (waited past the
	// run's Patience) during the bucket.
	Rejected int `json:"rejected"`
	// Shed counts new lean-back requests turned away at arrival by the
	// autopilot's degradation mode during the bucket. Shed requests
	// never enter the pending queue, so they are disjoint from Rejected
	// — a session is counted as shed or abandoned, never both.
	Shed int `json:"shed,omitempty"`
	// Actions counts autopilot actions that fired during the bucket.
	Actions int `json:"actions,omitempty"`
	// Active is the number of in-flight streams when the bucket closed.
	Active int `json:"active"`
	// Queue is the pending-list length when the bucket closed.
	Queue int `json:"queue"`
	// ViewVersion is the cluster membership view version when the bucket
	// closed (0 for single-array runs).
	ViewVersion int64 `json:"view_version,omitempty"`
	// NodeActive is each node's in-flight stream count when the bucket
	// closed (nil for single-array runs).
	NodeActive []int `json:"node_active,omitempty"`
}

// timeline accumulates buckets. The round loop counts straight into cur;
// a collector built without a TimelineConfig has a zero bucket width and
// never closes one, so the loop needs no conditionals.
type timeline struct {
	bucket units.Duration
	cur    TimelineBucket
	out    []TimelineBucket
}

func newTimeline(cfg *TimelineConfig) (*timeline, error) {
	if cfg == nil {
		return &timeline{}, nil
	}
	if cfg.Bucket <= 0 {
		return nil, errors.New("sim: timeline bucket width must be positive")
	}
	return &timeline{bucket: cfg.Bucket}, nil
}

// roll closes every bucket whose window ends at or before now, stamping
// each with the current gauges. Called once per round with the round's
// end time.
func (t *timeline) roll(now units.Duration, active, queue int, view int64, nodeActive []int) {
	for t.bucket > 0 && t.cur.Start+t.bucket <= now {
		t.close(active, queue, view, nodeActive)
	}
}

func (t *timeline) close(active, queue int, view int64, nodeActive []int) {
	t.cur.Active = active
	t.cur.Queue = queue
	t.cur.ViewVersion = view
	if nodeActive != nil {
		t.cur.NodeActive = append([]int(nil), nodeActive...)
	}
	t.out = append(t.out, t.cur)
	t.cur = TimelineBucket{Start: t.cur.Start + t.bucket}
}

// done flushes a trailing partial bucket that counted anything and
// returns the timeline (nil when not recording).
func (t *timeline) done(active, queue int, view int64, nodeActive []int) []TimelineBucket {
	if c := t.cur; t.bucket > 0 && c.Offered+c.Admitted+c.Rejected+c.Shed+c.Actions > 0 {
		t.close(active, queue, view, nodeActive)
	}
	return t.out
}
