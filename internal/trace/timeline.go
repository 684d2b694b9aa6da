package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ftcms/internal/sim"
)

// WriteTimelineCSV emits a scenario run's per-bucket timeline. shed and
// actions are the autopilot columns (0 on open-loop runs); node_active
// joins per-node stream counts with ';' (empty for single-array runs).
func WriteTimelineCSV(w io.Writer, buckets []sim.TimelineBucket) error {
	return writeCSV(w, "start_s,offered,admitted,batched,rejected,shed,actions,active,queue,view_version,node_active",
		buckets, func(b sim.TimelineBucket) []any {
			nodes := make([]string, len(b.NodeActive))
			for i, n := range b.NodeActive {
				nodes[i] = fmt.Sprint(n)
			}
			return []any{secs(b.Start), b.Offered, b.Admitted, b.Batched, b.Rejected, b.Shed, b.Actions,
				b.Active, b.Queue, b.ViewVersion, strings.Join(nodes, ";")}
		})
}

// timelineJSON is the JSON shape of one timeline bucket.
type timelineJSON struct {
	StartS      float64 `json:"start_s"`
	Offered     int     `json:"offered"`
	Admitted    int     `json:"admitted"`
	Batched     int     `json:"batched,omitempty"`
	Rejected    int     `json:"rejected"`
	Shed        int     `json:"shed,omitempty"`
	Actions     int     `json:"actions,omitempty"`
	Active      int     `json:"active"`
	Queue       int     `json:"queue"`
	ViewVersion int64   `json:"view_version,omitempty"`
	NodeActive  []int   `json:"node_active,omitempty"`
}

// WriteTimelineJSON emits the timeline as a JSON array, one object per
// bucket, for consumers that want structure instead of CSV.
func WriteTimelineJSON(w io.Writer, buckets []sim.TimelineBucket) error {
	out := make([]timelineJSON, len(buckets))
	for i, b := range buckets {
		out[i] = timelineJSON{
			StartS:      b.Start.Seconds(),
			Offered:     b.Offered,
			Admitted:    b.Admitted,
			Batched:     b.Batched,
			Rejected:    b.Rejected,
			Shed:        b.Shed,
			Actions:     b.Actions,
			Active:      b.Active,
			Queue:       b.Queue,
			ViewVersion: b.ViewVersion,
			NodeActive:  b.NodeActive,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
