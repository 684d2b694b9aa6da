package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ftcms/internal/sim"
	"ftcms/internal/units"
)

// timelineColumns is a scenario run's per-bucket timeline. shed and
// actions are the autopilot columns (0 on open-loop runs); node_active
// joins per-node stream counts with ';' (empty for single-array runs).
var timelineColumns = []Column[sim.TimelineBucket]{
	Seconds("start_s", "", func(b sim.TimelineBucket) units.Duration { return b.Start }),
	Col("offered", "", func(b sim.TimelineBucket) any { return b.Offered }),
	Col("admitted", "", func(b sim.TimelineBucket) any { return b.Admitted }),
	Col("rejected", "", func(b sim.TimelineBucket) any { return b.Rejected }),
	Col("shed", "", func(b sim.TimelineBucket) any { return b.Shed }),
	Col("actions", "", func(b sim.TimelineBucket) any { return b.Actions }),
	Col("active", "", func(b sim.TimelineBucket) any { return b.Active }),
	Col("queue", "", func(b sim.TimelineBucket) any { return b.Queue }),
	Col("view_version", "", func(b sim.TimelineBucket) any { return b.ViewVersion }),
	Col("node_active", "", func(b sim.TimelineBucket) any {
		nodes := make([]string, len(b.NodeActive))
		for i, n := range b.NodeActive {
			nodes[i] = fmt.Sprint(n)
		}
		return strings.Join(nodes, ";")
	}),
}

// WriteTimelineCSV emits a scenario run's per-bucket timeline.
func WriteTimelineCSV(w io.Writer, buckets []sim.TimelineBucket) error {
	return WriteCSV(w, timelineColumns, buckets)
}

// WriteTimelineJSON emits the timeline as a JSON array, one object per
// bucket (sim.TimelineBucket's json tags name the CSV's columns), for
// consumers that want structure instead of CSV.
func WriteTimelineJSON(w io.Writer, buckets []sim.TimelineBucket) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buckets)
}
