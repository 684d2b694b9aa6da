// Package cliutil holds small helpers shared by the command-line tools.
package cliutil

import (
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"ftcms/internal/units"
)

// ParseSize parses a human-readable data size with a KB/MB/GB suffix
// (decimal units, e.g. "256MB", "2GB", "1.5MB") into bits.
func ParseSize(s string) (units.Bits, error) {
	s = strings.TrimSpace(s)
	var mult units.Bits
	var num string
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, num = units.GB, s[:len(s)-2]
	case strings.HasSuffix(s, "MB"):
		mult, num = units.MB, s[:len(s)-2]
	case strings.HasSuffix(s, "KB"):
		mult, num = units.KB, s[:len(s)-2]
	default:
		return 0, fmt.Errorf("size %q needs a KB/MB/GB suffix", s)
	}
	var n float64
	if _, err := fmt.Sscanf(num, "%g", &n); err != nil {
		return 0, fmt.Errorf("bad size %q: %v", s, err)
	}
	// Sscanf's %g accepts "NaN" and "inf"; neither is a size.
	if math.IsNaN(n) || math.IsInf(n, 0) || n <= 0 {
		return 0, fmt.Errorf("size %q must be a positive finite number", s)
	}
	bits := units.Bits(n * float64(mult))
	if bits <= 0 {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return bits, nil
}

// Histogram renders integer samples (e.g. detection or rebuild latencies
// in rounds) as a compact value:count string: "[4:1 12:2]" means one
// sample of 4 and two of 12. Samples are round-granular and few, so the
// exact multiset beats bucketing. Empty input renders as "[]".
func Histogram(samples []int64) string {
	if len(samples) == 0 {
		return "[]"
	}
	counts := map[int64]int{}
	var keys []int64
	for _, s := range samples {
		if counts[s] == 0 {
			keys = append(keys, s)
		}
		counts[s]++
	}
	slices.Sort(keys)
	var b strings.Builder
	b.WriteByte('[')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", k, counts[k])
	}
	b.WriteByte(']')
	return b.String()
}

// latencyWindow is how many recent observations a LatencyHist keeps:
// enough to characterize steady-state cost without letting a long-lived
// daemon grow its stats without bound.
const latencyWindow = 512

// LatencyHist tracks recent operation latencies — per-round tick
// durations in cmcluster — as a sliding window of bucketed samples.
// Raw durations are too jittery for Histogram's exact multiset, so each
// is rounded up to a 1-2-5 series of microseconds first; the window
// then renders through Histogram as value:count pairs whose values are
// bucket upper bounds in µs. The zero value is ready to use. Not safe
// for concurrent use; callers serialize with the lock that guards the
// operation being timed.
type LatencyHist struct {
	ring [latencyWindow]int64
	n    int
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	h.ring[h.n%latencyWindow] = bucketUS(d)
	h.n++
}

// String renders the live window via Histogram: "[200:480 500:32]"
// reads as 480 recent ticks within 200µs and 32 more within 500µs.
func (h *LatencyHist) String() string {
	live := min(h.n, latencyWindow)
	return Histogram(h.ring[:live])
}

// bucketUS rounds a duration up to the next 1-2-5 series value in
// microseconds, with a floor of 1µs.
func bucketUS(d time.Duration) int64 {
	us := d.Microseconds()
	if us < 1 {
		return 1
	}
	for b := int64(1); b <= math.MaxInt64/10; b *= 10 {
		for _, m := range [...]int64{1, 2, 5} {
			if us <= m*b {
				return m * b
			}
		}
	}
	return us // beyond the series (>2.5e5 seconds); keep it exact
}

// StartProfiling wires the -cpuprofile/-memprofile flags the commands
// share: it starts a whole-run CPU profile into cpuPath (skipped when
// empty). The returned stop function, to be deferred by main, ends the
// CPU profile and writes a heap profile to memPath (skipped when empty);
// its failures are logged, since by then the run's real output is
// already out. (The daemon's live -pprof listener stays in cmcluster:
// serving it from here would link net/http into every command.)
func StartProfiling(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			log.Printf("memprofile: %v", err)
			return
		}
		runtime.GC() // materialize up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Printf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Printf("memprofile: %v", err)
		}
	}, nil
}
