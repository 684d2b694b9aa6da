package scenario

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// fingerprint hashes an arrival stream: FNV-64a over each request's
// arrival bits, clip id and watch fraction, plus the count.
func fingerprint(src workload.ArrivalSource) (n int, sum uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for {
		req, ok := src.Next()
		if !ok {
			return n, h.Sum64()
		}
		n++
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(req.Arrival)))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(req.ClipID))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(req.Frac))
		h.Write(buf[:])
	}
}

const vcrProfile = `{
	"name": "vcr", "subscribers": 200000, "time_scale": 480,
	"zipf": 1.1, "patience_min": 8,
	"mix": {"vcr_share": 0.5, "pause": 0.3, "early_stop": 0.3, "resume_min": 20},
	"phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 20.5, "min_frac": 0.1},
		{"kind": "flashcrowd", "start_hour": 20, "end_hour": 21, "multiplier": 4, "clip": 7}
	]
}`

func newTestSource(t *testing.T, seed int64) *Source {
	t.Helper()
	c := mustCompile(t, vcrProfile)
	src, err := NewSource(c, 50*units.Second, seed)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSourceOrderedWithinHorizon: arrivals (session starts interleaved
// with resume segments) are nondecreasing and inside [0, Duration), and
// fractions stay in [0, 1).
func TestSourceOrderedWithinHorizon(t *testing.T) {
	c := mustCompile(t, vcrProfile)
	src, err := NewSource(c, 50*units.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev units.Duration = -1
	n, resumes := 0, 0
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		n++
		if req.Arrival < prev {
			t.Fatalf("arrival %v after %v out of order", req.Arrival, prev)
		}
		prev = req.Arrival
		if req.Arrival < 0 || req.Arrival >= c.Duration() {
			t.Fatalf("arrival %v outside [0, %v)", req.Arrival, c.Duration())
		}
		if req.Frac < 0 || req.Frac >= 1 {
			t.Fatalf("frac %g outside [0, 1)", req.Frac)
		}
		if req.Frac > 0 && req.Frac >= 0.5 && req.Frac <= 0.9 {
			resumes++ // resume segments carry frac 1-watched ∈ [0.5, 0.9]
		}
		if req.ClipID < 0 || req.ClipID >= c.Profile.CatalogSize {
			t.Fatalf("clip %d outside catalog", req.ClipID)
		}
	}
	// 200k subscribers × 2 sessions/day, shaped: the diurnal curve's mean
	// is 0.55 (≈220k sessions), the flash hour adds ≈50k, and pauses
	// re-emit ≈37k resume segments — ≈307k requests, Poisson noise ≪ 1%.
	if n < 270000 || n > 340000 {
		t.Fatalf("emitted %d requests, want ≈307000 (sessions + resumes)", n)
	}
	if resumes == 0 {
		t.Fatal("no resume segments emitted despite pause mix")
	}
	// Exhausted sources stay exhausted.
	if _, ok := src.Next(); ok {
		t.Fatal("source emitted after exhaustion")
	}
}

// TestSourceDeterminism: same profile and seed → byte-identical stream;
// a different seed diverges.
func TestSourceDeterminism(t *testing.T) {
	n1, h1 := fingerprint(newTestSource(t, 42))
	n2, h2 := fingerprint(newTestSource(t, 42))
	if n1 != n2 || h1 != h2 {
		t.Fatalf("same seed diverged: (%d, %#x) vs (%d, %#x)", n1, h1, n2, h2)
	}
	_, h3 := fingerprint(newTestSource(t, 43))
	if h3 == h1 {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestSourceExpectedCount: the NHPP realizes the profile's integrated
// rate — a flat profile's count lands within a few σ of subscribers ×
// sessions_per_day.
func TestSourceExpectedCount(t *testing.T) {
	c := mustCompile(t, `{"name": "flat", "subscribers": 100000, "sessions_per_day": 2, "time_scale": 480}`)
	src, err := NewSource(c, 50*units.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := fingerprint(src)
	want, sigma := 200000.0, math.Sqrt(200000.0)
	if math.Abs(float64(n)-want) > 6*sigma {
		t.Fatalf("flat day emitted %d sessions, want %g ± %g", n, want, 6*sigma)
	}
}

// TestSourceHotClipConcentration: inside the flash window the hot clip
// draws ≈(m-1)/m of arrivals plus its organic share; outside it does not.
func TestSourceHotClipConcentration(t *testing.T) {
	c := mustCompile(t, vcrProfile)
	src, err := NewSource(c, 50*units.Second, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The flash window [20h, 21h) at 480×: [150 s, 157.5 s).
	start, end := c.flash[0].start, c.flash[0].end
	var inWin, inWinHot, outWin, outWinHot int
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		if req.Frac > 0 && req.Frac >= 0.5 {
			continue // skip resume segments: they re-emit earlier choices
		}
		if req.Arrival >= start && req.Arrival < end {
			inWin++
			if req.ClipID == 7 {
				inWinHot++
			}
		} else {
			outWin++
			if req.ClipID == 7 {
				outWinHot++
			}
		}
	}
	if inWin == 0 || outWin == 0 {
		t.Fatalf("degenerate split: %d in window, %d outside", inWin, outWin)
	}
	hotShare := float64(inWinHot) / float64(inWin)
	organic := float64(outWinHot) / float64(outWin)
	// Multiplier 4 concentrates 3/4 of the window's arrivals on clip 7.
	if hotShare < 0.70 || hotShare > 0.85 {
		t.Fatalf("hot clip drew %.3f of flash-window arrivals, want ≈0.75", hotShare)
	}
	if organic > 0.1 {
		t.Fatalf("hot clip drew %.3f outside the window, want its small organic share", organic)
	}
}

// TestSourceLeanBackProfile: with no VCR share every request plays the
// whole clip and nothing is scheduled for resume.
func TestSourceLeanBackProfile(t *testing.T) {
	c := mustCompile(t, `{"name": "lb", "subscribers": 50000, "time_scale": 480, "zipf": 1.1}`)
	src, err := NewSource(c, 50*units.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		if req.Frac != 0 {
			t.Fatalf("lean-back profile emitted frac %g", req.Frac)
		}
	}
}

// TestSourceBadClipLen rejects nonpositive clip lengths.
func TestSourceBadClipLen(t *testing.T) {
	c := mustCompile(t, `{"name": "x", "subscribers": 10}`)
	if _, err := NewSource(c, 0, 1); err == nil {
		t.Fatal("accepted zero clip length")
	}
}

// TestSourceDrainAllocs pins the source's memory model: it holds the
// pauses in flight, not the requests it has emitted. Draining a whole
// diurnal + flash-crowd + VCR day costs a few dozen allocations (selector,
// rng, the resume heap's growth steps) at 137 thousand requests and at
// 1.37 million alike.
func TestSourceDrainAllocs(t *testing.T) {
	p, err := Parse([]byte(vcrProfile))
	if err != nil {
		t.Fatal(err)
	}
	for _, subscribers := range []int64{90_000, 900_000} {
		p.Subscribers = subscribers
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		requests := 0
		allocs := testing.AllocsPerRun(1, func() {
			src, err := NewSource(c, 50*units.Second, 1)
			if err != nil {
				t.Fatal(err)
			}
			requests = 0
			for _, ok := src.Next(); ok; _, ok = src.Next() {
				requests++
			}
		})
		if requests < int(subscribers) { // the day is about 1.5 requests per subscriber
			t.Fatalf("%d subscribers: only %d requests drained", subscribers, requests)
		}
		if allocs > 64 {
			t.Errorf("%d subscribers: draining the day allocates %v objects, want <= 64", subscribers, allocs)
		}
	}
}
