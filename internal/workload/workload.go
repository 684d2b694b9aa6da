// Package workload generates the client request traffic of the paper's
// evaluation (§8.2): a catalog of equal-length CBR clips, Poisson request
// arrivals at a configurable mean rate, and clip selection that is either
// uniform (the paper's choice) or Zipf (a common extension for
// video-on-demand popularity).
//
// All randomness is seeded and deterministic so experiments reproduce
// exactly.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ftcms/internal/units"
)

// Clip describes one continuous media clip.
type Clip struct {
	// ID indexes the clip in the catalog.
	ID int
	// Length is the playback duration.
	Length units.Duration
	// Rate is the CBR playback rate.
	Rate units.BitRate
}

// Size returns the clip's storage size in bits.
func (c Clip) Size() units.Bits { return units.SizeAtRate(c.Rate, c.Length) }

// Blocks returns how many blocks of size b the clip spans (rounded up:
// the paper pads clips to a whole number of blocks).
func (c Clip) Blocks(b units.Bits) int64 {
	if b <= 0 {
		panic("workload: non-positive block size")
	}
	s := c.Size()
	return int64((s + b - 1) / b)
}

// Catalog is a set of clips.
type Catalog struct {
	clips []Clip
}

// UniformCatalog builds the paper's library: n clips, each of the given
// length and rate (§8.2 uses 1000 clips of 50 time units at MPEG-1 rate).
func UniformCatalog(n int, length units.Duration, rate units.BitRate) (*Catalog, error) {
	if n < 1 {
		return nil, errors.New("workload: need at least one clip")
	}
	if length <= 0 || rate <= 0 {
		return nil, fmt.Errorf("workload: bad clip parameters length=%v rate=%v", length, rate)
	}
	c := &Catalog{clips: make([]Clip, n)}
	for i := range c.clips {
		c.clips[i] = Clip{ID: i, Length: length, Rate: rate}
	}
	return c, nil
}

// Len returns the number of clips.
func (c *Catalog) Len() int { return len(c.clips) }

// Clip returns clip i.
func (c *Catalog) Clip(i int) Clip { return c.clips[i] }

// TotalSize returns the library's storage requirement S.
func (c *Catalog) TotalSize() units.Bits {
	var s units.Bits
	for _, cl := range c.clips {
		s += cl.Size()
	}
	return s
}

// Request is one client request for a clip.
type Request struct {
	// Arrival is the absolute arrival time.
	Arrival units.Duration
	// ClipID selects the clip.
	ClipID int
	// Frac is the fraction of the clip this request plays before leaving
	// (a VCR early stop, or one segment of a pause/resume session). Zero
	// means the whole clip — the classic lean-back viewer — so the plain
	// generators need not set it.
	Frac float64
}

// Selector chooses which clip a request asks for.
type Selector interface {
	// Pick returns a clip ID.
	Pick(rng *rand.Rand) int
}

// UniformSelector picks clips uniformly at random (the paper's §8.2
// choice: "the choice of the clip for playback by a request is assumed to
// be random").
type UniformSelector struct {
	// N is the catalog size.
	N int
}

// Pick implements Selector.
func (u UniformSelector) Pick(rng *rand.Rand) int { return rng.Intn(u.N) }

// ZipfSelector picks clips with Zipf(s) popularity over ranks 1..N — a
// standard VoD skew model, provided as an extension for the skewed-load
// ablation.
type ZipfSelector struct {
	cdf []float64
}

// NewZipfSelector builds a selector over n clips with exponent s > 0.
// Clip 0 is the most popular.
func NewZipfSelector(n int, s float64) (*ZipfSelector, error) {
	if n < 1 {
		return nil, errors.New("workload: need at least one clip")
	}
	if s <= 0 {
		return nil, errors.New("workload: Zipf exponent must be positive")
	}
	z := &ZipfSelector{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z, nil
}

// Pick implements Selector by inverse CDF sampling.
func (z *ZipfSelector) Pick(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
