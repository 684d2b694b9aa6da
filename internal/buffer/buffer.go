// Package buffer implements the server RAM buffer accounting of the
// paper: every stream reserves a fixed per-clip buffer before data
// retrieval starts (its size is the scheme's; see scheme.PerClip), and
// the total may never exceed the server buffer B.
package buffer

import (
	"errors"
	"fmt"

	"ftcms/internal/units"
)

// Pool tracks reservations against a fixed capacity.
type Pool struct {
	capacity units.Bits
	used     units.Bits
	clips    int // live reservations; only Release's guard reads it
}

// NewPool creates a pool of the given capacity.
func NewPool(capacity units.Bits) (*Pool, error) {
	if capacity <= 0 {
		return nil, errors.New("buffer: capacity must be positive")
	}
	return &Pool{capacity: capacity}, nil
}

// Used returns the currently reserved amount.
func (p *Pool) Used() units.Bits { return p.used }

// Reserve takes size bits for one clip; it reports false without side
// effects when the pool cannot fit it.
func (p *Pool) Reserve(size units.Bits) bool {
	if size <= 0 {
		panic(fmt.Sprintf("buffer: non-positive reservation %d", size))
	}
	if p.used+size > p.capacity {
		return false
	}
	p.used += size
	p.clips++
	return true
}

// Release returns size bits reserved earlier. Releasing more than is
// reserved panics: it always indicates unbalanced bookkeeping.
func (p *Pool) Release(size units.Bits) {
	if size <= 0 || size > p.used || p.clips == 0 {
		panic(fmt.Sprintf("buffer: bad release of %d (used %d, clips %d)", size, p.used, p.clips))
	}
	p.used -= size
	p.clips--
}
