package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/units"
)

// blockBits is the in-process workloads' block: 4 KB, so that scheduling
// and bookkeeping dominate transfer. On fastDisk it gives a round
// deadline of 32000 bit / 1.5 Mbps = 21.33 ms.
const blockBits = 4 * units.KB

// fastDisk is cmbench's modern-disk model, under which Equation 1 admits
// q = 192 streams per disk at 4 KB blocks.
func fastDisk() diskmodel.Parameters {
	return diskmodel.Parameters{
		TransferRate: 6 * units.Gbps,
		Settle:       10 * units.Microsecond,
		Seek:         100 * units.Microsecond,
		Rotation:     0,
		Capacity:     64 * units.GB,
		PlaybackRate: 1500 * units.Kbps,
	}
}

// arrayConfig is one declustered array as every in-process workload
// sizes it: p = 4, f = 16, one tick worker so that all load comes from a
// single goroutine.
func arrayConfig(d, q, spares int) core.Config {
	return core.Config{
		Scheme: core.Declustered,
		Disk:   fastDisk(),
		D:      d, P: 4,
		Block: blockBits,
		Q:     q, F: 16,
		Buffer:      2 * units.GB,
		Spares:      spares,
		TickWorkers: 1,
	}
}

// fillBlock writes block n of clip c into dst. The bytes are a pure
// function of (seed, c, n), so the harness can check any delivered block
// without keeping a second copy of every clip in memory. len(dst) must
// be a multiple of 8.
func fillBlock(dst []byte, seed int64, c int, n int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(c)<<44 ^ uint64(n)
	for i := 0; i+8 <= len(dst); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(dst[i:], z^z>>31)
	}
}

// fillClip writes a whole clip into buf, block by block.
func fillClip(buf []byte, bs int, seed int64, c int) {
	for n := 0; n*bs < len(buf); n++ {
		fillBlock(buf[n*bs:(n+1)*bs], seed, c, int64(n))
	}
}

func clipName(c int) string { return fmt.Sprintf("clip-%03d", c) }

// verifyEvery is the sampling step of the byte-for-byte check: one
// stream or session in 64 has every block compared with the generator.
const verifyEvery = 64

// corePop is a stream population on one core.Server, driven from one
// goroutine: Tick, then one Read per stream.
type corePop struct {
	seed      int64
	srv       *core.Server
	bs        int
	clipBytes int64

	streams []*core.Stream // nil while a finished stream awaits re-admission
	clip    []int
	pos     []int64 // bytes the harness has read from each stream
	noCheck []bool  // stream missed a round; its offsets no longer line up

	scratch, want []byte

	// attempted counts stream-rounds in which a block was due, missed
	// those that delivered none, bytes what the readers received.
	attempted, missed, bytes int64
	reopened                 int64
}

// newCorePop builds the server, stores nclips clips of clipBlocks blocks
// and admits want streams round-robin over the clips. Same-clip opens
// share an admission cell, capped at f per round, so the population
// builds up over several rounds, ticking and draining between batches.
func newCorePop(cfg core.Config, seed int64, nclips int, clipBlocks int64, want int) (*corePop, error) {
	srv, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	bs := int(cfg.Block.Bytes())
	p := &corePop{
		seed: seed, srv: srv, bs: bs,
		clipBytes: clipBlocks * int64(bs),
		scratch:   make([]byte, bs), want: make([]byte, bs),
	}
	buf := make([]byte, p.clipBytes)
	for c := 0; c < nclips; c++ {
		fillClip(buf, bs, seed, c)
		if err := srv.AddClip(clipName(c), buf); err != nil {
			return nil, err
		}
	}
	for rounds := 0; len(p.streams) < want; rounds++ {
		if rounds > want {
			return nil, fmt.Errorf("admission stalled at %d of %d streams", len(p.streams), want)
		}
		for c := 0; c < nclips && len(p.streams) < want; c++ {
			for len(p.streams) < want {
				st, err := srv.OpenStream(clipName(c))
				if errors.Is(err, core.ErrAdmission) {
					break // this clip's cell is full this round
				}
				if err != nil {
					return nil, err
				}
				p.streams = append(p.streams, st)
				p.clip = append(p.clip, c)
				p.pos = append(p.pos, 0)
				p.noCheck = append(p.noCheck, false)
			}
		}
		if len(p.streams) < want {
			if err := p.round(); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// round is one untimed service round: set-up and warm-up use it.
func (p *corePop) round() error {
	if err := p.srv.Tick(); err != nil {
		return err
	}
	return p.drain()
}

// drain reads this round's block from every stream, checks it, and
// re-admits streams whose clip ended.
func (p *corePop) drain() error {
	for j, st := range p.streams {
		if st == nil {
			if err := p.reopen(j); err != nil {
				return err
			}
			continue
		}
		p.attempted++
		n, err := st.Read(p.scratch)
		if n == 0 && errors.Is(err, core.ErrNoData) {
			p.missed++
			p.noCheck[j] = true
			continue
		}
		if err != nil || n != p.bs {
			return fmt.Errorf("stream %d at byte %d: read %d bytes: %v", j, p.pos[j], n, err)
		}
		if j%verifyEvery == 0 && !p.noCheck[j] {
			fillBlock(p.want, p.seed, p.clip[j], p.pos[j]/int64(p.bs))
			if !bytes.Equal(p.scratch, p.want) {
				return fmt.Errorf("stream %d: %s block %d differs from the generated clip", j, clipName(p.clip[j]), p.pos[j]/int64(p.bs))
			}
		}
		p.pos[j] += int64(n)
		p.bytes += int64(n)
		if p.pos[j] >= p.clipBytes {
			// The server released the stream when it delivered the last
			// block; start the clip again in the same slot.
			p.streams[j] = nil
			if err := p.reopen(j); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *corePop) reopen(j int) error {
	st, err := p.srv.OpenStream(clipName(p.clip[j]))
	if errors.Is(err, core.ErrAdmission) {
		return nil // retried next round
	}
	if err != nil {
		return err
	}
	p.streams[j], p.pos[j], p.noCheck[j] = st, 0, false
	p.reopened++
	return nil
}

// audit is the end-of-run ledger check: the server's own counters must
// agree with what the readers saw.
func (p *corePop) audit() error {
	st := p.srv.Stats()
	if st.Overflows != 0 || st.LostBlocks != 0 {
		return fmt.Errorf("server reports overflows=%d lost_blocks=%d, want 0", st.Overflows, st.LostBlocks)
	}
	if st.Hiccups != p.missed {
		return fmt.Errorf("server counts %d hiccups, readers missed %d blocks", st.Hiccups, p.missed)
	}
	if got := (p.attempted - p.missed) * int64(p.bs); p.bytes != got {
		return fmt.Errorf("readers received %d bytes, %d delivered blocks make %d", p.bytes, p.attempted-p.missed, got)
	}
	for j, s := range p.streams {
		if s != nil && !p.noCheck[j] && s.Pos() != p.pos[j] {
			return fmt.Errorf("stream %d: server delivered %d bytes, reader received %d", j, s.Pos(), p.pos[j])
		}
	}
	return p.srv.CheckAdmission()
}

// repeatSetup calls build (which must return a ready, warmed-up
// population) the given number of times and returns the last population
// with the median set-up time. Every earlier population is handed to
// drop, if given, and its memory returned before the next is built, so
// that peak RSS reflects one population. The first timing starts at
// start (process start for the in-process workloads, so that it includes
// runtime initialisation).
func repeatSetup[T any](times int, start time.Time, build func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < times; i++ {
		t0 := start
		if i > 0 {
			if drop != nil {
				drop(last)
			}
			var zero T
			last = zero
			runtime.GC()
			debug.FreeOSMemory()
			t0 = time.Now()
		}
		var err error
		if last, err = build(); err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return last, median(secs), nil
}

// nowNs is the run clock: ns since the given epoch.
func nowNs(epoch time.Time) int64 { return int64(time.Since(epoch)) }
