package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/layout"
	"ftcms/internal/parallel"
	"ftcms/internal/reliability"
	"ftcms/internal/trace"
	"ftcms/internal/units"
)

// DoubleFaultPoint is one scheme's outcome under E18: the same two
// overlapping fail-stops inside one P+Q parity group, the same clips
// and streams. Single parity must lose exactly the streams that cross
// a doubly-degraded group; P+Q must lose none.
type DoubleFaultPoint struct {
	Scheme core.Scheme
	// Streams is the admitted population; Completed finished byte-exact,
	// Lost ended with an explicit unrecoverable-group error.
	Streams, Completed, Lost int
	Hiccups                  int64
	LostBlocks               int64
	RebuildsDone             int
	// MeasuredRebuild and AnalyticRebuild compare, for a quiescent
	// single-disk rebuild of the same store, the simulated detect→rejoin
	// duration against the reliability model's estimate (both in rounds).
	MeasuredRebuild, AnalyticRebuild int64
}

// doubleFaultDisk is the small array E18 runs on: fast enough for a
// deterministic in-test sweep, same shape as the paper's Figure 1 disk.
func doubleFaultDisk() diskmodel.Parameters {
	return diskmodel.Parameters{
		TransferRate: 45 * units.Mbps,
		Settle:       0.05 * units.Millisecond,
		Seek:         0.1 * units.Millisecond,
		Rotation:     0.1 * units.Millisecond,
		Capacity:     2 * units.GB,
		PlaybackRate: 1.5 * units.Mbps,
	}
}

func doubleFaultConfig(scheme core.Scheme) core.Config {
	return core.Config{
		Scheme: scheme,
		Disk:   doubleFaultDisk(),
		D:      13,
		P:      4,
		Block:  8 * units.KB,
		Q:      8,
		F:      2,
		Buffer: 64 * units.MB,
		Spares: 2,
	}
}

// clipGen is a clip's payload as a pure function of its seed and offset,
// so a check regenerates what it compares instead of keeping the clip
// beside the store's copy: word k is splitmix64's output for seed and k.
type clipGen struct{ seed, size int64 }

// fill writes the clip's bytes from off into dst.
func (c clipGen) fill(dst []byte, off int64) []byte {
	for b := dst; len(b) > 0; {
		z := uint64(c.seed)*0x9E3779B97F4A7C15 + uint64(off/8+1)*0x9E3779B97F4A7C15
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], z^z>>31)
		n := copy(b, w[off%8:])
		b, off = b[n:], off+int64(n)
	}
	return dst
}

// DoubleFaultSweep runs E18: single-parity declustering and P+Q
// declustering through the identical double-failure scenario — two
// fail-stops one round apart on a data disk and the P disk of the same
// P+Q parity group, under three playing streams.
func DoubleFaultSweep(seed int64) ([]DoubleFaultPoint, error) {
	schemes := []core.Scheme{core.Declustered, core.DeclusteredPQ}
	return parallel.Map(len(schemes), func(k int) (DoubleFaultPoint, error) {
		return doubleFaultRun(schemes[k], seed)
	})
}

// track is one playing stream, checked byte for byte against its clip.
type track struct {
	st   *core.Stream
	clip clipGen
	from int64 // the clip offset the stream opened at
	got  int64
	err  error
	done bool
}

// exact reports whether the track played its whole clip to EOF.
func (tr *track) exact() bool {
	return tr.done && errors.Is(tr.err, io.EOF) && tr.got == tr.clip.size-tr.from
}

// tickAndRead runs one round, then drains what each track's stream has
// delivered into the first half of buf, checking every byte against its
// clip regenerated in the second. It reports whether every track has
// ended, at EOF or with the stream lost.
func tickAndRead(s *core.Server, tracks []*track, buf []byte) (bool, error) {
	buf, want := buf[:len(buf)/2], buf[len(buf)/2:]
	if err := s.Tick(); err != nil {
		return false, err
	}
	allDone := true
	for _, tr := range tracks {
		for !tr.done {
			n, rerr := tr.st.Read(buf)
			if end := tr.got + int64(n); end <= tr.clip.size-tr.from && !bytes.Equal(buf[:n], tr.clip.fill(want[:n], tr.from+tr.got)) {
				return false, fmt.Errorf("corrupt byte at offset %d", tr.got)
			}
			tr.got += int64(n)
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, core.ErrStreamLost) {
				tr.done, tr.err = true, rerr
			} else if n == 0 {
				break
			}
		}
		allDone = allDone && tr.done
	}
	return allDone, nil
}

// doubleFaultTargets picks the two disks E18 fail-stops: block 0's own
// disk and its group's P disk, in the (13, 4) P+Q geometry. Both
// schemes fail the same physical disks.
func doubleFaultTargets() (int, int, error) {
	lay, err := layout.NewDeclusteredPQ(13, 4)
	if err != nil {
		return 0, 0, err
	}
	var g layout.Group
	lay.GroupAt(lay.Place(0), &g)
	return lay.Place(0).Disk, g.Parity.Disk, nil
}

func doubleFaultRun(scheme core.Scheme, seed int64) (DoubleFaultPoint, error) {
	d1, d2, err := doubleFaultTargets()
	if err != nil {
		return DoubleFaultPoint{}, err
	}
	s, err := core.New(doubleFaultConfig(scheme))
	if err != nil {
		return DoubleFaultPoint{}, err
	}
	plan := faultinject.Plan{Seed: seed}
	plan.Overlap(d1, d2, 5, 1)
	s.InjectFaults(plan)
	clips := map[string]clipGen{"a": {seed + 1, 480_000}, "b": {seed + 2, 400_000}, "c": {seed + 3, 320_000}}
	for _, name := range []string{"a", "b", "c"} {
		if err := s.AddClip(name, clips[name].fill(make([]byte, clips[name].size), 0)); err != nil {
			return DoubleFaultPoint{}, err
		}
	}
	var tracks []*track
	for _, name := range []string{"a", "b", "c"} {
		st, err := s.OpenStream(name)
		if err != nil {
			return DoubleFaultPoint{}, err
		}
		tracks = append(tracks, &track{st: st, clip: clips[name]})
	}
	pt := DoubleFaultPoint{Scheme: scheme, Streams: len(tracks)}
	buf := make([]byte, 64<<10)
	for round := 0; round < 4000; round++ {
		done, err := tickAndRead(s, tracks, buf)
		if err != nil {
			return DoubleFaultPoint{}, fmt.Errorf("%s: %w", scheme, err)
		}
		if done {
			break
		}
	}
	for _, tr := range tracks {
		switch {
		case tr.exact():
			pt.Completed++
		case tr.done && errors.Is(tr.err, core.ErrStreamLost):
			pt.Lost++
		}
	}
	st := s.Stats()
	pt.Hiccups = st.Hiccups
	pt.LostBlocks = st.LostBlocks
	pt.RebuildsDone = st.RebuildsDone

	pt.MeasuredRebuild, pt.AnalyticRebuild, err = MeasureRebuild(scheme)
	if err != nil {
		return DoubleFaultPoint{}, err
	}
	return pt, nil
}

// MeasureRebuild validates the reliability model's rebuild-time
// estimate against the simulator: a quiescent server (no streams, so
// the full q of every survivor is idle contingency) rebuilds one
// operator-failed disk, and the measured detect→rejoin duration in
// rounds is compared with reliability.RebuildTime for the same block
// population. Returns (measured, analytic) rounds.
func MeasureRebuild(scheme core.Scheme) (int64, int64, error) {
	cfg := doubleFaultConfig(scheme)
	cfg.Spares = 1
	// A large clip stretches the rebuild over dozens of rounds, so the
	// ceil-to-a-round granularity of the model cannot dominate the
	// comparison.
	const clipSize = 96_000_000
	s, err := core.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	if err := s.AddClip("v", clipGen{7, clipSize}.fill(make([]byte, clipSize), 0)); err != nil {
		return 0, 0, err
	}
	if err := s.FailDisk(0); err != nil {
		return 0, 0, err
	}
	// The rebuild queue the failure produced: one entry per data block on
	// the disk plus one per distinct parity (and Q) block on it.
	entries := int64(s.Stats().RebuildTotal)
	for round := 0; round < 10000; round++ {
		if err := s.Tick(); err != nil {
			return 0, 0, err
		}
		if s.Stats().RebuildsDone == 1 {
			break
		}
	}
	lats := s.Stats().RebuildLatencies
	if len(lats) != 1 {
		return 0, 0, fmt.Errorf("%s: rebuild never completed", scheme)
	}
	roundDur := cfg.Disk.RoundDuration(cfg.Block)
	rt, err := reliability.RebuildTime(entries, cfg.P, scheme.ParityCols(), cfg.D, cfg.Q, roundDur)
	if err != nil {
		return 0, 0, err
	}
	return lats[0], int64(rt / roundDur), nil
}

// DoubleFaultColumns is E18's table.
var DoubleFaultColumns = []trace.Column[DoubleFaultPoint]{
	trace.Col("scheme", "scheme", func(pt DoubleFaultPoint) any { return pt.Scheme }),
	trace.Col("streams", "streams", func(pt DoubleFaultPoint) any { return pt.Streams }),
	trace.Col("completed", "completed", func(pt DoubleFaultPoint) any { return pt.Completed }),
	trace.Col("lost", "lost", func(pt DoubleFaultPoint) any { return pt.Lost }),
	trace.Col("hiccups", "hiccups", func(pt DoubleFaultPoint) any { return pt.Hiccups }),
	trace.Col("lost_blocks", "lost blocks", func(pt DoubleFaultPoint) any { return pt.LostBlocks }),
	trace.Col("rebuilds_done", "rebuilds", func(pt DoubleFaultPoint) any { return pt.RebuildsDone }),
	trace.Col("rebuild_rounds_sim", "rebuild rounds (sim)", func(pt DoubleFaultPoint) any { return pt.MeasuredRebuild }),
	trace.Col("rebuild_rounds_model", "rebuild rounds (model)", func(pt DoubleFaultPoint) any { return pt.AnalyticRebuild }),
}

// MTTDLColumns is the redundancy tradeoff's table (E18b); overhead is a
// fraction in the CSV and a percentage in the text table, which also
// shows the MTTDL in years.
var MTTDLColumns = []trace.Column[reliability.Tradeoff]{
	trace.Col("scheme", "scheme", func(r reliability.Tradeoff) any { return r.Scheme }),
	{CSV: "overhead", Title: "overhead",
		Value: func(r reliability.Tradeoff) any { return r.Overhead },
		Text:  func(r reliability.Tradeoff) any { return fmt.Sprintf("%.1f%%", r.Overhead*100) }},
	{CSV: "mttdl_hours", Title: "MTTDL (hours)",
		Value: func(r reliability.Tradeoff) any { return fmt.Sprintf("%.6g", float64(r.MTTDL)) },
		Text:  func(r reliability.Tradeoff) any { return fmt.Sprintf("%.3g", float64(r.MTTDL)) }},
	trace.Col("", "MTTDL (years)", func(r reliability.Tradeoff) any { return fmt.Sprintf("%.3g", float64(r.MTTDL)/(24*365)) }),
}

// mttdlTradeoff computes the redundancy-selection table: what each level
// of redundancy costs in storage and buys in expected time to data
// loss, on one geometry. The repair window fed to the MTTDL models is
// each scheme's own analytic rebuild time (floored at one hour —
// operator handling dominates tiny windows), so faster rebuild directly
// buys reliability.
func mttdlTradeoff(p Params) (string, []reliability.Tradeoff, error) {
	if p.D < 3 || p.P < 3 || p.P > p.D {
		return "", nil, fmt.Errorf("experiments: bad geometry d=%d p=%d", p.D, p.P)
	}
	disk := diskmodel.Default()
	block := 8 * units.KB
	blocks := int64(disk.Capacity / block)
	rt, err := reliability.RebuildTime(blocks, p.P, 1, p.D, 1, disk.RoundDuration(block))
	if err != nil {
		return "", nil, err
	}
	mttr := reliability.Hours(rt.Seconds() / 3600)
	if mttr < 1 {
		mttr = 1
	}
	rows, err := reliability.CompareRedundancy(reliability.PaperDiskMTTF, p.D, p.P, mttr)
	return fmt.Sprintf("MTTDL vs storage overhead — d=%d, p=%d, %v disks, MTTF %.0f h, MTTR %.1f h",
		p.D, p.P, disk.Capacity, float64(reliability.PaperDiskMTTF), float64(mttr)), rows, err
}
