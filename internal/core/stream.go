package core

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"ftcms/internal/admission"
	"ftcms/internal/recovery"
	"ftcms/internal/storage"
	"ftcms/internal/units"
)

// ErrAdmission is returned by OpenStream when the admission controller or
// the buffer pool refuses the stream; the client may retry on a later
// round (a queued front end lives in the sim package).
var ErrAdmission = errors.New("core: admission refused")

// The two refusals OpenStream returns, built once: a refused open is a hot
// path under churn.
var (
	errPoolFull = fmt.Errorf("%w: buffer pool full", ErrAdmission)
	errCaps     = fmt.Errorf("%w: bandwidth caps", ErrAdmission)
)

// ErrNoData is returned by Stream.Read when no block has been delivered
// yet for the current position; more data arrives on the next Tick.
var ErrNoData = errors.New("core: no data buffered yet")

// Stream is one active playback. It implements io.Reader over the clip's
// bytes, fed one block of playback per round by Server.Tick.
type Stream struct {
	id     int
	srv    *Server
	clip   clipInfo
	ticket admission.Ticket
	buf    units.Bits

	// nextFetch indexes the next clip block to fetch (clip-relative).
	nextFetch int64
	// nextDeliver indexes the next clip block to hand to the reader.
	nextDeliver int64
	// started flips once the pre-fetch threshold is reached and delivery
	// begins.
	started bool
	// ring is the pipeline: prefetchDepth slots, clip block n in slot
	// n mod depth. Fetching stays inside [nextDeliver, nextDeliver+depth),
	// so two buffered blocks never share a slot. The pre-fetching schemes
	// reconstruct failed-disk blocks from it. A one-slot ring is ring1.
	ring  []slot
	ring1 [1]slot
	// pendingParity counts the ring's parity slots.
	pendingParity int

	// readable queues the delivered-but-unread blocks from index head on;
	// readOff is the reader's cursor into readable[head]. Delivery slides
	// the unread chunks to the front when the queue is full, so in steady
	// state it appends without reallocating. It starts on readable2, which
	// a reader that keeps up never outgrows.
	readable  []chunk
	readable2 [2]chunk
	head      int
	readOff   int
	// deliveredBytes is the clip offset delivery has reached: the start
	// offset (OpenStreamAt, SeekTo) plus the payload queued on readable
	// since. Bytes of a delivered block below it are never queued.
	deliveredBytes int64
	done           bool
	// closed marks a stream its reader closed: Read returns
	// io.ErrClosedPipe.
	closed bool
	// active marks a stream the Tick loop serves and srv.active counts:
	// true from OpenStream (or Resume) until release, Pause or
	// termination.
	active bool
	// inReg marks presence in srv.reg; cleared by the compaction sweep,
	// checked by activate so a Resume before compaction does not insert a
	// duplicate.
	inReg bool
	// termErr is the explicit reason the server terminated the stream
	// (a block it read was unrecoverable); the reader receives it, after
	// draining delivered bytes, instead of io.EOF.
	termErr error
	// paused marks a stream that released its bandwidth and buffer and
	// holds its position for Resume.
	paused bool
}

// slot is one place in a stream's pipeline ring.
type slot struct {
	// n is the clip-relative index of the block buf stands for; buf is nil
	// when the slot is empty.
	n int64
	chunk
	// isParity marks buf (always owned) as the group's parity block,
	// fetched in degraded mode in place of block n; reconstruction XORs the
	// siblings into it and clears the mark. Otherwise buf is block n itself.
	isParity bool
}

// chunk is a block's bytes and who owns them: a freelist buffer its holder
// recycles (owned), or the store's own verified bytes, lent read-only by a
// clean read. On the readable queue it is trimmed to the clip's payload.
type chunk struct {
	buf   []byte
	owned bool
}

// recycle puts an owned buffer back on the freelist; lent bytes are the
// stored block itself and are only dropped.
func (s *Server) recycle(c chunk) {
	if c.owned {
		s.putBlock(c.buf[:cap(c.buf)])
	}
}

// slot returns the ring slot that holds clip block n, or nil when the
// pipeline does not hold it (as for a group member outside the clip).
func (st *Stream) slot(n int64) *slot {
	if n < 0 {
		return nil
	}
	if sl := &st.ring[n%int64(len(st.ring))]; sl.buf != nil && sl.n == n {
		return sl
	}
	return nil
}

// data returns clip block n when the pipeline holds the block itself.
func (st *Stream) data(n int64) []byte {
	if sl := st.slot(n); sl != nil && !sl.isParity {
		return sl.buf
	}
	return nil
}

// hold puts a fetched buffer in clip block n's (empty) slot.
func (st *Stream) hold(n int64, c chunk, isParity bool) {
	st.ring[n%int64(len(st.ring))] = slot{n: n, chunk: c, isParity: isParity}
	if isParity {
		st.pendingParity++
	}
}

// reconstructed marks a parity slot as holding its block's own bytes.
func (st *Stream) reconstructed(sl *slot) {
	sl.isParity = false
	st.pendingParity--
}

// OpenStream starts playback of a stored clip. Admission is attempted at
// the current round; ErrAdmission means try again on a later round.
func (s *Server) OpenStream(clipName string) (*Stream, error) { return s.OpenStreamAt(clipName, 0) }

// OpenStreamAt starts playback at byte offset: fetching begins, and the
// one admission is made, at the block SeekTo would choose for it, and the
// reader's first byte is clip byte offset.
func (s *Server) OpenStreamAt(clipName string, offset int64) (*Stream, error) {
	ci, ok := s.clips[clipName]
	if !ok {
		return nil, fmt.Errorf("core: unknown clip %q", clipName)
	}
	block, err := s.seekBlock(ci, offset)
	if err != nil {
		return nil, err
	}
	tk, perClip, err := s.admit(ci.block(block))
	if err != nil {
		return nil, err
	}
	st := &Stream{
		id:             s.nextStreamID,
		srv:            s,
		clip:           ci,
		ticket:         tk,
		buf:            perClip,
		nextFetch:      block,
		nextDeliver:    block,
		deliveredBytes: offset,
	}
	st.ring, st.readable = st.ring1[:], st.readable2[:0]
	if s.prefetchDepth > 1 {
		st.ring = make([]slot, s.prefetchDepth)
	}
	s.nextStreamID++
	s.activate(st)
	return st, nil
}

// activate marks st active and inserts it into the service registry,
// keeping ascending-id order. New streams append (ids are issued in
// increasing order); a Resume after compaction re-inserts at the sorted
// position.
func (s *Server) activate(st *Stream) {
	st.active = true
	s.active++
	if st.inReg {
		return
	}
	st.inReg = true
	n := len(s.reg)
	if n == 0 || s.reg[n-1].id < st.id {
		s.reg = append(s.reg, st)
		return
	}
	i, _ := slices.BinarySearchFunc(s.reg, st.id, func(a *Stream, id int) int {
		return cmp.Compare(a.id, id)
	})
	s.reg = slices.Insert(s.reg, i, st)
}

// compactReg drops released streams from the registry in place,
// preserving order. Runs at the top of every Tick; between ticks the
// registry only ever gains entries (OpenStream/Resume), and within a
// round a release only clears a stream's active mark.
func (s *Server) compactReg() {
	keep := s.reg[:0]
	for _, st := range s.reg {
		if st.active {
			keep = append(keep, st)
		} else {
			st.inReg = false
		}
	}
	// Zero the tail so released streams don't leak through the backing
	// array.
	clear(s.reg[len(keep):])
	s.reg = keep
}

// admit reserves a stream's share of the buffer and books its bandwidth
// in the current round, mapping the real placement of start — the logical
// block fetching begins at — to the scheme's admission coordinates.
func (s *Server) admit(start int64) (admission.Ticket, units.Bits, error) {
	perClip := s.cfg.Scheme.PerClip(s.cfg.Block, s.cfg.P)
	if !s.pool.Reserve(perClip) {
		return admission.Ticket{}, 0, errPoolFull
	}
	unit, class := s.cfg.Scheme.Coords(s.lay, s.pgt, start)
	tk, ok := s.ctrl.Admit(s.engine.Round(), unit, class)
	if !ok {
		s.pool.Release(perClip)
		return tk, 0, errCaps
	}
	return tk, perClip, nil
}

// release returns an active stream's bandwidth and buffer.
func (s *Server) release(st *Stream) {
	s.ctrl.Release(st.ticket)
	s.pool.Release(st.buf)
	st.active = false
	s.active--
}

// Close abandons the stream, releasing its resources and dropping any
// bytes still unread. Reading after Close returns io.ErrClosedPipe.
func (st *Stream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	st.dropReadable()
	if st.done { // finished or terminated: released then
		return nil
	}
	st.done = true
	st.recyclePipeline()
	if !st.paused { // a paused stream released its bandwidth and buffer already
		st.srv.release(st)
	}
	return nil
}

// Pause suspends playback: the stream's disk bandwidth and server buffer
// are released for other clients, and its position is retained. Already-
// delivered bytes stay readable. Resume re-admits the stream; like any
// admission it can be refused when the server has since filled up.
func (st *Stream) Pause() error {
	if st.done {
		return errors.New("core: stream finished")
	}
	if st.paused {
		return nil
	}
	st.paused = true
	// Drop the pipeline: blocks not yet delivered are re-fetched on
	// resume (the buffer they lived in is being handed back).
	st.recyclePipeline()
	st.started = false
	st.srv.release(st)
	return nil
}

// SeekTo repositions a *paused* stream to byte offset, clearing its
// pipeline; the next Resume re-admits at the block holding it (the disk
// the stream reads from changes, so its bandwidth reservation must be
// renegotiated — hence the paused requirement). Already-delivered-but-
// unread bytes are discarded. Reads after the resume continue from byte
// offset.
func (st *Stream) SeekTo(offset int64) error {
	if st.done {
		return errors.New("core: stream finished")
	}
	if !st.paused {
		return errors.New("core: Seek requires a paused stream")
	}
	block, err := st.srv.seekBlock(st.clip, offset)
	if err != nil {
		return err
	}
	st.nextDeliver, st.nextFetch = block, block
	st.recyclePipeline()
	st.dropReadable()
	st.deliveredBytes = offset
	return nil
}

// seekBlock is the clip block fetching restarts at for offset: the one
// holding it, snapped down to a parity-group boundary for the
// pre-fetching schemes so their read-ahead holds from the first block.
// Delivery drops the bytes between that block's start and offset.
func (s *Server) seekBlock(ci clipInfo, offset int64) (int64, error) {
	if offset < 0 || offset >= ci.size {
		return 0, fmt.Errorf("core: seek offset %d outside clip [0, %d)", offset, ci.size)
	}
	depth := s.prefetchDepth // 1 outside the pre-fetching schemes
	return offset / int64(s.store.Array.BlockSize()) / depth * depth, nil
}

// recyclePipeline hands every owned pipeline buffer back to the server's
// block freelist and empties the ring. Safe because a buffer is in one
// place at a time: deliver moves it from its slot to readable.
func (st *Stream) recyclePipeline() {
	for _, sl := range st.ring {
		st.srv.recycle(sl.chunk) // an empty slot owns nothing
	}
	clear(st.ring)
	st.pendingParity = 0
}

// dropReadable discards the delivered-but-unread blocks.
func (st *Stream) dropReadable() {
	for _, c := range st.readable[st.head:] {
		st.srv.recycle(c)
	}
	clear(st.readable)
	st.readable, st.head, st.readOff = st.readable[:0], 0, 0
}

// Resume re-admits a paused stream at its saved position. On
// ErrAdmission the stream stays paused and Resume can be retried on a
// later round.
//
// Fetching restarts where OpenStreamAt would: at the pre-fetch group
// boundary at or before the next block to deliver, so a pre-fetching
// stream holds its whole group again before delivery resumes and a
// failed member costs one parity read. The blocks re-read lie before
// Pos, so delivery recycles them; the reader sees nothing of it.
func (st *Stream) Resume() error {
	if st.done {
		return errors.New("core: stream finished")
	}
	if !st.paused {
		return nil
	}
	block := st.nextDeliver - st.nextDeliver%st.srv.prefetchDepth
	// Admission coordinates follow that block, not the clip's first:
	// bandwidth is consumed from wherever fetching resumes.
	tk, perClip, err := st.srv.admit(st.clip.block(block))
	if err != nil {
		return err
	}
	st.nextFetch, st.nextDeliver = block, block
	st.ticket, st.buf, st.paused = tk, perClip, false
	st.srv.activate(st)
	return nil
}

// Pos returns the byte offset playback has delivered up to: every byte
// from the start offset to Pos has either been read or is waiting in the
// readable buffer. After OpenStreamAt or SeekTo it starts at the offset
// asked for.
func (st *Stream) Pos() int64 { return st.deliveredBytes }

// Read implements io.Reader over the delivered bytes. It returns
// ErrNoData when the pipeline has not delivered the next block yet and
// io.EOF once the whole clip has been read.
func (st *Stream) Read(p []byte) (int, error) {
	if st.closed {
		return 0, io.ErrClosedPipe
	}
	if st.head == len(st.readable) {
		if st.done {
			if st.termErr != nil {
				return 0, st.termErr
			}
			if st.deliveredBytes >= st.clip.size {
				return 0, io.EOF
			}
			return 0, io.ErrClosedPipe
		}
		return 0, ErrNoData
	}
	n := 0
	for n < len(p) && st.head < len(st.readable) {
		c := &st.readable[st.head]
		k := copy(p[n:], c.buf[st.readOff:])
		n += k
		if st.readOff += k; st.readOff == len(c.buf) {
			st.srv.recycle(*c)
			*c = chunk{}
			st.head, st.readOff = st.head+1, 0
		}
	}
	return n, nil
}

// Tick advances one service round: every active stream fetches its due
// block(s) — reconstructing across a failure if needed — and delivers
// one round's worth of payload to its reader. A stream that reads a block
// in an unrecoverable parity group (failures beyond tolerance) is
// terminated with an explicit reason rather than failing the round; every
// other stream is served normally. Idle capacity left after stream
// service drives the online rebuild first and then the integrity
// scrubber. Tick itself errors only on programming bugs, and on a block
// the rebuild recovered to bytes its group's sums rule out.
func (s *Server) Tick() error {
	// Deterministic iteration: the service registry holds every active
	// stream in ascending-id order, maintained incrementally.
	s.compactReg()
	s.startPool() // its helper wakes while the streams are served
	// Close the previous round's migration ledger before anything else:
	// migration charges land both inside Tick (the AddDisk re-layout
	// step) and between ticks (the cluster tier's clip-migration calls),
	// so the per-round share is everything since the last round began.
	s.stats.MigrateReadsLastRound = s.stats.MigrateReads - s.migrateReadsMark
	s.migrateReadsMark = s.stats.MigrateReads
	s.engine.BeginRound()
	if s.injector != nil {
		s.injector.SetRound(s.engine.Round())
	}
	// Land this round's scripted bit rot before any read happens, so a
	// given plan and stream population replays bit-identically.
	s.applyCorruptions()
	perRound := int64(1)
	if s.groupFetch {
		perRound = int64(s.cfg.P - 1)
	}
	if err := s.serviceStreams(perRound); err != nil {
		s.joinPool()
		return err
	}
	before := s.stats.RebuildReads
	err := s.rebuildStep()
	s.scrubStep()
	s.relayoutStep()
	s.stats.RebuildReadsLastRound = s.stats.RebuildReads - before
	return err
}

// serviceStreams runs the round's fetch/delivery phase for every active
// stream, in registry order: compactReg left no other in it, and a stream
// ends only in its turn or, by a fix-up, after it. The pending reads before
// an error are committed, and a commit's error comes first.
func (s *Server) serviceStreams(perRound int64) error {
	s.beginPass()
	var err error
	for i := 0; i < len(s.reg) && err == nil; i++ {
		err = s.tickStream(s.reg[i], perRound)
	}
	return cmp.Or(s.endPass(), err)
}

// tickStream runs one stream's fetch and delivery phases for the round.
// The read is where a stream learns its fate: the fetch or delivery of a
// block its parity group can no longer produce ends the stream, with a
// reason naming the block. Under single-block fetching every block before
// it has been delivered; the pre-fetching schemes fetch up to p−2 blocks
// ahead of delivery and drop those.
func (s *Server) tickStream(st *Stream, perRound int64) error {
	if n, err := s.advance(st, perRound); err != nil {
		return s.lose(st, n, err)
	}
	if st.nextDeliver >= st.clip.blocks {
		st.done = true
		s.stats.Served++
		s.release(st)
	}
	return nil
}

// lose ends st with a reason naming clip block n when err is a group's
// that cannot produce the block, and returns any other err.
func (s *Server) lose(st *Stream, n int64, err error) error {
	if !errors.Is(err, recovery.ErrUnrecoverable) {
		return err
	}
	s.terminate(st, fmt.Errorf("%w: clip block %d: %v", ErrStreamLost, n, err))
	return nil
}

// advance is tickStream's fetch and delivery; on error it also returns
// the clip block it failed on.
func (s *Server) advance(st *Stream, perRound int64) (int64, error) {
	// Fetch phase: keep the pipeline prefetchDepth blocks ahead of
	// delivery (whole groups at once for streaming RAID).
	target := min(st.nextDeliver+s.prefetchDepth, st.clip.blocks)
	for budget := perRound; st.nextFetch < target && budget > 0; budget-- {
		if err := s.fetchInto(st, st.nextFetch); err != nil {
			return st.nextFetch, err
		}
		st.nextFetch++
	}
	// Delivery may (re)start only once the pipeline is full — at
	// stream start and again after a Resume.
	if !st.started && st.nextFetch >= target {
		st.started = true
	}
	// Delivery phase: one block of playback per round once started.
	for k := int64(0); st.started && k < perRound && st.nextDeliver < st.clip.blocks; k++ {
		if err := s.deliver(st); err != nil {
			return st.nextDeliver, err
		}
	}
	return 0, nil
}

// fetchInto fetches clip block n (clip-relative) for the stream, charging
// the engine for every physical read. Healthy-disk reads go through the
// failure detector (bounded retry, bad-block repair, timeout scoring);
// when the block's disk has failed — whether declared by the detector or
// injected — the pre-fetching schemes fetch the group's parity block
// instead (§6) and the others fetch the surviving members and
// reconstruct (§4). The pre-fetching schemes take the parity route for a
// block not yet rebuilt onto a spare too: their admission reserves that
// one parity read, not the p−1 survivors an in-place repair reads.
//
// A plain read goes on the pending list (pending.go); every other read
// commits the list first.
func (s *Server) fetchInto(st *Stream, n int64) error {
	logical := st.clip.block(n)
	addr := s.lay.Place(logical)
	if s.lendPlain(st, n, addr) {
		return nil
	}
	if err := s.commitReads(); err != nil {
		return err
	}
	direct := !s.store.Array.Failed(addr.Disk)
	if s.prefetchDepth > 1 {
		direct = s.blockReadable(addr)
	}
	if direct {
		s.charge(addr.Disk)
		c, err := s.readMonitored(addr, nil)
		if err == nil {
			st.hold(n, c, false)
			return nil
		}
		if !errors.Is(err, storage.ErrFailed) {
			return err
		}
		// The disk proved unresponsive — the detector may just have
		// declared it failed. Fall through to the degraded path either
		// way: data must still flow this round.
	}
	if s.prefetchDepth > 1 {
		// Pre-fetching schemes: fetch only the parity block now;
		// reconstruction happens at delivery from the buffered siblings.
		s.lay.GroupAt(addr, &s.scratch.g)
		par := s.scratch.g.Parity
		if s.store.Array.Failed(par.Disk) {
			return fmt.Errorf("%w: parity disk %d also failed", recovery.ErrUnrecoverable, par.Disk)
		}
		s.charge(par.Disk)
		pbuf := s.getBlock()
		if err := s.readMemberInto(par, pbuf); err != nil {
			s.putBlock(pbuf)
			return fmt.Errorf("%w: parity disk %d unavailable: %v", recovery.ErrUnrecoverable, par.Disk, err)
		}
		st.hold(n, chunk{pbuf, true}, true)
		return nil
	}
	// Declustered / non-clustered: read the surviving members and parity
	// now.
	data, err := s.repairAt(addr, repairMode{})
	if err != nil {
		return err
	}
	st.hold(n, chunk{data, true}, false)
	return nil
}

// reconstructPending rebuilds, from buffered siblings plus the fetched
// parity block, every group member of clip block n that is still awaiting
// reconstruction. Fetching starts only at a group boundary and delivery
// only once the group is fetched, so at the group's first delivery every
// member is in the buffer (§6.1): a member it cannot rebuild has a sibling
// that is parity too, and deliver ends the stream on it.
func (s *Server) reconstructPending(st *Stream, n int64) {
	if st.pendingParity == 0 {
		return // nothing pending: the common case, and the healthy path's only one
	}
	// idx is a group member's clip-relative index.
	idx := func(l int64) int64 { return (l - st.clip.start) / st.clip.stride }
	g := &s.scratch.g
	s.lay.GroupAt(s.lay.Place(st.clip.block(n)), g)
	for _, li := range g.Data {
		sl := st.slot(idx(li))
		if sl == nil || !sl.isParity {
			continue
		}
		complete := true
		for _, lj := range g.Data {
			if lj != li && st.data(idx(lj)) == nil {
				complete = false // a second member lost
				break
			}
		}
		if !complete {
			continue
		}
		for _, lj := range g.Data {
			if lj != li {
				recovery.XORInto(sl.buf, st.data(idx(lj)))
			}
		}
		st.reconstructed(sl)
	}
}

// deliver moves clip block nextDeliver from its slot to the readable queue.
func (s *Server) deliver(st *Stream) error {
	n := st.nextDeliver
	s.reconstructPending(st, n)
	sl := st.slot(n)
	if sl == nil {
		// The pipeline failed to produce the block in time.
		s.stats.Hiccups++
		st.nextDeliver++
		return nil
	}
	if sl.isParity {
		// reconstructPending left it: a sibling is parity too.
		return fmt.Errorf("%w: block %d: a second member of its group is lost", recovery.ErrUnrecoverable, st.clip.block(n))
	}
	// The block holds clip bytes [lo, hi), the final one trimmed to the
	// clip's true payload length. Only the bytes from deliveredBytes on
	// are queued: a block wholly before a stream's start offset, or
	// padding past the payload, is recycled, and the block holding the
	// start offset — the first queued, so readable is empty — is read
	// from the offset on.
	bs := int64(s.store.Array.BlockSize())
	lo := n * bs
	hi := min(lo+bs, st.clip.size)
	if hi > st.deliveredBytes {
		if len(st.readable) == cap(st.readable) && st.head > 0 {
			// Full but partly read: slide the unread chunks to the front
			// instead of growing the queue.
			k := copy(st.readable, st.readable[st.head:])
			clear(st.readable[k:])
			st.readable, st.head = st.readable[:k], 0
		}
		if lo < st.deliveredBytes {
			st.readOff = int(st.deliveredBytes - lo)
		}
		st.readable = append(st.readable, chunk{sl.buf[:hi-lo], sl.owned})
		st.deliveredBytes += hi - max(lo, st.deliveredBytes)
	} else {
		s.recycle(sl.chunk)
	}
	*sl = slot{}
	st.nextDeliver++
	return nil
}

// charge records a physical read against the round ledger; a charge past
// q is not refused but counted in Stats.Overflows.
func (s *Server) charge(disk int) {
	s.engine.Charge(disk)
}
