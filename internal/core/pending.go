package core

import (
	"cmp"
	"math"

	"ftcms/internal/integrity"
	"ftcms/internal/layout"
	"ftcms/internal/parallel"
	"ftcms/internal/recovery"
	"ftcms/internal/storage"
)

// The round's pool (DESIGN §13): one feed, opened at the top of Tick so
// that its helper is awake when work comes, sums the stream pass's plain
// reads (lendPlain) while the owner serves on, then runs the rebuild's
// entries (rebuild.go). The owner commits the reads in registry order before
// any other read, which may observe, declare or write, and at the end of the
// pass (commitReads). With no helper there is no pending list.

// poolFeed runs poolPass, the round's one fan-out.
type poolFeed = parallel.Feed

// lendChunk is how many pending reads one pool item sums.
const lendChunk = 64

// pendingRead is a plain read awaiting its verdict; marked says the loan
// set the block's lent mark.
type pendingRead struct {
	data   []byte
	st     *Stream
	sum    uint32
	disk   int32
	marked bool
}

// pendingList is the stream pass's plain reads, sized with the registry and
// reused: n taken, done committed (in item), used by the last pass. Item i
// is reads [ends[i], ends[i+1]); the pool writes only fails[i], a bit for
// each whose bytes missed their sum. base is the feed's first rebuild item,
// MaxInt while the pass may publish.
type pendingList struct {
	on                               bool
	reads                            []pendingRead
	ends                             []int
	fails                            []uint64
	n, done, item, used, items, base int
}

// startPool opens the round's feed, unless it is open, when a rebuild is in
// flight or the stream pass is wide.
func (s *Server) startPool() {
	if len(s.rebuilds) == 0 && !s.widePass() {
		return
	}
	if s.poolPass == nil {
		s.zero = make([]byte, s.store.Array.BlockSize())
		s.zeroSum = integrity.Sum(s.zero)
		s.poolPass = func(i int) error { s.poolItem(i); return nil }
	}
	s.feed.Start(s.poolPass)
}

// widePass reports whether the stream pass's single-block fetches span
// recovery.FanOut bytes, the pool's worth.
func (s *Server) widePass() bool {
	return s.prefetchDepth == 1 && len(s.reg)*s.store.Array.BlockSize() >= recovery.FanOut
}

// joinPool closes the feed; the next one numbers its items from 0.
func (s *Server) joinPool() {
	_ = s.feed.Join()
	s.pend.base = 0
}

// publishBatch lets the pool run the rebuild batch's entries [0, n).
func (s *Server) publishBatch(n int) { s.feed.Publish(s.pend.base + n) }

// poolItem is the pool's job i: a rebuild entry, or an item of reads to sum.
func (s *Server) poolItem(i int) {
	p := &s.pend
	if i >= p.base {
		s.batch[i-p.base].run(s.store.Array, s.zero, s.zeroSum)
		return
	}
	fails := uint64(0)
	for k, r := range p.reads[p.ends[i]:p.ends[i+1]] {
		if integrity.Sum(r.data) != r.sum {
			fails |= 1 << k
		}
	}
	p.fails[i] = fails
}

// beginPass readies the pending list, on only with a helper to sum it.
func (s *Server) beginPass() {
	p := &s.pend
	p.n, p.done, p.item, p.items = 0, 0, 0, 0
	if p.on = s.feed.Helped() && s.widePass(); p.on {
		p.base = math.MaxInt
		if n := len(s.reg) * 5 / 4; len(p.reads) < len(s.reg) {
			p.reads, p.ends, p.fails = make([]pendingRead, n), make([]int, n+1), make([]uint64, n)
		}
	}
}

// endPass commits the pending reads and lets go of the streams and bytes
// that reads this pass did not overwrite still name. The rebuild's items
// follow the pass's on the feed.
func (s *Server) endPass() error {
	p := &s.pend
	err := s.commitReads()
	if p.n < p.used {
		clear(p.reads[p.n:p.used])
	}
	p.on, p.base, p.used = false, p.items, p.n
	return err
}

// lendPlain takes clip block n of st, at a, as a plain read if it is one —
// a written block of a healthy disk, no read hook, not the stream's last,
// which finishes it — and reports whether it did.
func (s *Server) lendPlain(st *Stream, n int64, a layout.BlockAddr) bool {
	p := &s.pend
	if !p.on || n+1 >= st.clip.blocks {
		return false
	}
	b, sum, marked := s.store.Array.LendUnchecked(a.Disk, a.Block)
	if b == nil {
		return false
	}
	s.charge(a.Disk)
	st.hold(n, chunk{buf: b}, false)
	p.reads[p.n] = pendingRead{data: b, st: st, sum: sum, disk: int32(a.Disk), marked: marked}
	if p.n++; p.n-p.ends[p.items] == lendChunk {
		s.publishReads()
	}
	return true
}

// publishReads hands the pool the reads not yet published, as one item.
func (s *Server) publishReads() {
	p := &s.pend
	p.items++
	p.ends[p.items] = p.n
	s.feed.Publish(p.items)
}

// commitReads settles the pending reads in registry order: a verified read
// on a disk still healthy gets the clean observation its serial read made,
// any other is read again (fixRead). The list is off while it commits. It
// returns the first fix-up's error.
func (s *Server) commitReads() (err error) {
	p := &s.pend
	if !p.on || p.done == p.n {
		return nil
	}
	if p.ends[p.items] < p.n {
		s.publishReads()
	}
	s.feed.Wait()
	p.on = false
	for ; p.done < p.n; p.done++ {
		if p.done == p.ends[p.item+1] {
			p.item++
		}
		r := &p.reads[p.done]
		if p.fails[p.item]>>(p.done-p.ends[p.item])&1 == 0 && s.store.Array.State(int(r.disk)) == storage.Healthy {
			s.detector.Observe(int(r.disk), 1, nil)
		} else {
			err = cmp.Or(err, s.fixRead(r, p.reads[p.done+1:p.n]))
		}
	}
	p.on = true
	return err
}

// fixRead reads r's block again the serial way (fetchInto), its loan's mark
// and charge taken back first, and puts what that returns where the loan
// was delivered, or takes the delivery back and ends the stream as
// tickStream would. Under P+Q a repair picks a parity column by load, so
// the later reads' charges are taken back around it; under single parity
// no choice reads the ledger, and overflows do not depend on charge order.
func (s *Server) fixRead(r *pendingRead, later []pendingRead) error {
	st, n := r.st, r.st.nextDeliver-1
	if r.marked {
		a := s.lay.Place(st.clip.block(n))
		s.store.Array.Unlend(a.Disk, a.Block)
	}
	if s.erasures == 1 {
		later = nil
	}
	s.engine.Refund(int(r.disk))
	for k := range later {
		s.engine.Refund(int(later[k].disk))
	}
	err := s.fetchInto(st, n)
	for k := range later {
		s.charge(int(later[k].disk))
	}
	k := len(st.readable) - 1 // single-block fetching queues every block
	q := &st.readable[k]
	if err == nil {
		sl := st.slot(n)
		*q, *sl = chunk{sl.buf[:len(q.buf)], sl.owned}, slot{}
		return nil
	}
	if st.head == k { // read from the stream's start offset on
		st.deliveredBytes += int64(st.readOff)
		st.readOff = 0
	}
	st.deliveredBytes -= int64(len(q.buf))
	*q, st.readable = chunk{}, st.readable[:k]
	st.nextFetch, st.nextDeliver = n, n
	return s.lose(st, n, err)
}
