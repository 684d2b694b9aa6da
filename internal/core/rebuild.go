package core

import (
	"slices"

	"ftcms/internal/integrity"
	"ftcms/internal/layout"
	"ftcms/internal/parallel"
	"ftcms/internal/recovery"
	"ftcms/internal/storage"
)

// The online rebuild's round, in three passes: the plan projects the
// repairs idle capacity admits (owner); the pool verifies each planned
// read's bytes in place and recovers the block into the spare's own buffer,
// touching nothing but bytes (parallel.ForEach, the one fan-out inside an
// array's round); the commit runs each repair as ever, in queue order, a
// verified read taking its verdict for the checksum (owner). DESIGN §8.

// rebuildState tracks one online rebuild.
type rebuildState struct {
	disk int
	// queue is membersOn(disk) as of the rebuild's start, consumed as far
	// as each round's idle capacity reaches.
	queue []diskMember
	next  int
}

// rebuildJob is a batch entry: the planned repair of target t of group g,
// erasing missing and reading need, and what the pool made of it.
type rebuildJob struct {
	g             layout.Group
	t             int
	missing, need []int
	// bufs is RecoverPQ's members: a read one's verified stored bytes (its
	// verdict), dst (the spare slot's kept buffer) for the target, spare (a
	// freelist block) for a second erasure.
	bufs       [][]byte
	dst, spare []byte
	// ok: the pool recovered dst, whose checksum is sum; hit: the commit
	// ran as planned, so dst stands.
	ok, hit bool
	sum     uint32
}

// verdict is the pool's verified bytes of member idx, or nil.
func (e *rebuildJob) verdict(idx int) []byte {
	if e == nil || e.dst == nil || !slices.Contains(e.need, idx) {
		return nil
	}
	return e.bufs[idx]
}

// run is the pool pass over one entry.
func (e *rebuildJob) run(arr *storage.Array) {
	if e.dst == nil {
		return // lost, or a lent slot: the commit repairs it as ever
	}
	for _, idx := range e.need {
		a := memberAddr(&e.g, idx)
		if e.bufs[idx] = arr.Peek(a.Disk, a.Block); e.bufs[idx] == nil {
			return // the commit's read reports it
		}
	}
	nd := len(e.g.Data)
	if recovery.RecoverPQ(e.bufs[:nd], e.bufs[nd], e.bufs[nd+1], e.missing) == nil {
		e.sum, e.ok = integrity.Sum(e.dst), true
	}
}

// rebuildStep advances every in-flight online rebuild using only this
// round's idle capacity: a block is rebuilt only if every disk it must
// read has charges left under q. It runs after stream service each Tick,
// so streams always have priority — the §4 contingency bandwidth doubles
// as rebuild bandwidth only when failure reads leave it free.
func (s *Server) rebuildStep() {
	for j := 0; j < len(s.rebuilds); j++ {
		if s.rebuildOne(s.rebuilds[j]) {
			s.rebuilds = append(s.rebuilds[:j], s.rebuilds[j+1:]...)
			j--
		}
	}
	s.nextRebuild()
}

// rebuildOne advances one rebuild as far as idle capacity allows; it
// returns true when the rebuild is finished or abandoned.
func (s *Server) rebuildOne(rb *rebuildState) bool {
	arr := s.store.Array
	if arr.State(rb.disk) != storage.Rebuilding {
		return true // spare crashed or operator repaired the disk
	}
	if s.poolPass == nil {
		s.poolPass = func(i int) error { s.batch[i].run(s.store.Array); return nil }
	}
	batch, first := s.planBatch(rb), rb.next
	_ = parallel.ForEach(len(batch), s.poolPass)
	defer s.releaseBatch(batch)
	for rb.next < len(rb.queue) {
		block := rb.queue[rb.next].block
		mode := repairMode{idle: true, ledger: &s.rebuildReads}
		if k := rb.next - first; k < len(batch) {
			mode.job = &batch[k]
		}
		data, err := s.repairAt(layout.BlockAddr{Disk: rb.disk, Block: block}, mode)
		switch {
		case err == errRepairStalled:
			return false // out of idle capacity; resume next round
		case err != nil:
			// Further failures took too many sources: this block is
			// unrecoverable for now. Leave it owed (explicit error on
			// read) and move on — never write a guess.
			s.lostBlocks++
		default:
			var werr error
			if data == nil {
				werr = arr.Install(rb.disk, block, mode.job.sum)
			} else {
				werr = arr.Write(rb.disk, block, data)
				s.putBlock(data)
			}
			if werr != nil {
				return true // spare crashed mid-write; abandon
			}
			s.rebuiltBlocks++
		}
		rb.next++
	}
	// Queue exhausted. A disk that still owes a block refuses to rejoin and
	// stays Rebuilding: its owed blocks keep erroring explicitly rather
	// than zero-filling.
	if arr.Rejoin(rb.disk) == nil {
		s.detector.Reset(rb.disk)
		s.rebuildsDone++
		s.recordRebuildDone(rb.disk)
	}
	return true
}

// planBatch is the plan pass: the repairs of rb's next queued blocks, as
// solve makes them when every read succeeds, up to the first the round's
// idle capacity would stall. It charges each entry's reads as it goes, so
// later entries' gates and P/Q balance see them, and refunds them all at
// the end: the commit charges for real.
func (s *Server) planBatch(rb *rebuildState) []rebuildJob {
	n := 0
plan:
	for ; rb.next+n < len(rb.queue); n++ {
		if n == len(s.batch) {
			s.growBatch()
		}
		e := &s.batch[n]
		a := layout.BlockAddr{Disk: rb.disk, Block: rb.queue[rb.next+n].block}
		e.t = s.lay.GroupAt(a, &e.g)
		e.missing = s.unreadable(&e.g, e.t, e.missing[:0])
		e.need, e.ok, e.hit = e.need[:0], false, false
		if len(e.missing) > parityCols(&e.g) {
			continue // lost: the commit's survey finds it so
		}
		e.missing, _ = s.pqBalance(&e.g, e.missing)
		e.need = planReads(&e.g, e.missing, nil, e.need)
		for _, idx := range e.need {
			if !s.idle(memberAddr(&e.g, idx)) {
				break plan
			}
		}
		for _, idx := range e.need {
			s.engine.Charge(memberAddr(&e.g, idx).Disk)
		}
		if e.dst = s.store.Array.Reserve(a.Disk, a.Block); e.dst == nil {
			continue
		}
		e.bufs = slices.Grow(e.bufs[:0], len(e.g.Data)+2)[:len(e.g.Data)+2]
		e.bufs[e.t] = e.dst
		for _, m := range e.missing[1:] {
			e.spare = s.getBlock()
			e.bufs[m] = e.spare
		}
	}
	for i := range n {
		e := &s.batch[i]
		for _, idx := range e.need {
			s.engine.Refund(memberAddr(&e.g, idx).Disk)
		}
	}
	return s.batch[:n]
}

// growBatch doubles the batch. The new entries' slices, p long at most,
// are carved from one allocation per kind, so the rebuild's first rounds
// allocate a few objects per doubling, not per entry.
func (s *Server) growBatch() {
	k, p := max(len(s.batch), 16), s.cfg.P+2
	s.batch = slices.Grow(s.batch, k)
	data, addrs := make([]int64, k*p), make([]layout.BlockAddr, k*p)
	ints, bufs := make([]int, 2*k*p), make([][]byte, k*p)
	for j := 0; j < k*p; j += p {
		s.batch = append(s.batch, rebuildJob{
			g:       layout.Group{Data: data[j : j : j+p], DataAddr: addrs[j : j : j+p]},
			missing: ints[2*j : 2*j : 2*j+p], need: ints[2*j+p : 2*j+p : 2*j+2*p], bufs: bufs[j : j : j+p],
		})
	}
}

// releaseBatch returns the batch's spare blocks and drops its verdicts:
// none outlives its batch.
func (s *Server) releaseBatch(batch []rebuildJob) {
	s.store.Array.Vouch(nil)
	for i := range batch {
		if e := &batch[i]; e.spare != nil {
			s.putBlock(e.spare)
		}
		batch[i].dst, batch[i].spare = nil, nil
		clear(batch[i].bufs)
	}
}
