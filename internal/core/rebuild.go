package core

import (
	"slices"

	"ftcms/internal/integrity"
	"ftcms/internal/layout"
	"ftcms/internal/parallel"
	"ftcms/internal/recovery"
	"ftcms/internal/storage"
)

// The online rebuild's round, in three passes (DESIGN §8). The plan solves
// each queued repair as a live repair does — survey, P/Q balance, idle gate,
// charges, read hook, detector, replans — except that every read is a Probe,
// which takes no bytes (owner). The pool verifies the bytes the plan read
// and recovers each block into the spare's own buffer, touching nothing but
// bytes (parallel.ForEach, the one fan-out inside an array's round). The
// commit installs the entries in queue order up to the first whose member
// the pool found rotten: it refunds that entry's charges and every later
// one's, repairs that block live and ends the batch (owner).

// rebuildState tracks one online rebuild.
type rebuildState struct {
	disk int
	// queue is the blocks the disk held when the rebuild started, in the
	// store's key order (recovery.Store.Held), consumed as far as each
	// round's idle capacity reaches.
	queue []recovery.Member
	next  int
}

// rebuildJob is a batch entry: the plan's repair of a member of the group
// in its scratch, which read the members marked read and erases missing
// (the target first), and what the pool made of it.
type rebuildJob struct {
	repairScratch
	missing []int
	// The scratch's bufs are RecoverPQ's members: a read one's verified
	// stored bytes (the server's zero block for an absent one of a healthy
	// disk), dst (Reserve's buffer; nil if the block is no longer owed) for
	// the target, spare (a freelist block) for a second erasure.
	dst, spare []byte
	// lost: the plan found the group beyond its parity; ok: the pool
	// recovered dst, whose checksum is sum.
	lost, ok bool
	sum      uint32
}

// run is the pool pass over one entry.
func (e *rebuildJob) run(arr *storage.Array, zero []byte) {
	if e.lost || e.dst == nil {
		return
	}
	for idx, read := range e.read {
		if !read || slices.Contains(e.missing, idx) {
			continue
		}
		a := memberAddr(&e.g, idx)
		if e.bufs[idx] = arr.Peek(a.Disk, a.Block); e.bufs[idx] == nil {
			if arr.Written(a.Disk, a.Block) || arr.State(a.Disk) != storage.Healthy {
				return // rotten: the commit repairs this entry live
			}
			e.bufs[idx] = zero
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
// returns true when the rebuild is finished or abandoned. Its disk is
// Rebuilding: a spare's crash and an operator's repair drop the rebuild in
// the call that takes the disk out of that state (onDiskFailed, RepairDisk).
func (s *Server) rebuildOne(rb *rebuildState) bool {
	arr := s.store.Array
	if s.poolPass == nil {
		s.zero = make([]byte, arr.BlockSize())
		s.poolPass = func(i int) error { s.batch[i].run(s.store.Array, s.zero); return nil }
	}
	batch := s.planBatch(rb)
	_ = parallel.ForEach(len(batch), s.poolPass)
	defer s.releaseBatch(batch)
	for k := 0; k < len(batch); k++ {
		e := &batch[k]
		a := layout.BlockAddr{Disk: rb.disk, Block: rb.queue[rb.next].Block}
		data, lost := []byte(nil), e.lost
		if !lost && e.dst != nil && !e.ok {
			// A member the plan probed is rotten. Take back this entry's
			// charges and every later one's, which the next round plans
			// again, and end the batch with a live repair of this block:
			// its read meets the rot through the detector and replans, or
			// finds the block lost.
			s.refund(batch[k:])
			batch = batch[:k+1]
			var err error
			if data, err = s.repairAt(a, repairMode{idle: true, ledger: &s.rebuildReads}); err == errRepairStalled {
				return false
			}
			lost = err != nil
		}
		var err error
		switch {
		case lost:
			// Further failures took too many sources: this block is
			// unrecoverable for now. Leave it owed (explicit error on
			// read) and move on — never write a guess.
			s.lostBlocks++
		case data != nil:
			err = arr.Write(a.Disk, a.Block, data)
			s.putBlock(data)
		case e.dst != nil:
			err = arr.Install(a.Disk, a.Block, e.dst, e.sum)
		}
		if err != nil {
			return true // spare crashed mid-write; abandon
		}
		rb.next++
	}
	if rb.next < len(rb.queue) {
		return false // out of idle capacity; resume next round
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

// planBatch is the plan pass: the repairs of rb's next queued blocks, up to
// the first the round's idle capacity stalls, each solved in probe mode.
func (s *Server) planBatch(rb *rebuildState) []rebuildJob {
	n := 0
	for ; rb.next+n < len(rb.queue); n++ {
		if n == len(s.batch) {
			s.growBatch()
		}
		e := &s.batch[n]
		a := layout.BlockAddr{Disk: rb.disk, Block: rb.queue[rb.next+n].Block}
		e.lost, e.ok, e.dst = false, false, nil
		if s.store.Array.NextOwed(a.Disk, a.Block) != a.Block {
			e.read = e.read[:0]
			continue // a stream's repair installed it already
		}
		if e.dst, _ = s.store.Array.Reserve(a.Disk, a.Block); e.dst == nil { // a spare takes writes
			e.dst = make([]byte, s.store.Array.BlockSize()) // a lent slot's bytes stay with their holders
		}
		var err error
		t := s.lay.GroupAt(a, &e.g)
		e.missing, err = s.solve(&e.repairScratch, t, e.missing[:0], repairMode{idle: true, ledger: &s.rebuildReads, probe: true})
		if err == errRepairStalled {
			e.dst = nil
			break
		}
		if e.lost = err != nil; e.lost {
			continue
		}
		e.bufs[t] = e.dst
		for _, m := range e.missing[1:] {
			e.spare = s.getBlock()
			e.bufs[m] = e.spare
		}
	}
	return s.batch[:n]
}

// refund takes back the plan's charges of entries the commit does not
// install.
func (s *Server) refund(rest []rebuildJob) {
	for i := range rest {
		for idx, read := range rest[i].read {
			if read {
				s.engine.Refund(memberAddr(&rest[i].g, idx).Disk)
				s.rebuildReads--
			}
		}
	}
}

// growBatch doubles the batch. The new entries' slices, p long at most,
// are carved from one allocation per kind, so the rebuild's first rounds
// allocate a few objects per doubling, not per entry.
func (s *Server) growBatch() {
	k, p := max(len(s.batch), 16), s.cfg.P+2
	s.batch = slices.Grow(s.batch, k)
	data, addrs := make([]int64, k*p), make([]layout.BlockAddr, k*p)
	ints, bufs, read := make([]int, 2*k*p), make([][]byte, k*p), make([]bool, k*p)
	for j := 0; j < k*p; j += p {
		e := rebuildJob{missing: ints[2*j : 2*j : 2*j+p]}
		e.g = layout.Group{Data: data[j : j : j+p], DataAddr: addrs[j : j : j+p]}
		e.bufs, e.read, e.need = bufs[j:j:j+p], read[j:j:j+p], ints[2*j+p:2*j+p:2*j+2*p]
		s.batch = append(s.batch, e)
	}
}

// releaseBatch returns the batch's freelist blocks and drops the stored
// bytes its entries hold: none outlives its batch.
func (s *Server) releaseBatch(batch []rebuildJob) {
	for i := range batch {
		e := &batch[i]
		if e.spare != nil {
			s.putBlock(e.spare)
		}
		e.dst, e.spare = nil, nil
		clear(e.bufs)
	}
}
