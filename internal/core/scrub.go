package core

import (
	"errors"
	"sort"

	"ftcms/internal/layout"
	"ftcms/internal/storage"
)

// This file implements the background integrity scrubber, modeled on the
// online rebuild: it spends only the idle block-read capacity each round
// leaves under the Equation-1 budget q — streams first, then rebuild,
// then scrubbing — so the rate guarantee is never touched. A sweep
// visits every stored block (data blocks plus one entry per P and Q
// block) in C-SCAN order: ascending physical block address, ties by
// disk, then wrap to a fresh sweep. Each visit is a verify read through
// the failure detector; a checksum mismatch (or latent bad block found
// early) is repaired from the parity group and rewritten, and the
// detector's per-disk corruption count moves the disk toward
// CorruptionThreshold — a disk that rots fast enough is declared failed
// and takes the normal hot-spare rebuild exit. The scrubber pauses
// whenever the server is not fully healthy: during degraded mode and
// rebuilds, every spare read belongs to reconstruction, not patrol.

// scrubState is one in-progress sweep.
type scrubState struct {
	queue []groupMember
	next  int
}

// buildScrubQueue snapshots the stored blocks into a C-SCAN-ordered
// sweep: every clip data block, plus one entry per distinct P and Q
// block.
func (s *Server) buildScrubQueue() *scrubState {
	var queue []groupMember
	s.storedMembers(func(m groupMember) { queue = append(queue, m) })
	// C-SCAN: one monotone pass across the physical block address space.
	sort.Slice(queue, func(a, b int) bool {
		if queue[a].addr.Block != queue[b].addr.Block {
			return queue[a].addr.Block < queue[b].addr.Block
		}
		return queue[a].addr.Disk < queue[b].addr.Disk
	})
	return &scrubState{queue: queue}
}

// applyCorruptions lands the injector's due silent-corruption orders on
// the array — at-rest bit flips, no error raised, checksums left stale.
// Runs at the top of each Tick so a round's corruption precedes its
// reads, keeping replays deterministic.
func (s *Server) applyCorruptions() {
	if s.injector == nil {
		return
	}
	for _, o := range s.injector.CorruptionsDue() {
		var err error
		if o.Block >= 0 {
			err = s.store.Array.CorruptBits(o.Disk, o.Block, o.Bits)
		} else {
			_, err = s.store.Array.CorruptRandomBlock(o.Disk, o.Pick, o.Bits)
		}
		if err == nil {
			s.corruptionsInjected++
		}
	}
}

// scrubStep advances the sweep with whatever idle capacity and scrub
// budget this round has left. It runs after rebuildStep in Tick, so its
// priority is strictly below both streams and rebuild traffic.
func (s *Server) scrubStep() {
	if s.cfg.ScrubRate == 0 || s.Mode() != ModeHealthy {
		return
	}
	if s.scrub == nil {
		s.scrub = s.buildScrubQueue()
		if len(s.scrub.queue) == 0 {
			s.scrub = nil
			return
		}
	}
	budget := s.cfg.ScrubRate
	if budget < 0 {
		budget = len(s.scrub.queue) + 1
	}
	for s.scrub.next < len(s.scrub.queue) && budget > 0 {
		e := s.scrub.queue[s.scrub.next]
		if !s.idle(e.addr) {
			return // no idle slot on this disk; resume here next round
		}
		s.charge(e.addr.Disk)
		budget--
		err := s.scrubRead(e.addr)
		if s.Mode() != ModeHealthy {
			// The verify read pushed the disk over a threshold and the
			// detector declared it failed — rebuild owns the idle
			// capacity from here.
			return
		}
		switch {
		case err == nil:
			s.scrub.next++
		case errors.Is(err, storage.ErrCorruptBlock), errors.Is(err, storage.ErrBadBlock):
			// Rot, or a latent bad block the patrol found before any
			// stream did: repair from the parity group, on idle capacity
			// only — scrub repairs, like scrub reads, never intrude on
			// the round budget.
			data, rerr := s.repairInPlace(s.lay.GroupOf(e.logical), e, err, repairMode{idle: true})
			if rerr == errRepairStalled {
				return // the whole repair retries next round
			}
			if rerr == nil {
				s.putBlock(data)
			}
			// A failed reconstruction (e.g. a second rotten member in the
			// same group) is skipped: the next cycle retries after the
			// sibling is repaired.
			s.scrub.next++
		default:
			// Hard error or absent block: the detector scored what there
			// was to score; patrol moves on.
			s.scrub.next++
		}
	}
	if s.scrub.next >= len(s.scrub.queue) {
		s.scrubCycles++
		s.scrub = nil // next round snapshots a fresh sweep
	}
}

// scrubRead verifies one physical block through the failure detector.
func (s *Server) scrubRead(a layout.BlockAddr) error {
	scratch := s.getBlock()
	defer s.putBlock(scratch)
	return s.detector.ReadInto(s.store.Array, a.Disk, a.Block, scratch)
}
