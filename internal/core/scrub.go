package core

import (
	"errors"

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

// scrubState is one sweep: a cursor over the array's physical addresses —
// C-SCAN order is physical order — that stops at every written block. The
// zero value (total 0) means no sweep is in progress.
type scrubState struct {
	// pos numbers the next address the sweep examines, ascending block
	// and ties by disk: block·d + disk.
	pos int64
	// scanned counts the blocks visited; total is the array's written
	// blocks as the sweep began, less lost.
	scanned, total int
	// lost holds the blocks the patrol found beyond repair. Sweeps pass
	// them by, and the set outlives the sweep that found them.
	lost map[layout.BlockAddr]bool
}

// seek moves the cursor to the next written block not lost at or after
// pos and returns its address; ok is false once the sweep is past the
// array's last block.
func (sc *scrubState) seek(arr *storage.Array) (a layout.BlockAddr, ok bool) {
	d := int64(arr.Disks())
	for end := arr.Extent() * d; sc.pos < end; sc.pos++ {
		if a = (layout.BlockAddr{Disk: int(sc.pos % d), Block: sc.pos / d}); arr.Written(a.Disk, a.Block) && !sc.lost[a] {
			return a, true
		}
	}
	return a, false
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
	arr := s.store.Array
	sc := &s.scrub
	if sc.total == 0 {
		if sc.total = arr.WrittenBlocks() - len(sc.lost); sc.total == 0 {
			return
		}
	}
	// A negative rate is no cap: counting down from it never reaches 0.
	for budget := s.cfg.ScrubRate; ; budget-- {
		a, ok := sc.seek(arr)
		if !ok {
			s.scrubCycles++
			s.scrub = scrubState{lost: sc.lost} // next round starts a fresh sweep
			return
		}
		if budget == 0 || !s.idle(a) {
			return // out of budget, or of idle slots on this disk; resume here next round
		}
		s.charge(a.Disk)
		buf := s.getBlock() // a verify read copies: a loan would mark the block
		err := s.detector.ReadInto(arr, a.Disk, a.Block, buf)
		s.putBlock(buf)
		if s.Mode() != ModeHealthy {
			// The verify read pushed the disk over a threshold and the
			// detector declared it failed — rebuild owns the idle
			// capacity from here.
			return
		}
		if errors.Is(err, storage.ErrCorruptBlock) || errors.Is(err, storage.ErrBadBlock) {
			// Rot, or a latent bad block the patrol found before any
			// stream did: repair from the parity group, on idle capacity
			// only — scrub repairs, like scrub reads, never intrude on
			// the round budget.
			data, rerr := s.repairInPlace(a, err, repairMode{idle: true})
			switch {
			case rerr == errRepairStalled:
				return // the whole repair retries next round
			case rerr == nil:
				s.putBlock(data)
			default:
				// The group cannot rebuild the block: under single parity a
				// second rotten member needs this one for its own repair.
				// It is lost, counted once; re-reading it would only score
				// its disk again.
				if sc.lost == nil {
					sc.lost = make(map[layout.BlockAddr]bool)
				}
				sc.lost[a] = true
				s.lostBlocks++
			}
		}
		// Any other error is a hard error or an absent block: the detector
		// scored what there was to score; patrol moves on.
		sc.pos++
		sc.scanned++
	}
}
