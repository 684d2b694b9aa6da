package core

import (
	"errors"
	"fmt"

	"ftcms/internal/admission"
	"ftcms/internal/layout"
	"ftcms/internal/recovery"
	"ftcms/internal/storage"
)

// This file implements per-array disk addition with online PGT
// re-layout. AddDisk builds a shadow array one disk wider with its own
// precomputed parity-group table, then relayoutStep copies every written
// logical block across on idle round capacity — read monitored from the
// old array (charged against the round ledger, counted on the migration
// ledger), written through the shadow store's parity maintenance, which
// recomputes parity and re-records the block's checksum: relocated
// blocks are copied AND re-checksummed before anything flips. The old
// layout stays authoritative for every stream until finishRelayout
// atomically swaps layout, store, engine width, admission controller
// and detector — and only after every active stream has been re-
// admitted under the new geometry, so a stream admitted under the old
// view is never hiccuped by the transition. Like rebuild and scrub, the
// copy pauses whenever the array is not fully healthy.

// relayoutState tracks one in-flight AddDisk re-layout.
type relayoutState struct {
	lay   *layout.Declustered
	store *recovery.Store
	// next is the copy cursor over logical blocks [0, nextFree), which
	// stays fixed while the copy runs (nothing is allocated meanwhile); it
	// steps over unwritten blocks.
	next int64
}

// Relayouting reports whether an AddDisk re-layout is in flight.
func (s *Server) Relayouting() bool { return s.relayout != nil }

// AddDisk starts growing the array by one disk. Supported for the
// declustered schemes (single parity and P+Q), whose layouts are pure
// functions of (d, p); the dynamic and pre-fetching schemes tie
// admission classes to the clip address space and are out of scope.
// The re-layout runs in the background on idle capacity; the wider
// geometry (and the extra capacity) becomes visible only at the flip.
func (s *Server) AddDisk() error {
	if !s.cfg.Scheme.CanAddDisk() {
		return fmt.Errorf("core: AddDisk unsupported for scheme %q", s.cfg.Scheme)
	}
	if s.relayout != nil {
		return errors.New("core: re-layout already in progress")
	}
	if len(s.imports) > 0 {
		return errors.New("core: clip imports in flight; retry after they commit")
	}
	if s.Mode() != ModeHealthy {
		return errors.New("core: array not healthy; repair before growing")
	}
	d2 := s.cfg.D + 1
	lay2, err := s.cfg.Scheme.Table(d2, s.cfg.P)
	if err != nil {
		return err
	}
	arr2, err := storage.NewArray(d2, int(s.cfg.Block.Bytes()))
	if err != nil {
		return err
	}
	store2, err := recovery.NewStore(lay2, arr2)
	if err != nil {
		return err
	}
	s.relayout = &relayoutState{lay: lay2, store: store2}
	return nil
}

// relayoutStep advances the shadow copy with this round's idle
// capacity. It runs after rebuildStep and scrubStep in Tick, so its
// priority is strictly below streams, rebuild and scrub; it pauses
// entirely while the array is rebuilding or degraded. Copy reads gate
// on the whole source parity group (a corrupt block found by the read
// is repaired in place on contingency slots, which the gate reserves);
// shadow-side writes are uncharged — the shadow array serves no streams
// until the flip, so it has no round budget to protect.
func (s *Server) relayoutStep() {
	rl := s.relayout
	if rl == nil {
		return
	}
	if s.Mode() != ModeHealthy {
		return
	}
	for ; rl.next < s.nextFree; rl.next++ {
		i := rl.next
		addr := s.lay.Place(i)
		if !s.store.Array.Written(addr.Disk, addr.Block) {
			continue // never written: an aborted import's unwritten tail
		}
		if !s.groupIdle(addr) {
			return // out of idle capacity; resume next round
		}
		s.charge(addr.Disk)
		s.stats.MigrateReads++
		c, err := s.readMonitored(addr, nil)
		if err != nil {
			// The read escalated (disk declared failed mid-copy): the
			// mode check pauses the re-layout from the next step on;
			// the copied prefix stays valid because clip bytes never
			// change after AddClip.
			return
		}
		werr := rl.store.WriteBlock(i, c.buf)
		s.recycle(c)
		if werr != nil {
			return
		}
	}
	s.finishRelayout()
}

// finishRelayout flips the server to the wider geometry, but only if
// every active stream re-admits under it. Admission under the new
// layout has different coordinates (more disks, different parity-group
// classes), so each stream is admitted afresh at its current position
// against a new controller; if any admission is refused the whole flip
// is deferred to a later round with the old view fully intact — the
// transition is transactional and can never strand a stream.
func (s *Server) finishRelayout() {
	rl := s.relayout
	d2 := s.cfg.D + 1
	newAdmit, err := s.cfg.Scheme.Admission(d2, s.cfg.P, s.cfg.Q, s.cfg.F, rl.lay)
	if err != nil {
		// Geometry the admission layer cannot express (cannot happen for
		// the supported schemes); abandon rather than wedge the server.
		s.relayout = nil
		return
	}
	now := s.engine.Round()
	reissued := make([]admission.Ticket, 0, len(s.reg))
	streams := make([]*Stream, 0, len(s.reg))
	for _, st := range s.reg {
		if !st.active || st.done {
			continue
		}
		pos := st.clip.block(min(st.nextFetch, st.clip.blocks-1))
		unit, class := s.cfg.Scheme.Coords(rl.lay, rl.lay, pos)
		tk, ok := newAdmit.Admit(now, unit, class)
		if !ok {
			return // defer the flip; retry next round with the old view intact
		}
		reissued = append(reissued, tk)
		streams = append(streams, st)
	}
	// Point of no return: install the new tickets and swap the world.
	// Old tickets die with the old controller; paused streams hold no
	// ticket and re-admit on the new controller at Resume.
	for k, st := range streams {
		st.ticket = reissued[k]
	}
	s.ctrl = newAdmit
	s.lay, s.pgt = rl.lay, rl.lay
	s.store = rl.store
	s.cfg.D = d2
	s.failRound = append(s.failRound, -1)
	s.engine.AddDisk()
	s.detector.Grow(1)
	if s.injector != nil {
		// The injector hooks the array's read path; the shadow array was
		// built bare, so re-arm it or fault injection dies at the flip.
		s.store.Array.SetReadHook(s.injector.Hook)
	}
	// Scrub sweeps hold physical addresses of the old layout.
	s.scrub = scrubState{}
	s.relayout = nil
	s.stats.RelayoutsDone++
}
