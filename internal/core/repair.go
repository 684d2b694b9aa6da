package core

import (
	"errors"
	"fmt"
	"slices"

	"ftcms/internal/layout"
	"ftcms/internal/recovery"
	"ftcms/internal/storage"
)

// This file holds the one parity-group repair routine. Every path that
// has to produce a group member's bytes without reading the member
// itself — degraded stream reads, bad-block and corrupt-block repair,
// the online rebuild, scrub repair, operator RepairDisk — calls
// repairAt, or (the rebuild's plan) its solve. Single parity is the P+Q
// case without a Q column: the same survey, plan and solve with one
// erasure fewer to spend.
//
// Members are numbered as recovery.RecoverPQ numbers them: data blocks
// 0..nd-1 in group order, P at nd, and Q at nd+1 when the group has one.

// parityCols is the number of parity columns the group carries, which is
// also the number of erasures it can close.
func parityCols(g *layout.Group) int {
	if g.HasQ {
		return 2
	}
	return 1
}

// memberAddr returns the address of group member idx.
func memberAddr(g *layout.Group, idx int) layout.BlockAddr {
	nd := len(g.Data)
	switch {
	case idx < nd:
		return g.DataAddr[idx]
	case idx == nd:
		return g.Parity
	default:
		return g.Q
	}
}

// idle reports whether every listed disk still has a read slot left
// under q this round — the gate of everything that runs on idle capacity
// (rebuild, scrub, re-layout, migration).
func (s *Server) idle(addrs ...layout.BlockAddr) bool {
	for _, a := range addrs {
		if s.engine.Load(a.Disk) >= s.cfg.Q {
			return false
		}
	}
	return true
}

// groupIdle is idle over every member of the group of the block at a: the
// conservative gate of a monitored copy read, which may turn into an
// in-place repair that reads any of them.
func (s *Server) groupIdle(a layout.BlockAddr) bool {
	g := &s.scratch.g
	s.lay.GroupAt(a, g)
	return s.idle(g.DataAddr...) && s.idle(g.Parity) && (!g.HasQ || s.idle(g.Q))
}

// unreadable surveys the group for free (blockReadable consults no
// disk), appending to missing the repair target t, erased by definition,
// followed by every other member that cannot currently produce its
// bytes. Append-style so a repair can survey from a stack buffer.
func (s *Server) unreadable(g *layout.Group, t int, missing []int) []int {
	missing = append(missing, t)
	for idx := 0; idx < len(g.Data)+parityCols(g); idx++ {
		if idx != t && !s.blockReadable(memberAddr(g, idx)) {
			missing = append(missing, idx)
		}
	}
	return missing
}

// pqBalance spreads lone data-erasure repairs across the two parity
// columns of a P+Q group: either column closes the erasure with the same
// number of reads, so when the P disk is the more loaded of the two, P
// is declared erased as well (a synthetic erasure) and the repair routes
// through Q. Returns the index of the synthetic erasure (-1 when none)
// so a later read failure can revoke it — the synthetically-erased
// column is still physically readable.
func (s *Server) pqBalance(g *layout.Group, missing []int) ([]int, int) {
	nd := len(g.Data)
	if !g.HasQ || len(missing) != 1 || missing[0] >= nd {
		return missing, -1
	}
	if s.engine.Load(g.Parity.Disk) > s.engine.Load(g.Q.Disk) {
		return append(missing, nd), nd
	}
	return missing, -1
}

// planReads lists, ascending, the members a solve of this erasure set
// still has to read: every present member not read yet, except that a
// lone erasure in a P+Q group is closed by one parity column alone — Q
// is skipped unless the erasure IS Q (then the data members suffice and
// P is skipped). The plan is appended to need; a nil read is none read.
func planReads(g *layout.Group, missing []int, read []bool, need []int) []int {
	nd := len(g.Data)
	skip := -1
	if g.HasQ && len(missing) == 1 {
		skip = nd + 1
		if missing[0] == skip {
			skip = nd
		}
	}
	for idx := range nd + parityCols(g) {
		if idx != skip && (read == nil || !read[idx]) && !slices.Contains(missing, idx) {
			need = append(need, idx)
		}
	}
	return need
}

// errRepairStalled is a repair's idle-gated refusal: a disk the plan
// must read has no slot left under q this round. Retry next round.
var errRepairStalled = errors.New("core: repair stalled: no idle capacity")

// repairMode says how a repair pays for its reads. The zero value is
// degraded service: charged to the round ledger and never refused —
// data must flow this round, and admission reserved the contingency
// bandwidth for it.
type repairMode struct {
	// idle refuses the repair with errRepairStalled unless every disk it
	// must read has an idle slot: background work (rebuild, scrub) never
	// intrudes on the round budget.
	idle bool
	// ledger, when set, counts every charged read besides the round
	// ledger (the rebuild's repair-rate ledger).
	ledger *int64
	// offRound marks operator repair between rounds: its reads are not
	// round traffic and are charged nowhere.
	offRound bool
	// probe gives solve's reads no buffers, so each is a
	// storage.Array.Probe (memberReader): no bytes, no checksum. The
	// rebuild's plan probes; its pool pass verifies the bytes (rebuild.go).
	probe bool
}

// repairScratch is what one repair needs besides block buffers. The
// server keeps one (Server.scratch), which no two holders need at once:
// a detector declaration inside repairAt's reads runs pool items, which
// carry their own, and then starts a rebuild, which takes none.
type repairScratch struct {
	g    layout.Group
	bufs [][]byte
	read []bool
	need []int
}

// repairAt recovers the block at address a, whichever member of its group
// that is, from the other members: solve, then recovery.RecoverPQ. The
// recovered block comes from the block pool; the caller owns it. Errors:
// errRepairStalled, or one wrapping recovery.ErrUnrecoverable (raised from
// the survey with zero charges, or the moment a late read failure exceeds
// the columns).
func (s *Server) repairAt(a layout.BlockAddr, mode repairMode) ([]byte, error) {
	sc := &s.scratch
	g := &sc.g
	t := s.lay.GroupAt(a, g)
	var scratch [4]int
	missing, err := s.solve(sc, t, scratch[:0], mode)
	if nd := len(g.Data); err == nil {
		err = recovery.RecoverPQ(sc.bufs[:nd], sc.bufs[nd], sc.bufs[nd+1], missing)
	}
	var out []byte
	for idx, b := range sc.bufs {
		if idx == t && err == nil {
			out = b
		} else if b != nil {
			s.putBlock(b)
		}
	}
	clear(sc.bufs)
	return out, err
}

// errLost reports a group with more members unavailable than its parity
// columns cover.
func errLost(g *layout.Group, missing int) error {
	return fmt.Errorf("%w: %d members of the group of block %d unavailable, parity covers %d",
		recovery.ErrUnrecoverable, missing, g.Data[0], parityCols(g))
}

// solve is a repair of member t of sc.g up to its bytes: survey which
// members are readable, plan the reads the erasures need, (in idle mode)
// refuse before the first charge if a planned disk is out of idle
// capacity, then charge each disk as it is read through the failure
// detector into its block of sc.bufs (none in probe mode), marking sc.read.
// A read that fails is one more erasure: the plan is redrawn with it —
// revoking a synthetic erasure, pulling in the parity column a lone-erasure
// plan had skipped — as long as the parity columns still cover the count.
// It returns the erasures, t first, that RecoverPQ is to close.
func (s *Server) solve(sc *repairScratch, t int, missing []int, mode repairMode) ([]int, error) {
	g := &sc.g
	nd, cols := len(g.Data), parityCols(g)
	// bufs follows the member numbering; without a Q column bufs[nd+1]
	// stays nil, which is RecoverPQ's single-parity form.
	sc.bufs = slices.Grow(sc.bufs[:0], nd+2)[:nd+2] // all nil: cleared on release
	sc.read = slices.Grow(sc.read[:0], nd+cols)[:nd+cols]
	clear(sc.read)
	if missing = s.unreadable(g, t, missing); len(missing) > cols {
		return missing, errLost(g, len(missing))
	}
	for idx := 0; idx < nd+cols && !mode.probe; idx++ {
		sc.bufs[idx] = s.getBlock()
	}
	missing, synth := s.pqBalance(g, missing)
	for replan := true; replan; {
		replan = false
		sc.need = planReads(g, missing, sc.read, sc.need[:0])
		if mode.idle {
			for _, idx := range sc.need {
				if !s.idle(memberAddr(g, idx)) {
					return missing, errRepairStalled
				}
			}
		}
		for _, idx := range sc.need {
			a := memberAddr(g, idx)
			if !mode.offRound {
				s.charge(a.Disk)
				if mode.ledger != nil {
					*mode.ledger++
				}
			}
			sc.read[idx] = true
			if s.readMemberInto(a, sc.bufs[idx]) == nil {
				continue
			}
			if synth >= 0 {
				missing = slices.DeleteFunc(missing, func(m int) bool { return m == synth })
				synth = -1
			}
			if missing = append(missing, idx); len(missing) > cols {
				return missing, errLost(g, len(missing))
			}
			replan = true
			break
		}
	}
	return missing, nil
}

// repairInPlace recovers the block at a, whose direct read failed with
// cause — a latent bad block, a checksum mismatch, or a block not yet
// rebuilt onto its spare — rewrites it where it lives (which re-records
// its checksum) and books the repair under the cause's counter. A stalled
// repair books nothing, so its retry is not counted twice. The
// recovered block is returned even when the rewrite is refused: the
// bytes are good, only the medium is not.
func (s *Server) repairInPlace(a layout.BlockAddr, cause error, mode repairMode) ([]byte, error) {
	data, err := s.repairAt(a, mode)
	if err == errRepairStalled {
		return nil, err
	}
	rot := errors.Is(cause, storage.ErrCorruptBlock)
	if rot {
		// The detector has already scored the observation toward the
		// disk's corruption threshold.
		s.stats.CorruptionsDetected++
	}
	if err != nil {
		return nil, err
	}
	if s.store.Array.Write(a.Disk, a.Block, data) != nil {
		return data, nil
	}
	switch {
	case rot:
		s.stats.CorruptionRepairs++
	case errors.Is(cause, storage.ErrBadBlock):
		// Sector remap: the rewrite lands on a good sector.
		if s.injector != nil {
			s.injector.ClearBadBlock(a.Disk, a.Block)
		}
		s.stats.BadBlockRepairs++
	}
	return data, nil
}
