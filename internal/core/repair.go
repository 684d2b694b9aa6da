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
// repairMember. Single parity is the P+Q case without a Q column: the
// same survey, plan and solve with one erasure fewer to spend.
//
// Members are numbered as recovery.RecoverPQ numbers them: data blocks
// 0..nd-1 in group order, P at nd, and Q at nd+1 when the group has one.

// parityCols is the number of parity columns the group carries, which is
// also the number of erasures it can close.
func parityCols(g layout.Group) int {
	if g.HasQ {
		return 2
	}
	return 1
}

// memberAddr returns the address of group member idx.
func memberAddr(g layout.Group, idx int) layout.BlockAddr {
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

// groupMember names one stored member of a parity group: the queue entry
// of rebuilds and scrub sweeps.
type groupMember struct {
	// logical is a data block of the group — the member itself for data
	// members, a representative for P and Q (the group, and with it
	// every member address, is recovered via GroupOf).
	logical int64
	idx     int
	addr    layout.BlockAddr
}

// storedBlocks calls fn with the logical index of every stored clip
// block, clips in sorted-name order, until fn returns false. The clip map
// iterates in random order; everything derived from this walk (rebuild
// and scrub queue entries, the representative recorded for each parity
// block) must replay run to run.
func (s *Server) storedBlocks(fn func(i int64) bool) {
	for _, name := range s.Clips() {
		ci := s.clips[name]
		for n := int64(0); n < ci.blocks; n++ {
			if !fn(ci.block(n)) {
				return
			}
		}
	}
}

// storedMembers calls fn once per distinct stored group member: every
// clip data block, plus one entry per P and per Q block (not one per
// group member), represented by the first data member the walk meets.
func (s *Server) storedMembers(fn func(m groupMember)) {
	seen := make(map[layout.BlockAddr]bool)
	s.storedBlocks(func(i int64) bool {
		g := s.lay.GroupOf(i)
		nd, x := len(g.Data), slices.Index(g.Data, i)
		fn(groupMember{logical: i, idx: x, addr: g.DataAddr[x]})
		for idx := nd; idx < nd+parityCols(g); idx++ {
			if a := memberAddr(g, idx); !seen[a] {
				seen[a] = true
				fn(groupMember{logical: i, idx: idx, addr: a})
			}
		}
		return true
	})
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

// groupIdle is idle over every member of the group: the conservative
// gate of a monitored copy read, which may turn into an in-place repair
// that reads any of them.
func (s *Server) groupIdle(g layout.Group) bool {
	return s.idle(g.DataAddr...) && s.idle(g.Parity) && (!g.HasQ || s.idle(g.Q))
}

// unreadable surveys the group for free (blockReadable consults no
// disk), appending to missing the repair target t, erased by definition,
// followed by every other member that cannot currently produce its
// bytes. Append-style so the failure handler's sweep over every stream's
// remaining blocks can survey from a stack buffer.
func (s *Server) unreadable(g layout.Group, t int, missing []int) []int {
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
func (s *Server) pqBalance(g layout.Group, missing []int) ([]int, int) {
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
// P is skipped).
func planReads(g layout.Group, missing []int, read []bool) []int {
	nd := len(g.Data)
	skip := -1
	if g.HasQ && len(missing) == 1 {
		skip = nd + 1
		if missing[0] == skip {
			skip = nd
		}
	}
	var need []int
	for idx := range read {
		if idx != skip && !read[idx] && !slices.Contains(missing, idx) {
			need = append(need, idx)
		}
	}
	return need
}

// errRepairStalled is repairMember's idle-gated refusal: a disk the plan
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
}

// repairMember recovers member t of group g from the other members:
// survey which are readable, plan the reads the erasure count needs,
// (in idle mode) refuse before the first charge if a planned disk is
// out of idle capacity, then charge each disk as it is read through the
// failure detector and hand the group to recovery.RecoverPQ. A read that
// fails after the survey is one more erasure: the plan is redrawn with
// it — revoking a synthetic erasure, pulling in the parity column a
// lone-erasure plan had skipped — as long as the parity columns still
// cover the count. The recovered block comes from the block pool; the
// caller owns it. Errors: errRepairStalled, or one wrapping
// recovery.ErrUnrecoverable (raised from the survey with zero charges,
// or the moment a late read failure exceeds the columns).
func (s *Server) repairMember(g layout.Group, t int, mode repairMode) (out []byte, err error) {
	nd, cols := len(g.Data), parityCols(g)
	lost := func(missing []int) error {
		return fmt.Errorf("%w: %d members of the group of block %d unavailable, parity covers %d",
			recovery.ErrUnrecoverable, len(missing), g.Data[0], cols)
	}
	var scratch [4]int
	missing := s.unreadable(g, t, scratch[:0])
	if len(missing) > cols {
		return nil, lost(missing)
	}
	missing, synth := s.pqBalance(g, missing)

	// bufs follows the member numbering; without a Q column bufs[nd+1]
	// stays nil, which is RecoverPQ's single-parity form.
	bufs := make([][]byte, nd+2)
	for idx := 0; idx < nd+cols; idx++ {
		bufs[idx] = s.getBlock()
	}
	defer func() {
		for idx, b := range bufs[:nd+cols] {
			if idx != t || err != nil {
				s.putBlock(b)
			}
		}
	}()
	read := make([]bool, nd+cols)
	for replan := true; replan; {
		replan = false
		need := planReads(g, missing, read)
		if mode.idle {
			for _, idx := range need {
				if !s.idle(memberAddr(g, idx)) {
					return nil, errRepairStalled
				}
			}
		}
		for _, idx := range need {
			a := memberAddr(g, idx)
			if !mode.offRound {
				s.charge(a.Disk)
				if mode.ledger != nil {
					*mode.ledger++
				}
			}
			read[idx] = true
			if s.readMemberInto(a, bufs[idx]) == nil {
				continue
			}
			if synth >= 0 {
				missing = slices.DeleteFunc(missing, func(m int) bool { return m == synth })
				synth = -1
			}
			if missing = append(missing, idx); len(missing) > cols {
				return nil, lost(missing)
			}
			replan = true
			break
		}
	}
	if err := recovery.RecoverPQ(bufs[:nd], bufs[nd], bufs[nd+1], missing); err != nil {
		return nil, err
	}
	return bufs[t], nil
}

// repairInPlace recovers member m, whose direct read failed with cause —
// a latent bad block, a checksum mismatch, or a block not yet rebuilt
// onto its spare — rewrites it where it lives (which re-records its
// checksum) and books the repair under the cause's counter. A stalled
// repair books nothing, so its retry is not counted twice. The
// recovered block is returned even when the rewrite is refused: the
// bytes are good, only the medium is not.
func (s *Server) repairInPlace(g layout.Group, m groupMember, cause error, mode repairMode) ([]byte, error) {
	data, err := s.repairMember(g, m.idx, mode)
	if err == errRepairStalled {
		return nil, err
	}
	rot := errors.Is(cause, storage.ErrCorruptBlock)
	if rot {
		// The detector has already scored the observation toward the
		// disk's corruption threshold.
		s.corruptionsDetected++
	}
	if err != nil {
		return nil, err
	}
	if s.store.Array.Write(m.addr.Disk, m.addr.Block, data) != nil {
		return data, nil
	}
	switch {
	case rot:
		s.corruptionRepairs++
	case errors.Is(cause, storage.ErrBadBlock):
		// Sector remap: the rewrite lands on a good sector.
		if s.injector != nil {
			s.injector.ClearBadBlock(m.addr.Disk, m.addr.Block)
		}
		s.badBlockRepairs++
	default:
		// Installed on the spare ahead of the rebuild: free progress.
		s.rebuiltBlocks++
	}
	return data, nil
}

// reconstruct serves logical data block i from its parity group: the
// degraded read.
func (s *Server) reconstruct(i int64) ([]byte, error) {
	g := s.lay.GroupOf(i)
	return s.repairMember(g, slices.Index(g.Data, i), repairMode{})
}
