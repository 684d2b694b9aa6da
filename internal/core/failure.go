package core

import (
	"errors"
	"fmt"
	"slices"

	"ftcms/internal/layout"
	"ftcms/internal/storage"
)

// This file implements the failure lifecycle the paper assumes an
// operator performs by hand: detect → degrade → rebuild → rejoin.
//
//   - Detection: every physical read in the streaming path goes through
//     the health detector (a bounded count of retries). k consecutive hard
//     errors or timeouts on a disk declare it failed — the array is
//     fail-stopped and the server flips to degraded mode with no
//     operator command.
//   - Degrade: blocks of the failed disk are served by parity
//     reconstruction, exactly as before; latent bad blocks on healthy
//     disks are reconstructed per-block and rewritten (sector remap).
//   - Rebuild: when a hot spare is available, the failed disk is
//     replaced and rebuilt online, byte-accurately, consuming only the
//     idle block-read capacity each round leaves after stream service.
//   - Rejoin: when every block is back, the spare is promoted to
//     healthy and detection state clears.
//   - Beyond tolerance: nothing is enumerated when the failure lands. A
//     stream learns of a group with more unreadable members than parity
//     columns at the read that needs it, and ends there with an explicit
//     reason naming the block. Every other stream keeps its rate
//     guarantee.

// Mode is the server's failure-lifecycle state.
type Mode string

// Server modes.
const (
	// ModeHealthy: all disks serving.
	ModeHealthy Mode = "healthy"
	// ModeRebuilding: no failed disk, but a spare is still being
	// refilled (reads of unrebuilt blocks reconstruct on the fly).
	ModeRebuilding Mode = "rebuilding"
	// ModeDegraded: at least one disk is failed (a rebuild may also be
	// running).
	ModeDegraded Mode = "degraded"
)

// ErrStreamLost is wrapped into the explicit error a stream ends with
// when it reads a block that failures beyond the scheme's tolerance made
// unrecoverable.
var ErrStreamLost = errors.New("core: stream lost to unrecoverable parity group")

// Mode returns the server's current failure-lifecycle mode.
func (s *Server) Mode() Mode {
	if len(s.store.Array.FailedDisks()) > 0 {
		return ModeDegraded
	}
	for i := 0; i < s.cfg.D; i++ {
		if s.store.Array.State(i) == storage.Rebuilding {
			return ModeRebuilding
		}
	}
	return ModeHealthy
}

// onDiskFailed runs once per disk failure — whether declared by the
// detector or injected by the operator FailDisk command. The array's
// fail-stop flag is already set. It starts (or queues) an online rebuild
// if a hot spare is available; it looks at no stream and no block, so it
// costs the same at any failure count.
func (s *Server) onDiskFailed(disk int) {
	s.stats.DetectedFailures++
	if s.failRound[disk] < 0 {
		s.failRound[disk] = s.engine.Round()
	}
	// A failure of the disk currently being rebuilt kills the spare:
	// abandon the rebuild (a further spare, if any, restarts it).
	s.dropRebuild(disk)
	if s.stats.SparesLeft > 0 {
		if len(s.rebuilds) < s.erasures {
			s.startRebuild(disk)
		} else {
			s.rebuildQueue = append(s.rebuildQueue, disk)
		}
	}
}

// dropRebuild abandons the in-flight rebuild of disk, if any.
func (s *Server) dropRebuild(disk int) {
	for j, rb := range s.rebuilds {
		if rb.disk == disk {
			s.rebuilds = append(s.rebuilds[:j], s.rebuilds[j+1:]...)
			return
		}
	}
}

// failDeclared is the health detector's OnFail callback: fail-stop the
// disk in the array, then run the common failure path.
func (s *Server) failDeclared(disk int) {
	s.feed.Wait() // the round's pool reads the array this changes
	_ = s.store.Array.Fail(disk)
	s.onDiskFailed(disk)
}

// startRebuild consumes a hot spare and begins the online rebuild of a
// failed disk.
func (s *Server) startRebuild(disk int) {
	if err := s.store.Array.Replace(disk); err != nil {
		return // not failed (already repaired) — nothing to rebuild
	}
	s.stats.SparesLeft--
	// The spare is new hardware: the failed device's scripted faults do
	// not carry over (a fresh fault event can still target the slot).
	if s.injector != nil {
		s.injector.ClearDisk(disk)
	}
	s.rebuilds = append(s.rebuilds, &rebuildState{disk: disk, queue: slices.Clone(s.store.Held(disk))})
}

// recordRebuildDone closes the detect→rejoin latency clock for a disk
// whose rebuild completed, feeding the time-to-rebuild histogram.
func (s *Server) recordRebuildDone(disk int) {
	if start := s.failRound[disk]; start >= 0 {
		s.stats.RebuildLatencies = append(s.stats.RebuildLatencies, s.engine.Round()-start)
		s.failRound[disk] = -1
	}
}

// nextRebuild starts queued rebuilds while slots and spares remain.
func (s *Server) nextRebuild() {
	for len(s.rebuilds) < s.erasures && len(s.rebuildQueue) > 0 && s.stats.SparesLeft > 0 {
		disk := s.rebuildQueue[0]
		s.rebuildQueue = s.rebuildQueue[1:]
		if s.store.Array.Failed(disk) {
			s.startRebuild(disk)
		}
	}
}

// readMonitored reads one data block through the failure detector:
// bounded retry, per-block reconstruction for latent bad
// blocks (with rewrite — the sector-remap model) and for blocks not yet
// rebuilt onto a spare (which are opportunistically installed). A clean
// read lends the stored bytes (copies them into dst, if given); only a
// repaired block is owned. It returns an error satisfying
// errors.Is(err, storage.ErrFailed) when the disk is truly unresponsive.
func (s *Server) readMonitored(addr layout.BlockAddr, dst []byte) (chunk, error) {
	arr := s.store.Array
	data, err := s.detector.Read(arr, addr.Disk, addr.Block, dst)
	if err == nil {
		return chunk{buf: data}, nil
	}
	if errors.Is(err, storage.ErrBadBlock) || errors.Is(err, storage.ErrCorruptBlock) ||
		errors.Is(err, storage.ErrNotWritten) && arr.State(addr.Disk) == storage.Rebuilding {
		// The disk answered, the block did not: serve the true contents
		// from the parity group — contingency bandwidth, same accounting
		// as a failed-disk read — and rewrite them in place.
		data, err = s.repairInPlace(addr, err, repairMode{})
		return chunk{data, true}, err
	}
	return chunk{}, err
}

// readMemberInto copies one surviving parity-group member through the
// detector into a caller-owned buffer, preserving the short-group
// convention: an absent block on a healthy disk is zeroes. Absent blocks
// on a rebuilding disk stay errors — they have real, unrebuilt contents.
// With no buffer it probes, as the rebuild's plan reads: the detector,
// hook and presence as ever, but no bytes.
func (s *Server) readMemberInto(a layout.BlockAddr, dst []byte) error {
	arr := s.store.Array
	if arr.Failed(a.Disk) {
		return fmt.Errorf("storage: disk %d: %w", a.Disk, storage.ErrFailed)
	}
	err := s.detector.ReadInto(memberReader{arr}, a.Disk, a.Block, dst)
	if errors.Is(err, storage.ErrNotWritten) && arr.State(a.Disk) == storage.Healthy {
		clear(dst)
		return nil
	}
	return err
}

// memberReader is the array as readMemberInto reads it: a copy into the
// caller's buffer, or with none (the detector's loan) a Probe.
type memberReader struct{ *storage.Array }

func (r memberReader) Lend(disk int, block int64) ([]byte, float64, error) {
	slow, err := r.Probe(disk, block)
	return nil, slow, err
}

// blockReadable reports whether the physical block at a can currently
// produce its bytes directly (without reconstruction).
func (s *Server) blockReadable(a layout.BlockAddr) bool {
	switch s.store.Array.State(a.Disk) {
	case storage.Failed:
		return false
	case storage.Rebuilding:
		return s.store.Array.Written(a.Disk, a.Block)
	}
	return true
}

// terminate ends one playing stream with an explicit reason: resources
// release, the stream's reader drains what was already delivered and
// then receives the reason instead of io.EOF.
func (s *Server) terminate(st *Stream, reason error) {
	st.termErr, st.done = reason, true
	s.stats.Terminated++
	st.recyclePipeline()
	s.release(st)
}
