package core

import (
	"errors"
	"fmt"
)

// This file is the node-side surface of online clip migration: the
// cluster tier re-replicates a clip (drain/join repair traffic) by
// reading blocks off a source node and importing them into a
// destination node, one block at a time, strictly on idle round
// capacity. Both directions follow the rebuild/scrub idiom — a call
// proceeds only when every disk it must touch still has charges left
// under q this round, and otherwise stalls (returns false) so the
// caller retries next round. Every physical read is charged to the
// round ledger and counted on the migration ledger, which makes the
// budget audit (sched.Engine.Overflows) cover migration exactly as it
// covers streams, rebuild and scrub.

// importState tracks one in-flight clip import on the destination node.
type importState struct {
	ci clipInfo
	// dataBlocks is how many blocks carry real payload; the remaining
	// ci.blocks − dataBlocks are prefetch padding, zero-filled at commit.
	dataBlocks int64
	// written is the count of data blocks imported so far; imports are
	// strictly sequential (block n requires written == n).
	written int64
	// padNext is the commit sweep's cursor through the padding blocks.
	padNext int64
}

// BeginClipImport reserves store space for a clip of the given payload
// size whose bytes will arrive incrementally via ImportClipBlockIdle.
// The clip stays invisible (not openable, not listed) until
// CommitClipImport publishes it.
func (s *Server) BeginClipImport(name string, size int64) error {
	if _, dup := s.clips[name]; dup {
		return fmt.Errorf("core: clip %q already stored", name)
	}
	if _, dup := s.imports[name]; dup {
		return fmt.Errorf("core: clip %q import already in flight", name)
	}
	if size <= 0 {
		return errors.New("core: empty clip")
	}
	if s.relayout != nil {
		return errors.New("core: re-layout in progress; retry after it completes")
	}
	ci, err := s.allocClip(size)
	if err != nil {
		return err
	}
	bs := int64(s.cfg.Block.Bytes())
	im := &importState{ci: ci, dataBlocks: (size + bs - 1) / bs}
	im.padNext = im.dataBlocks
	s.imports[name] = im
	return nil
}

// ImportClipBlockIdle writes the n-th data block of an in-flight import,
// if this round's idle capacity allows. Blocks must arrive in order (n
// equals the count written so far). It returns (false, nil) when some
// disk the write's parity maintenance must read has no idle slot left —
// the caller retries on a later round — and (true, nil) on success.
func (s *Server) ImportClipBlockIdle(name string, n int64, data []byte) (bool, error) {
	im, ok := s.imports[name]
	if !ok {
		return false, fmt.Errorf("core: no import in flight for clip %q", name)
	}
	if n != im.written {
		return false, fmt.Errorf("core: import %q block %d out of order (next is %d)", name, n, im.written)
	}
	if n >= im.dataBlocks {
		return false, fmt.Errorf("core: import %q block %d beyond payload (%d blocks)", name, n, im.dataBlocks)
	}
	if len(data) != s.store.Array.BlockSize() {
		return false, fmt.Errorf("core: import %q block %d: %d bytes, want %d", name, n, len(data), s.store.Array.BlockSize())
	}
	ok, err := s.writeBlockIdle(im.ci.block(n), data)
	if !ok || err != nil {
		return false, err
	}
	im.written++
	return true, nil
}

// writeBlockIdle writes one logical block on idle capacity. It books a
// slot on every data member's disk of the block's group (the write waits
// until each has one), one more than the store's parity maintenance
// reads, which keeps migration's pace. The write re-records the checksum.
func (s *Server) writeBlockIdle(i int64, data []byte) (bool, error) {
	g := &s.scratch.g
	s.lay.GroupAt(s.lay.Place(i), g)
	if !s.idle(g.DataAddr...) {
		return false, nil // out of idle capacity; retry next round
	}
	for _, a := range g.DataAddr {
		s.charge(a.Disk)
		s.stats.MigrateReads++
	}
	if err := s.store.WriteBlock(i, data); err != nil {
		return false, err
	}
	return true, nil
}

// CommitClipImport publishes a fully imported clip. The prefetch-padding
// tail (if the scheme has one) is zero-filled first, on idle capacity;
// done=false means the commit ran out of idle slots mid-sweep and must
// be retried next round — progress is kept. Once done, the clip is
// visible to OpenStream exactly like an AddClip'd one.
func (s *Server) CommitClipImport(name string) (done bool, err error) {
	im, ok := s.imports[name]
	if !ok {
		return false, fmt.Errorf("core: no import in flight for clip %q", name)
	}
	if im.written < im.dataBlocks {
		return false, fmt.Errorf("core: import %q incomplete: %d/%d blocks", name, im.written, im.dataBlocks)
	}
	for im.padNext < im.ci.blocks {
		ok, werr := s.writeBlockIdle(im.ci.block(im.padNext), nil) // a zero block
		if werr != nil {
			return false, werr
		}
		if !ok {
			return false, nil // retry next round
		}
		im.padNext++
	}
	s.clips[name] = im.ci
	delete(s.imports, name)
	return true, nil
}

// AbortClipImport abandons an in-flight import. When the import holds
// the most recent allocation its blocks are reclaimed; otherwise they
// are leaked until restart (allocation is a cursor, not a free list) —
// acceptable for the rare abort-under-churn case, and the leak is
// bounded by one clip. Leaked blocks already written stay stored like a
// clip's: a rebuild restores them and an AddDisk re-layout copies them.
func (s *Server) AbortClipImport(name string) error {
	im, ok := s.imports[name]
	if !ok {
		return fmt.Errorf("core: no import in flight for clip %q", name)
	}
	delete(s.imports, name)
	ci := im.ci
	if ci.stride == 1 {
		if s.nextFree == ci.start+ci.blocks {
			s.nextFree = ci.start
		}
		return nil
	}
	// Dynamic scheme: roll the row cursor back when still on top.
	r := ci.stride
	row := ci.start % r
	base := ci.start / r
	if int(row) < len(s.nextFreeRow) && s.nextFreeRow[row] == base+ci.blocks {
		s.nextFreeRow[row] = base
	}
	return nil
}

// ReadClipBlockIdleInto reads the n-th data block of a stored clip into
// dst on idle capacity — the source side of clip migration. The gate is
// conservative: the block's whole parity group must have idle slots, so
// that a latent bad block or checksum mismatch discovered by the read
// can be repaired in place (the normal monitored-read path) without
// overdrawing any disk. It returns (false, nil) when capacity is
// lacking this round.
func (s *Server) ReadClipBlockIdleInto(name string, n int64, dst []byte) (bool, error) {
	ci, ok := s.clips[name]
	if !ok {
		return false, fmt.Errorf("core: unknown clip %q", name)
	}
	bs := int64(s.store.Array.BlockSize())
	if n < 0 || n*bs >= ci.size {
		return false, fmt.Errorf("core: clip %q block %d outside payload", name, n)
	}
	if int64(len(dst)) != bs {
		return false, fmt.Errorf("core: clip %q block %d: dst %d bytes, want %d", name, n, len(dst), bs)
	}
	addr := s.lay.Place(ci.block(n))
	if !s.groupIdle(addr) {
		return false, nil
	}
	s.charge(addr.Disk)
	s.stats.MigrateReads++
	c, err := s.readMonitored(addr, dst) // a copy read: the block stays unmarked
	if err != nil {
		return false, err
	}
	copy(dst, c.buf) // a no-op unless the block was repaired into a freelist buffer
	s.recycle(c)
	return true, nil
}

// ClipDataBlocks returns how many blocks of a stored clip carry real
// payload (the migration copy set), or -1 for an unknown clip.
func (s *Server) ClipDataBlocks(name string) int64 {
	ci, ok := s.clips[name]
	if !ok {
		return -1
	}
	bs := int64(s.cfg.Block.Bytes())
	return (ci.size + bs - 1) / bs
}

// Budget returns the per-disk round budget q.
func (s *Server) Budget() int { return s.cfg.Q }
