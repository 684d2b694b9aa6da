package cluster

import (
	"errors"
	"io"

	"ftcms/internal/core"
)

// Stream is one cluster playback. It wraps the core stream of whichever
// node currently serves it and survives node failures transparently when
// the clip is replicated: after a failover the reader continues at the
// exact byte where it left off. Like core.Stream it implements io.Reader
// and returns core.ErrNoData while the next block is still in flight —
// including the window where the stream is parked awaiting failover
// re-admission.
type Stream struct {
	c    *Cluster
	id   int
	clip string
	size int64

	// node and st name the serving array; st is nil while the stream is
	// parked between a node failure and a successful failover.
	node int
	st   *core.Stream
	// lost is core's error when the serving node's array lost the stream
	// while the node stayed up; nil after a node loss or a failover.
	lost error

	// offset counts bytes handed to the reader; a failover or drain move
	// reopens the clip at exactly this byte (core.Server.OpenStreamAt).
	offset int64

	err    error
	closed bool
	// idx is the stream's index in Cluster.streams, −1 once it left.
	idx int
}

// Close abandons the stream and releases its node resources.
func (st *Stream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	if st.st != nil {
		st.st.Close()
		st.st = nil
	}
	st.c.unregister(st)
	return nil
}

// Read implements io.Reader over the clip bytes, transparently resuming
// across node failovers. It returns core.ErrNoData when the next block
// is not deliverable yet, io.EOF after the whole clip, and an error
// wrapping core.ErrStreamLost when no replica could keep the stream
// alive.
func (st *Stream) Read(p []byte) (int, error) {
	if st.closed {
		return 0, io.ErrClosedPipe
	}
	if st.err != nil {
		return 0, st.err
	}
	if st.offset >= st.size {
		st.c.finish(st)
		return 0, io.EOF
	}
	if st.st == nil {
		return 0, core.ErrNoData // parked awaiting failover
	}
	n, err := st.st.Read(p)
	st.offset += int64(n)
	switch {
	case err == nil:
		return n, nil
	case errors.Is(err, core.ErrNoData):
		if n > 0 {
			return n, nil
		}
		return 0, core.ErrNoData
	case errors.Is(err, io.EOF):
		st.c.finish(st)
		return n, io.EOF
	case errors.Is(err, core.ErrStreamLost):
		// The serving node hit an unrecoverable parity group (second
		// disk failure inside the array). Treat it like a node loss for
		// this stream: another replica may still hold intact parity.
		st.lostNode(err)
		if st.err != nil {
			return n, st.err
		}
		return n, core.ErrNoData
	default:
		return n, err
	}
}

// lostNode handles a stream loss inside the serving node's array,
// discovered mid-read: drop the dead core stream, keep core's reason and
// run the ordinary failover path (which may park the stream or terminate
// it with an error wrapping that reason).
func (st *Stream) lostNode(err error) {
	if st.st != nil {
		st.st.Close()
		st.st = nil
	}
	st.lost = err
	st.c.failover(st)
}
