package host

import (
	"fmt"
	"net"
	"time"

	"sdsm/internal/obs"
	"sdsm/internal/wire"
)

// Link is one framed connection, the part of a socket deployment that
// knows nothing about ranks: the connection, a read-ahead frame reader
// (whose pooled buffer goes back to the pool when the stream ends), and
// an unbounded outbound FrameQueue — a sender never blocks on a full
// socket buffer, so a peer that stops draining parks only the queue's
// writer goroutine, never the caller. A rank's Endpoint is a Link plus the
// mailbox sends; svc's client, coordinator and pool-daemon connections
// are bare Links (DESIGN.md §3).
//
// One goroutine reads a Link; any number may Write. Write errors are the
// queue's latched write error.
type Link struct {
	conn net.Conn
	fr   *wire.FrameReader
	q    *FrameQueue
}

// NewLink frames c and starts its outbound queue. Inbound frames are
// decoded into ar, or into the reader's own arena when ar is nil
// (wire.NewFrameReaderOn). onErr (optional) is the queue's: called once,
// from its writer goroutine, when a write first fails.
func NewLink(c net.Conn, ar *wire.Arena, onErr func(error)) *Link {
	return &Link{conn: c, fr: wire.NewFrameReaderOn(c, ar), q: NewFrameQueue(c, onErr)}
}

// SetObs attaches frame/flush counters to the outbound queue
// (observability only).
func (l *Link) SetObs(frames, flushes *obs.Counter) { l.q.SetObs(frames, flushes) }

// ReadInto reads and decodes the next inbound frame into *f (see
// wire.FrameReader.ReadInto).
func (l *Link) ReadInto(f *wire.Frame) error { return l.fr.ReadInto(f) }

// ReadHandshake is ReadInto under the handshake deadline, for the first
// frame of a conversation the peer must open: a switch that accepted but
// never configures its rank, or a connection a coordinator accepted that
// never says what it is, surfaces as a clear timeout, not a silent hang.
func (l *Link) ReadHandshake(f *wire.Frame) error {
	l.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	err := l.fr.ReadInto(f)
	l.conn.SetReadDeadline(time.Time{})
	if err != nil {
		return fmt.Errorf("host: handshake: awaiting the peer's first frame (deadline %v): %w", handshakeTimeout, err)
	}
	return nil
}

// Write encodes f into pooled storage and hands it to the outbound queue
// (which writes it inline when idle and recycles the buffer after the
// write).
func (l *Link) Write(f *wire.Frame) error {
	raw, err := wire.AppendFrame(wire.GetBuf(), f)
	if err != nil {
		wire.PutBuf(raw)
		return err
	}
	return l.q.Enqueue(raw)
}

// Flush blocks until every frame written so far has been handed to the
// connection, or returns the latched write error.
func (l *Link) Flush() error { return l.q.Flush() }

// Close severs the link: the connection closes first, so a peer that
// stopped reading cannot hold the close, then the queue stops. Frames
// still queued are dropped — Flush first for a clean end — and the
// returned error, the queue's latched one, counts them.
func (l *Link) Close() error {
	l.conn.Close()
	return l.q.Close()
}
