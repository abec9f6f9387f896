package host

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sdsm/internal/obs"
	"sdsm/internal/wire"
)

// Switch is the hub of the rank-routed wire stack: a loopback listener,
// one link per rank — the switch-side socket and its batched writer
// (FrameQueue) — and one router goroutine per rank that reads raw frames
// off the rank's socket and enqueues them, payload undecoded, on the
// destination rank's queue. Ranks join by address and identify
// themselves with a hello frame (Endpoint is the rank's side). Both
// socket deployments are configurations of it: Net hosts every rank's
// endpoint in-process, mpnet's coordinator spawns one OS process per rank
// (DESIGN.md §3).
//
// Lifecycle: NewSwitch listens; Pair accepts every rank's hello under the
// handshake deadline and creates all queues; Start launches the routers —
// in that order, because a router routes to arbitrary destinations'
// queues, so every queue must exist before any router runs. Repair
// replaces one rank's link after a loss; Close tears everything down.
//
// Link failures all surface in one place, the failed rank's own router:
// a read error there calls the LinkDown hook and ends that router. A
// failed write to a rank closes that rank's socket, which fails its
// router's read; the routers enqueuing to it never report the loss —
// frames dropped on a dead queue are the down handler's to make good
// (abort the machine, or re-pair and replay).
type Switch struct {
	n    int
	ln   net.Listener
	dir  string // temp dir holding the unix socket, "" for TCP
	tap  Tap
	down LinkDown

	links   []rankLink
	wg      sync.WaitGroup
	closing atomic.Bool

	frames, flushes *obs.Counter // SetObs; nil on untraced runs
}

// rankLink is the switch's state for one rank. Its mutex makes (tap, enqueue)
// atomic per destination and guards the socket/queue swap of a Repair: a
// frame routed concurrently with the destination's re-pairing lands
// either in the dead queue (dropped — the tap saw it first) or in the new
// queue after Repair's prime — never between primed frames.
type rankLink struct {
	mu   sync.Mutex
	conn net.Conn
	q    *FrameQueue
	// routed is closed when the router reading conn has exited; every
	// router is launched with a fresh one (launch).
	routed chan struct{}
}

// Tap, when non-nil, sees every routable frame before it is enqueued,
// under the destination link's lock, with the header fields the router
// already parsed. Returning false consumes the frame: it is recycled, not
// forwarded. Taps for one sending rank run on that rank's router only.
type Tap func(from int, raw []byte, kind byte, to, bytes int32) (forward bool)

// LinkDown is told that rank's link failed — its socket errored, closed,
// or carried an unroutable frame. It runs on the rank's router, which
// exits when it returns; a handler that re-pairs the rank (Repair) gets a
// fresh router on the new socket.
type LinkDown func(rank int, err error)

// handshakeTimeout bounds every step of a handshake — the switch's wait
// for a rank to connect, each hello read and write, and a rank's wait
// for its peer's first frame: a peer that never dials, connects and
// never speaks, or never drains fails the handshake with a clear error
// instead of hanging the machine. Sized for the slowest rank to join: a
// freshly spawned OS process on a loaded machine. A variable so tests can
// shorten it.
var handshakeTimeout = 30 * time.Second

// readHello reads one hello frame from a fresh connection under the
// handshake deadline and returns the sender's rank. The read is exact
// (wire.ReadFrame): a rank may send frames right behind its hello, and
// they belong to the router that starts reading the socket later.
func readHello(c net.Conn, n int) (int, error) {
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	f, err := wire.ReadFrame(c)
	c.SetReadDeadline(time.Time{})
	if err != nil {
		return 0, fmt.Errorf("host: handshake: reading hello: %w", err)
	}
	if f.Kind != wire.FHello || int(f.From) < 0 || int(f.From) >= n {
		return 0, fmt.Errorf("host: handshake: bad hello (kind %d from %d)", f.Kind, f.From)
	}
	return int(f.From), nil
}

// writeHello sends the hello frame under the handshake deadline.
func writeHello(c net.Conn, rank int) error {
	c.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	err := wire.WriteFrame(c, &wire.Frame{Kind: wire.FHello, From: int32(rank)})
	c.SetWriteDeadline(time.Time{})
	if err != nil {
		return fmt.Errorf("host: handshake: writing hello: %w", err)
	}
	return nil
}

// ListenLoopback opens the loopback listener the socket deployments
// share: a Unix socket in a private temp directory, falling back to TCP
// on 127.0.0.1. The returned dir (when non-empty) holds the socket file
// and is the caller's to remove.
func ListenLoopback() (net.Listener, string, error) {
	if dir, err := os.MkdirTemp("", "sdsm"); err == nil {
		if ln, err := net.Listen("unix", filepath.Join(dir, "switch.sock")); err == nil {
			return ln, dir, nil
		}
		os.RemoveAll(dir)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "", nil
}

// NewSwitch opens a loopback switch for n ranks. tap may be nil; down is
// required.
func NewSwitch(n int, tap Tap, down LinkDown) (*Switch, error) {
	ln, dir, err := ListenLoopback()
	if err != nil {
		return nil, fmt.Errorf("host: switch cannot listen: %w", err)
	}
	return &Switch{n: n, ln: ln, dir: dir, tap: tap, down: down, links: make([]rankLink, n)}, nil
}

// Addr is the address ranks dial.
func (sw *Switch) Addr() net.Addr { return sw.ln.Addr() }

// SetObs attaches frame/flush counters to every switch-side queue,
// present and future (observability only). Call after Pair.
func (sw *Switch) SetObs(frames, flushes *obs.Counter) {
	sw.frames, sw.flushes = frames, flushes
	for r := range sw.links {
		sw.links[r].q.SetObs(frames, flushes)
	}
}

// armAccept puts the handshake deadline on the listener: the accepts of
// one Pair or Repair share it, so ranks that never dial in fail the
// handshake instead of hanging it.
func (sw *Switch) armAccept() {
	if d, ok := sw.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Now().Add(handshakeTimeout))
	}
}

// acceptHello accepts one connection and reads its hello.
func (sw *Switch) acceptHello() (net.Conn, int, error) {
	c, err := sw.ln.Accept()
	if err != nil {
		return nil, 0, fmt.Errorf("host: handshake: accepting: %w", err)
	}
	rank, err := readHello(c, sw.n)
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	return c, rank, nil
}

// newQueue starts rank's switch-side writer on c. A failed write closes
// the socket so the loss surfaces at the rank's router (see Switch).
func (sw *Switch) newQueue(c net.Conn) *FrameQueue {
	q := NewFrameQueue(c, func(error) { c.Close() })
	q.SetObs(sw.frames, sw.flushes)
	return q
}

// Pair accepts connections until every rank has said hello exactly once,
// then creates every rank's queue.
func (sw *Switch) Pair() error {
	sw.armAccept()
	for i := 0; i < sw.n; i++ {
		c, rank, err := sw.acceptHello()
		if err != nil {
			return err
		}
		if sw.links[rank].conn != nil {
			c.Close()
			return fmt.Errorf("host: handshake: duplicate hello from rank %d", rank)
		}
		sw.links[rank].conn = c
	}
	for r := range sw.links {
		sw.links[r].q = sw.newQueue(sw.links[r].conn)
	}
	return nil
}

// Start launches one router per rank. Call after Pair.
func (sw *Switch) Start() {
	for r := range sw.links {
		sw.launch(r)
	}
}

// launch starts rank r's router on the link's current socket. The caller
// holds the link's lock, or is Start, which runs before any router does.
func (sw *Switch) launch(r int) {
	lk := &sw.links[r]
	lk.routed = make(chan struct{})
	sw.wg.Add(1)
	go sw.route(r, lk.conn, lk.routed)
}

// Enqueue hands one encoded frame (pooled storage, ownership transferred)
// to rank to's queue, bypassing the tap: the switch's own frames, such as
// a deployment's first frame to each rank.
func (sw *Switch) Enqueue(to int, raw []byte) error {
	lk := &sw.links[to]
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return lk.q.Enqueue(raw)
}

// route is rank r's router. It reads ahead through a FrameReader of its
// own and hands the destination queue a pooled copy of each frame (the
// queue recycles it after the write), so routing a frame allocates
// nothing in steady state. The connection is captured at launch: a router
// outliving its rank's re-pairing must keep reading the dead socket, never
// the replacement one. done is closed on exit.
func (sw *Switch) route(r int, c net.Conn, done chan struct{}) {
	defer sw.wg.Done()
	defer close(done)
	fr := wire.NewFrameReader(c)
	for {
		raw, err := fr.ReadRaw()
		if err == nil {
			err = sw.forward(r, append(wire.GetBuf(), raw...))
		}
		if err != nil {
			sw.down(r, err)
			return
		}
	}
}

// forward routes one raw frame from rank from by its header, without
// decoding the payload.
func (sw *Switch) forward(from int, raw []byte) error {
	kind, _, to, bytes, err := wire.RawFields(raw)
	if err != nil || int(to) < 0 || int(to) >= sw.n {
		return fmt.Errorf("unroutable frame: to=%d err=%v", to, err)
	}
	lk := &sw.links[to]
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if sw.tap != nil && !sw.tap(from, raw, kind, to, bytes) {
		wire.PutBuf(raw)
		return nil
	}
	// An enqueue error means to's link is dead or being replaced; that is
	// to's router's event to report, not this one's.
	lk.q.Enqueue(raw)
	return nil
}

// detach drops rank's switch-side link: the queue is drained (the caller
// guarantees nothing is in flight), the socket closed; the rank's router
// exits through the LinkDown hook, and detach returns only once it has —
// whatever the hook is going to be told about the dead socket, it has
// been told by then.
func (sw *Switch) detach(rank int) error {
	lk := &sw.links[rank]
	lk.mu.Lock()
	err := lk.q.Close()
	lk.conn.Close()
	routed := lk.routed
	lk.mu.Unlock()
	<-routed
	return err
}

// Repair re-pairs one rank after its link was lost: it accepts the
// replacement connection — which must say hello as rank — under the
// handshake deadline, retires the old socket and queue (unwritten frames
// are dropped with them), installs fresh ones, runs prime on the new
// queue before any routed frame can reach it, and launches the rank's
// router on the new socket. Concurrent repairs must be serialized by the
// caller: accepted connections are paired with ranks in arrival order.
func (sw *Switch) Repair(rank int, prime func(q *FrameQueue) error) error {
	sw.armAccept()
	c, got, err := sw.acceptHello()
	if err != nil {
		return fmt.Errorf("host: re-pairing rank %d: %w", rank, err)
	}
	if got != rank {
		c.Close()
		return fmt.Errorf("host: re-pairing rank %d: unexpected hello from rank %d", rank, got)
	}
	lk := &sw.links[rank]
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if sw.closing.Load() {
		c.Close()
		return fmt.Errorf("host: re-pairing rank %d: switch closed", rank)
	}
	lk.conn.Close()
	lk.q.Close()
	lk.conn, lk.q = c, sw.newQueue(c)
	if prime != nil {
		if err := prime(lk.q); err != nil {
			return err
		}
	}
	sw.launch(rank)
	return nil
}

// Closing reports whether Close has begun: link errors after that are
// expected teardown, not peer failures.
func (sw *Switch) Closing() bool { return sw.closing.Load() }

// Close shuts the switch down and waits for its routers. With drain,
// every queue is flushed before its socket closes (the ranks must still
// be reading) — a clean shutdown, which returns nil. Without it the
// sockets close first — a drain could block forever on a dead reader —
// and Close returns the first queue error, including how many frames
// each lossy queue dropped. Safe to call more than once, and on a switch
// whose Pair failed.
func (sw *Switch) Close(drain bool) error {
	sw.closing.Store(true)
	sw.ln.Close()
	// Snapshot under the link locks: a Repair that won its lock before
	// closing was set has installed its socket by now, one that lost
	// backs out.
	conns := make([]net.Conn, sw.n)
	queues := make([]*FrameQueue, sw.n)
	for r := range sw.links {
		lk := &sw.links[r]
		lk.mu.Lock()
		conns[r], queues[r] = lk.conn, lk.q
		lk.mu.Unlock()
	}
	closeConns := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	if !drain {
		closeConns()
	}
	var firstErr error
	for r, q := range queues {
		if q == nil {
			continue
		}
		if err := q.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("host: rank %d switch queue: %w", r, err)
		}
	}
	closeConns()
	sw.wg.Wait()
	if sw.dir != "" {
		os.RemoveAll(sw.dir)
	}
	return firstErr
}
