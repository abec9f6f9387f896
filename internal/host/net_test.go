package host

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"sdsm/internal/leaktest"
	"sdsm/internal/model"
	"sdsm/internal/wire"
)

// newTestNet builds a machine that is closed, and then audited for
// leaked goroutines and sockets, when the test ends.
func newTestNet(t *testing.T, n int) *Net {
	t.Helper()
	leaktest.Check(t)
	nw, err := NewNet(n, model.SP2())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// An aborted machine may legitimately report dropped frames or
		// latched write errors on Close; a clean run must not.
		if err := nw.Close(); err != nil && !nw.aborted() {
			t.Errorf("Close: %v", err)
		}
	})
	return nw
}

// TestNetMailbox sends typed payloads through the socket switch and
// checks delivery, selective receive, and accounting.
func TestNetMailbox(t *testing.T) {
	nw := newTestNet(t, 3)
	costs := nw.Costs()
	err := nw.Run(func(p Proc) {
		switch p.ID() {
		case 0:
			p.Begin()
			nw.Send(p, 2, 7, []float64{1.5, 2.5}, 16)
			nw.Send(p, 2, 8, nil, 0)
			p.End()
		case 1:
			p.Begin()
			nw.Send(p, 2, 7, []float64{9}, 8)
			p.End()
		case 2:
			p.Begin()
			// Selective receive: tag 8 first, then per-sender tag 7s.
			nw.Recv(p, 0, 8)
			m0 := nw.Recv(p, 0, 7)
			m1 := nw.Recv(p, 1, 7)
			p.End()
			if vals := m0.Payload.([]float64); len(vals) != 2 || vals[1] != 2.5 {
				t.Errorf("node 2 got payload %v from 0", m0.Payload)
			}
			if vals := m1.Payload.([]float64); len(vals) != 1 || vals[0] != 9 {
				t.Errorf("node 2 got payload %v from 1", m1.Payload)
			}
			if m0.Arrival <= 0 || m0.Arrival != costs.SendOverhead+costs.OneWay(16) {
				t.Errorf("arrival %v, want %v", m0.Arrival, costs.SendOverhead+costs.OneWay(16))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := nw.Stats()
	if s.Msgs != 3 || s.Bytes != 24 {
		t.Errorf("stats = %d msgs %d bytes, want 3/24", s.Msgs, s.Bytes)
	}
}

// TestNetRequestReply runs request/reply exchanges through the service
// loops: the server executes at the target, sees the request payload, and
// its reply (plus service charges) reaches the requester.
func TestNetRequestReply(t *testing.T) {
	nw := newTestNet(t, 2)
	nw.Serve(func(p Proc, at int, req *wire.DiffRequest, rep *wire.DiffReply) int {
		if at != 1 || req.Req != 0 {
			t.Errorf("server saw at=%d req=%d", at, req.Req)
		}
		p.Charge(5 * time.Microsecond)
		rep.Diffs = append(rep.Diffs, wire.Diff{Page: req.Pages[0], Creator: 1, To: 3})
		return 64
	})
	err := nw.Run(func(p Proc) {
		if p.ID() != 0 {
			// The target computes while the request is served: the service
			// loop must synchronize with the compute section, not with this
			// body's progress.
			p.BeginCompute()
			p.EndCompute()
			return
		}
		p.Begin()
		var pd Pending
		nw.StartRequest(p, 1, &wire.DiffRequest{Req: 0, Pages: []int32{4}, Applied: [][]int32{{0, 0}}}, 16, &pd)
		Await(p, &pd, nw.Costs())
		p.End()
		reply := pd.Reply
		if len(reply.Diffs) != 1 || reply.Diffs[0].Page != 4 || reply.Diffs[0].Creator != 1 {
			t.Errorf("bad reply %+v", reply)
		}
		if pd.Bytes != 64 {
			t.Errorf("reply bytes %d, want 64", pd.Bytes)
		}
		if pd.Arrival <= 0 {
			t.Error("no arrival time on reply")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Proc(1).Now(); got < 5*time.Microsecond {
		t.Errorf("target clock %v missing service charges", got)
	}
}

// TestNetHand stages payloads out of band and takes them after a wake,
// including the stage-to-self case the barrier master uses.
func TestNetHand(t *testing.T) {
	nw := newTestNet(t, 2)
	err := nw.Run(func(p Proc) {
		if p.ID() == 0 {
			p.Begin()
			nw.Hand(p, 1, 3, wire.Grant{Bytes: 12})
			nw.Hand(p, 0, 3, wire.Grant{Bytes: 99})
			g := nw.TakeHand(p, 3).(wire.Grant)
			p.End()
			if g.Bytes != 99 {
				t.Errorf("self hand = %+v", g)
			}
		} else {
			p.Begin()
			g := nw.TakeHand(p, 3).(wire.Grant)
			p.End()
			if g.Bytes != 12 {
				t.Errorf("hand = %+v", g)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNetHandStagedTwiceFails pins that a hand slot filled twice before
// its take is a link error on the wire, as it is a panic in-process:
// overwriting the slot would lose the first grant or departure silently.
// Each hander sends a message behind its hand on the same link, so once
// the taker has received both messages both hands have been filed.
func TestNetHandStagedTwiceFails(t *testing.T) {
	nw := newTestNet(t, 3)
	err := nw.Run(func(p Proc) {
		p.Begin()
		defer p.End()
		if p.ID() < 2 {
			nw.Hand(p, 2, 5, wire.Grant{Bytes: int32(p.ID())})
			nw.Send(p, 2, 1, nil, 0)
			return
		}
		nw.Recv(p, 0, 1)
		nw.Recv(p, 1, 1)
		nw.TakeHand(p, 5)
	})
	if err == nil || !strings.Contains(err.Error(), "hand slot 5 staged twice") {
		t.Fatalf("Run error = %v, want the doubly staged hand slot", err)
	}
}

// TestNetForeignPayloadIsLinkError pins that a request or reply frame
// whose payload is not the diff exchange's type fails Run with a link
// error naming the type, instead of reaching the protocol: the service
// loop checks a request before it serves, the delivery loop a reply
// before it files it. Node 0 writes the raw frame to node 1; both nodes
// then wait for a message that never comes, and the link error unwinds
// them.
func TestNetForeignPayloadIsLinkError(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind byte
	}{{"request", wire.FReq}, {"reply", wire.FReply}} {
		t.Run(tc.name, func(t *testing.T) {
			nw := newTestNet(t, 2)
			err := nw.Run(func(p Proc) {
				p.Begin()
				defer p.End()
				if p.ID() == 0 {
					nw.must(0, nw.eps[0].Write(&wire.Frame{Kind: tc.kind, From: 0, To: 1, Tag: 1, Payload: wire.Float64s{1}}))
				}
				nw.Recv(p, AnySender, 9)
			})
			want := tc.name + " 1 carries a wire.Float64s payload"
			if err == nil || !strings.Contains(err.Error(), "node 1 link lost") || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run error = %v, want node 1's link error %q", err, want)
			}
		})
	}
}

// TestNetPeerFailure checks the failure contract: a node panicking aborts
// the machine and unwinds peers blocked on the wire.
func TestNetPeerFailure(t *testing.T) {
	nw := newTestNet(t, 2)
	err := nw.Run(func(p Proc) {
		if p.ID() == 0 {
			p.Begin()
			nw.Recv(p, 1, 1) // never arrives
			p.End()
			return
		}
		panic("node 1 dies")
	})
	if err == nil || !strings.Contains(err.Error(), "node 1 dies") {
		t.Fatalf("Run error = %v, want the peer panic", err)
	}
}

// TestHandshakeTimeout pins the handshake deadline: a peer that accepts
// a connection and then never says hello must produce a clear timeout
// error within the deadline, not hang the machine forever.
func TestHandshakeTimeout(t *testing.T) {
	leaktest.Check(t)
	old := handshakeTimeout
	handshakeTimeout = 50 * time.Millisecond
	defer func() { handshakeTimeout = old }()

	// The silent peer: one end of a pipe that never writes.
	us, them := net.Pipe()
	defer us.Close()
	defer them.Close()

	start := time.Now()
	_, err := readHello(us, 4)
	if err == nil {
		t.Fatal("readHello returned without a peer ever speaking")
	}
	if !strings.Contains(err.Error(), "handshake") {
		t.Errorf("error %q does not name the handshake", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v is not a timeout", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("timeout took %v, deadline was 50ms", e)
	}
}

// TestAbortReleasesResources is the shutdown-path leak regression: after
// a forced abort (a node panicking mid-run) Close must unwind every
// goroutine the machine started — switch, delivery, and service loops,
// and the frame-queue writers — and close every socket. Goroutine and
// fd counts are compared against the pre-machine baseline (leaktest).
func TestAbortReleasesResources(t *testing.T) {
	leaktest.Check(t)
	nw, err := NewNet(3, model.SP2())
	if err != nil {
		t.Fatal(err)
	}
	err = nw.Run(func(p Proc) {
		if p.ID() == 2 {
			panic("injected abort")
		}
		p.Begin()
		nw.Recv(p, 2, 9) // never arrives: peers die blocked on the wire
		p.End()
	})
	if err == nil || !strings.Contains(err.Error(), "injected abort") {
		t.Fatalf("Run error = %v, want the injected abort", err)
	}
	nw.Close() // abort path: conns first, queues after; may report drops
}

// shortConn is a net.Conn whose writes stop short without reporting an
// error — the io.Writer contract violation the frame queue must turn
// into a loud failure rather than a silently desynchronized stream.
type shortConn struct {
	net.Conn // nil: only Write is expected to be called
	n        int
}

func (c *shortConn) Write(b []byte) (int, error) {
	if len(b) <= c.n {
		return len(b), nil
	}
	return c.n, nil
}

// TestFrameQueueShortWrite checks the vectored-write guard: a short
// write with no error latches io.ErrShortWrite, onErr fires once, later
// enqueues fail loudly, and Close reports how many frames were dropped
// unwritten instead of letting a lossy shutdown pass silently.
func TestFrameQueueShortWrite(t *testing.T) {
	leaktest.Check(t)
	errCh := make(chan error, 4)
	fq := NewFrameQueue(&shortConn{n: 3}, func(err error) { errCh <- err })

	frame := func() []byte {
		raw, err := wire.AppendFrame(wire.GetBuf(), &wire.Frame{Kind: wire.FMsg, From: 0, To: 1, Tag: 7})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	fq.Enqueue(frame())
	select {
	case err := <-errCh:
		if !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("latched %v, want io.ErrShortWrite", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onErr never fired for a short write")
	}
	if err := fq.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("Flush = %v, want io.ErrShortWrite", err)
	}
	// Frames enqueued after the failure are dropped — loudly.
	if err := fq.Enqueue(frame()); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("Enqueue after failure = %v, want the latched error", err)
	}
	err := fq.Close()
	if !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("Close = %v, want the latched error", err)
	}
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Errorf("Close error %q does not report the dropped frames", err)
	}
}

// TestFrameQueueCloseAfterClose checks enqueue-after-close fails loudly
// on a healthy queue too.
func TestFrameQueueCloseLoud(t *testing.T) {
	leaktest.Check(t)
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() { // drain whatever arrives
		buf := make([]byte, 4096)
		for {
			if _, err := c2.Read(buf); err != nil {
				return
			}
		}
	}()
	fq := NewFrameQueue(c1, nil)
	if err := fq.Close(); err != nil {
		t.Fatalf("clean Close = %v", err)
	}
	raw, err := wire.AppendFrame(wire.GetBuf(), &wire.Frame{Kind: wire.FMsg, From: 0, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fq.Enqueue(raw); err == nil {
		t.Error("Enqueue after Close succeeded silently")
	}
	c1.Close()
}

// TestDetachJoinsLinkReaders pins what keeps a recovery from being taken
// for a peer failure: Detach returns only after both readers of the
// dropped link — the node's delivery loop and the switch's router for the
// rank — have exited, so neither can report its read error through
// linkDown after Reattach has cleared the detaching mark. Every rank of a
// quiescent machine is cycled many times; one late reader aborts the
// machine and fails the Run below.
func TestDetachJoinsLinkReaders(t *testing.T) {
	const n, rounds = 4, 200
	nw := newTestNet(t, n)
	nw.EnableRecovery()
	exited := func(done chan struct{}) bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			delivered, routed := nw.delivered[i], nw.sw.links[i].routed
			if err := nw.Detach(i); err != nil {
				t.Fatal(err)
			}
			if !exited(delivered) || !exited(routed) {
				t.Fatalf("round %d: Detach(%d) returned with a reader of the old link running (delivery exited %v, router exited %v)",
					round, i, exited(delivered), exited(routed))
			}
			if err := nw.Reattach(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	err := nw.Run(func(p Proc) {
		p.Begin()
		defer p.End()
		next := (p.ID() + 1) % n
		nw.Send(p, next, 1, wire.Float64s{float64(p.ID())}, 8)
		if m := nw.Recv(p, AnySender, 1); m.From != (p.ID()+n-1)%n {
			panic("message from the wrong rank")
		}
	})
	if err != nil {
		t.Fatalf("Run after %d detach/reattach cycles per rank: %v", rounds, err)
	}
	if err := nw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
