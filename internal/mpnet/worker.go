package mpnet

import (
	"fmt"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/mp"
	"sdsm/internal/wire"
)

// workerWorld is the worker-process side of the distributed mp machine: a
// single-processor Host whose processor carries the rank's virtual clock,
// and a Mailbox whose communication methods speak wire frames over the
// rank's endpoint to the coordinator's switch. The mp layer is
// share-nothing by construction and uses only mailboxes.
type workerWorld struct {
	world *mp.World
	proc  *workerProc
}

func newWorkerWorld(ep *host.Endpoint, rank, n int) *workerWorld {
	w := &workerWorld{proc: &workerProc{id: rank}}
	h := &workerHost{proc: w.proc, n: n}
	w.world = &mp.World{H: h, NW: &workerTransport{ep: ep, rank: rank}}
	return w
}

// workerProc is the rank's processor: a local virtual clock. The blocking
// primitives are never reached — the transport blocks on socket reads.
type workerProc struct {
	id    int
	clock time.Duration
}

func (p *workerProc) ID() int             { return p.id }
func (p *workerProc) Now() time.Duration  { return p.clock }
func (p *workerProc) Begin()              {}
func (p *workerProc) End()                {}
func (p *workerProc) BeginCompute()       {}
func (p *workerProc) EndCompute()         {}
func (p *workerProc) Block(reason string) { panic("mpnet: worker proc cannot block: " + reason) }
func (p *workerProc) Wake(q host.Proc, at time.Duration) {
	panic("mpnet: worker proc cannot wake peers")
}
func (p *workerProc) Hold(q host.Proc, fn func()) { panic("mpnet: worker proc cannot hold peers") }

func (p *workerProc) Advance(d time.Duration) {
	if d < 0 {
		panic("mpnet: negative advance")
	}
	p.clock += d
}

func (p *workerProc) Charge(d time.Duration) {
	if d < 0 {
		panic("mpnet: negative charge")
	}
	p.clock += d
}

func (p *workerProc) SetClock(at time.Duration) {
	if at > p.clock {
		p.clock = at
	}
}

// workerHost is a single-processor view of an n-rank machine.
type workerHost struct {
	proc *workerProc
	n    int
}

func (h *workerHost) N() int { return h.n }

func (h *workerHost) Proc(i int) host.Proc {
	if i != h.proc.id {
		panic(fmt.Sprintf("mpnet: rank %d has no local processor %d", h.proc.id, i))
	}
	return h.proc
}

func (h *workerHost) Run(body func(p host.Proc)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mpnet: rank %d panicked: %v", h.proc.id, r)
		}
	}()
	body(h.proc)
	return nil
}

// workerTransport is the rank's Mailbox: sends go out through the
// endpoint (whose unbounded queue means the rank's goroutine never blocks
// on a full socket buffer — it always progresses to its Recv, which
// drains its connection and unblocks the coordinator's routers), and
// inbound frames are buffered in a local mailbox so selective receives
// (by sender and tag) work exactly as in-process.
type workerTransport struct {
	ep   *host.Endpoint
	rank int
	box  []host.Msg
}

// Stats are accounted at the coordinator, which sees every frame.
func (t *workerTransport) Stats() host.Stats { return host.Stats{} }

// must turns a lost link into the rank's death.
func (t *workerTransport) must(err error) {
	if err != nil {
		panic(fmt.Sprintf("mpnet: rank %d link lost: %v", t.rank, err))
	}
}

// Send transmits payload to rank to over the coordinator switch.
func (t *workerTransport) Send(p host.Proc, to int, tag host.Tag, payload any, bytes int) {
	t.must(t.ep.Send(p, to, tag, payload, bytes))
}

// SendShared transmits one payload to several recipients, charging the
// sender's injection overhead once.
func (t *workerTransport) SendShared(p host.Proc, tos []int, tag host.Tag, payload any, bytes int) {
	t.must(t.ep.SendShared(p, tos, tag, payload, bytes))
}

// Recv blocks until a matching message is available, reading frames off
// the socket and buffering non-matching ones.
func (t *workerTransport) Recv(p host.Proc, from int, tag host.Tag) host.Msg {
	var f wire.Frame
	for {
		if m, rest, ok := host.TakeMatch(t.box, from, tag); ok {
			t.box = rest
			p.SetClock(m.Arrival)
			p.Charge(t.ep.Costs().RecvOverhead)
			return m
		}
		t.must(t.ep.ReadInto(&f))
		if f.Kind != wire.FMsg {
			panic(fmt.Sprintf("mpnet: rank %d received unexpected frame kind %d", t.rank, f.Kind))
		}
		t.box = append(t.box, t.ep.Msg(&f))
	}
}
