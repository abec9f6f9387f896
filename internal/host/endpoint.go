package host

import (
	"net"
	"time"

	"sdsm/internal/model"
	"sdsm/internal/wire"
)

// Endpoint is one rank's side of its link to a Switch: a Link, the hello
// that identifies the rank, and the mailbox send paths, which charge the
// sender, stamp the arrival time, encode the payload exactly once, and
// enqueue — on the link's unbounded queue, so a pairwise exchange of large
// payloads cannot wedge two ranks (and their routers) in simultaneous
// writes. The inbound side is only the link's frame reader: what a
// received frame means is the owner's business (Net files it for a
// blocked processor, an mpnet worker's Recv reads inline).
//
// Send errors are the queue's latched write error; owners turn them into
// their own failure (Net aborts the machine, a worker process dies).
type Endpoint struct {
	*Link
	rank  int
	costs model.Costs
}

// NewEndpoint says hello as rank on c, a fresh connection to a switch,
// and frames it (NewLink). On error the connection is still the caller's
// to close.
func NewEndpoint(c net.Conn, rank int, costs model.Costs, onErr func(error)) (*Endpoint, error) {
	if err := writeHello(c, rank); err != nil {
		return nil, err
	}
	return &Endpoint{Link: NewLink(c, onErr), rank: rank, costs: costs}, nil
}

// Costs returns the cost model the endpoint charges its sends with.
func (e *Endpoint) Costs() model.Costs { return e.costs }

// Msg converts a received FMsg frame to the mailbox message it carries.
func (e *Endpoint) Msg(f *wire.Frame) Msg {
	return Msg{
		From: int(f.From), To: e.rank, Tag: Tag(f.Tag),
		Payload: f.Payload, Bytes: int(f.Bytes), Arrival: time.Duration(f.Time),
	}
}

// msgFrame is the mailbox frame for one payload from this rank.
func (e *Endpoint) msgFrame(to int, tag Tag, payload any, bytes int, arrival time.Duration) wire.Frame {
	return wire.Frame{
		Kind: wire.FMsg, From: int32(e.rank), To: int32(to), Tag: int32(tag),
		Bytes: int32(bytes), Time: int64(arrival), Payload: payload,
	}
}

// Send transmits payload to rank to; the sender pays send overhead and
// the message arrives after wire latency plus bandwidth time.
func (e *Endpoint) Send(p Proc, to int, tag Tag, payload any, bytes int) error {
	if to == e.rank {
		panic("host: send to self")
	}
	p.Charge(e.costs.SendOverhead)
	f := e.msgFrame(to, tag, payload, bytes, p.Now()+e.costs.OneWay(bytes))
	return e.Write(&f)
}

// SendShared transmits one payload to several recipients charging the
// sender's injection overhead once (switch-assisted broadcast). The
// payload is encoded once; every recipient gets its own copy of the
// encoding with the destination header field patched — copies, because
// the queue writes asynchronously and a single buffer could be restamped
// before it drains.
func (e *Endpoint) SendShared(p Proc, tos []int, tag Tag, payload any, bytes int) error {
	p.Charge(e.costs.SendOverhead)
	f := e.msgFrame(0, tag, payload, bytes, p.Now()+e.costs.OneWay(bytes))
	raw, err := wire.AppendFrame(wire.GetBuf(), &f)
	defer wire.PutBuf(raw)
	for i := 0; i < len(tos) && err == nil; i++ {
		if tos[i] == e.rank {
			panic("host: send to self")
		}
		cp := append(wire.GetBuf(), raw...)
		wire.PatchRawTo(cp, int32(tos[i]))
		err = e.q.Enqueue(cp)
	}
	return err
}
