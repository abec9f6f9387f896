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
	payload := f.Payload
	if fs, ok := payload.(wire.Float64s); ok {
		payload = []float64(fs) // mp's native payload type
	}
	return Msg{
		From: int(f.From), To: e.rank, Tag: Tag(f.Tag),
		Payload: payload, Bytes: int(f.Bytes), Arrival: time.Duration(f.Time),
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

// encodeShared encodes payload once for a multi-recipient send; every
// recipient gets a copy of the encoding with the destination and
// arrival-stamp header fields patched (enqueueCopy).
func (e *Endpoint) encodeShared(tag Tag, payload any, bytes int) ([]byte, error) {
	f := e.msgFrame(0, tag, payload, bytes, 0)
	return wire.AppendFrame(wire.GetBuf(), &f)
}

// enqueueCopy queues one recipient's patched copy of a shared encoding.
// The copies are needed because the queue writes asynchronously: a
// single patched buffer could be restamped before it drains.
func (e *Endpoint) enqueueCopy(raw []byte, to int, arrival time.Duration) error {
	if to == e.rank {
		panic("host: send to self")
	}
	cp := append(wire.GetBuf(), raw...)
	wire.PatchRawTo(cp, int32(to))
	wire.PatchRawTime(cp, int64(arrival))
	return e.q.Enqueue(cp)
}

// SendShared transmits one payload to several recipients charging the
// sender's injection overhead once (switch-assisted broadcast).
func (e *Endpoint) SendShared(p Proc, tos []int, tag Tag, payload any, bytes int) error {
	p.Charge(e.costs.SendOverhead)
	arrival := p.Now() + e.costs.OneWay(bytes)
	raw, err := e.encodeShared(tag, payload, bytes)
	defer wire.PutBuf(raw)
	for i := 0; i < len(tos) && err == nil; i++ {
		err = e.enqueueCopy(raw, tos[i], arrival)
	}
	return err
}

// Broadcast sends payload to every other rank of an n-rank machine,
// serializing the per-message send overhead at the sender. Unlike
// SendShared the overheads accumulate, so arrival times differ per
// recipient; charges are identical to a loop of Send calls.
func (e *Endpoint) Broadcast(p Proc, n int, tag Tag, payload any, bytes int) error {
	raw, err := e.encodeShared(tag, payload, bytes)
	defer wire.PutBuf(raw)
	for to := 0; to < n && err == nil; to++ {
		if to == e.rank {
			continue
		}
		p.Charge(e.costs.SendOverhead)
		err = e.enqueueCopy(raw, to, p.Now()+e.costs.OneWay(bytes))
	}
	return err
}
