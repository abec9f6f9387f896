// Package cluster simulates the interconnect of a distributed-memory
// machine on top of the sim engine: point-to-point messages with latency
// and bandwidth charges, shared-injection multicast, synchronous
// request/reply (RPC), and message/byte accounting.
//
// Two communication styles are offered:
//
//   - Mailbox Send/Recv, used by the message-passing programming layer
//     (the PVMe and XHPF stand-ins) and by barrier implementations.
//   - RPC, used by the DSM protocol for request/reply interactions such as
//     diff fetches and lock acquisition. RPC handlers execute immediately
//     against the target's current state while virtual time is charged as
//     if the request had traveled the wire; see DESIGN.md for why this is
//     both deterministic and faithful for LRC workloads.
package cluster

import (
	"fmt"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
)

type waiter struct {
	p    host.Proc
	from int
	tag  host.Tag
}

type handKey struct {
	to   int
	slot host.Tag
}

// Network implements host.Transport and host.Mailbox over any host
// backend: the mailbox and RPC state is shared, so all methods must be
// called inside a protocol section (the sim host makes every instant one;
// the real host's run-time layers bracket their entry points).
type Network struct {
	h      host.Host
	costs  model.Costs
	boxes  [][]host.Msg // pending messages per destination
	waits  []*waiter
	hands  map[handKey]any // staged protocol payloads (grants, departures)
	server host.Server
	stats  host.Stats
}

// New creates a network for every processor of h.
func New(h host.Host, costs model.Costs) *Network {
	n := h.N()
	return &Network{
		h:     h,
		costs: costs,
		boxes: make([][]host.Msg, n),
		waits: make([]*waiter, n),
		hands: map[handKey]any{},
		stats: host.Stats{Node: make([]host.NodeStats, n)},
	}
}

// Costs returns the cost model in force.
func (nw *Network) Costs() model.Costs { return nw.costs }

// Stats returns a snapshot of the traffic counters.
func (nw *Network) Stats() host.Stats {
	s := nw.stats
	s.Node = append([]host.NodeStats(nil), nw.stats.Node...)
	return s
}

func (nw *Network) account(from, to, bytes int) { nw.stats.Account(from, to, bytes) }

// Send transmits payload from p to node `to`. The sender is charged send
// overhead; the message arrives after wire latency plus bandwidth time.
func (nw *Network) Send(p host.Proc, to int, tag host.Tag, payload any, bytes int) {
	p.Charge(nw.costs.SendOverhead)
	nw.deliver(p, to, tag, payload, bytes)
}

// deliver files one message from p in to's mailbox, arriving one wire
// latency plus bandwidth time from now, accounts it, and wakes to's
// receiver if the message matches its wait.
func (nw *Network) deliver(p host.Proc, to int, tag host.Tag, payload any, bytes int) {
	if to == p.ID() {
		panic("cluster: send to self")
	}
	m := host.Msg{
		From:    p.ID(),
		To:      to,
		Tag:     tag,
		Payload: payload,
		Bytes:   bytes,
		Arrival: p.Now() + nw.costs.OneWay(bytes),
	}
	nw.account(p.ID(), to, bytes)
	nw.boxes[to] = append(nw.boxes[to], m)
	if w := nw.waits[to]; w != nil && (w.from == host.AnySender || w.from == m.From) && w.tag == m.Tag {
		nw.waits[to] = nil
		p.Wake(w.p, m.Arrival)
	}
}

// Recv blocks p until a message with the given tag (and sender, unless
// AnySender) is available, then delivers the earliest-arriving match.
// Receiving charges the interrupt/dispatch overhead.
func (nw *Network) Recv(p host.Proc, from int, tag host.Tag) host.Msg {
	for {
		if m, ok := nw.take(p.ID(), from, tag); ok {
			p.SetClock(m.Arrival)
			p.Charge(nw.costs.RecvOverhead)
			return m
		}
		if nw.waits[p.ID()] != nil {
			panic(fmt.Sprintf("cluster: node %d has two concurrent receivers", p.ID()))
		}
		nw.waits[p.ID()] = &waiter{p: p, from: from, tag: tag}
		p.Block("cluster recv")
	}
}

// take removes the earliest matching message from to's mailbox.
func (nw *Network) take(to, from int, tag host.Tag) (host.Msg, bool) {
	m, rest, ok := host.TakeMatch(nw.boxes[to], from, tag)
	nw.boxes[to] = rest
	return m, ok
}

// Message accounts for a protocol message from node `from` departing at
// `depart` and returns the time at which the receiver has fielded it
// (arrival plus interrupt). Sender and receiver CPU overheads are charged
// to the respective processors. It is the building block for multi-hop
// protocol exchanges (lock forwarding) whose intermediate legs do not
// involve the calling processor.
func (nw *Network) Message(from, to int, depart time.Duration, bytes int) time.Duration {
	if from == to {
		panic("cluster: message to self")
	}
	nw.h.Proc(from).Charge(nw.costs.SendOverhead)
	nw.h.Proc(to).Charge(nw.costs.RecvOverhead)
	nw.account(from, to, bytes)
	return depart + nw.costs.SendOverhead + nw.costs.OneWay(bytes) + nw.costs.RecvOverhead
}

// Serve registers the request handler invoked at the target of
// StartRequest exchanges.
func (nw *Network) Serve(fn host.Server) {
	if nw.server != nil {
		panic("cluster: server already registered")
	}
	nw.server = fn
}

// StartRequest issues a request/reply exchange and returns without
// waiting. The server still runs immediately against the target's current
// state (the protocol state transition is deterministic; see DESIGN.md
// S3); only the requester's time accounting is deferred, which models
// asynchronous data fetching (Section 3.2.3 of the paper). Any CPU time
// the server charges to the target (for example creating diffs) extends
// the reply's arrival; the target is additionally charged interrupt,
// service, and reply-injection overheads.
func (nw *Network) StartRequest(p host.Proc, to int, req any, reqBytes int) *host.Pending {
	if to == p.ID() {
		panic("cluster: request to self")
	}
	p.Charge(nw.costs.SendOverhead)
	reqArrival := p.Now() + nw.costs.OneWay(reqBytes)
	nw.account(p.ID(), to, reqBytes)

	target := nw.h.Proc(to)
	before := target.Now()
	resp, respBytes := nw.server(p, to, req)
	target.Charge(nw.costs.RecvOverhead + nw.costs.RequestService + nw.costs.SendOverhead)
	service := target.Now() - before
	nw.account(to, p.ID(), respBytes)

	return &host.Pending{
		Reply:   resp,
		Arrival: reqArrival + service + nw.costs.OneWay(respBytes),
		Bytes:   respBytes,
	}
}

// SendShared transmits the same payload from p to several recipients,
// charging the sender's injection overhead only once (modeling the
// switch-assisted broadcast the augmented run-time uses at barriers when a
// processor sends identical data to everyone). Each delivery is still
// accounted as a message.
func (nw *Network) SendShared(p host.Proc, tos []int, tag host.Tag, payload any, bytes int) {
	p.Charge(nw.costs.SendOverhead)
	for _, to := range tos {
		nw.deliver(p, to, tag, payload, bytes)
	}
}

// Hand stages a protocol payload for node to (lock grants, barrier
// departures); the recipient consumes it with TakeHand after being woken.
// Delivery is immediate in-process; cost accounting is the caller's
// affair, via Message.
func (nw *Network) Hand(p host.Proc, to int, slot host.Tag, payload any) {
	k := handKey{to: to, slot: slot}
	if _, dup := nw.hands[k]; dup {
		panic(fmt.Sprintf("cluster: hand slot %d for node %d already staged", slot, to))
	}
	nw.hands[k] = payload
}

// TakeHand retrieves the payload staged for the caller in slot. The
// protocol stages hands before waking their consumers, so in-process the
// payload is always present.
func (nw *Network) TakeHand(p host.Proc, slot host.Tag) any {
	k := handKey{to: p.ID(), slot: slot}
	payload, ok := nw.hands[k]
	if !ok {
		panic(fmt.Sprintf("cluster: node %d took empty hand slot %d", p.ID(), slot))
	}
	delete(nw.hands, k)
	return payload
}
