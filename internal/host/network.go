package host

import (
	"fmt"
	"sync"
	"time"

	"sdsm/internal/model"
	"sdsm/internal/wire"
)

// Network is the interconnect of a distributed-memory machine over any
// Host: point-to-point messages with latency and bandwidth charges,
// shared-injection multicast, request/reply exchanges served at the target,
// out-of-band protocol hands, and message/byte accounting. It implements
// Transport and Mailbox in-process, and it is the mailbox half of Net,
// whose delivery loops file what the sockets carry into it.
//
// In-process, request handlers run immediately against the target's
// current state while virtual time is charged as if the request had
// traveled the wire; see DESIGN.md §2 (S3) for why this is both
// deterministic and faithful for LRC workloads. Methods must be called
// inside a protocol section; mu guards the mailbox state against Net's
// delivery loops, which never enter one.
type Network struct {
	h      Host
	costs  model.Costs
	server Server // registered before the host runs

	mu     sync.Mutex      // guards everything below
	boxes  [][]Msg         // pending messages per destination
	hands  map[handKey]any // staged protocol payloads (grants, departures)
	waits  []*netWait
	wslots []netWait // per node: reusable wait record (one receiver per node)
	stats  Stats
}

// netWait is what a node's blocked protocol goroutine is waiting for.
// Waits are filed through the node's reusable wslots entry: a node has at
// most one outstanding wait (enforced by the two-receivers panic), and a
// delivery drops its pointer under mu before the waiter can file the next
// one, so recycling the record never aliases a live wait.
type netWait struct {
	p    Proc
	kind byte // 'm' mailbox, 'h' hand, 'r' reply
	from int
	tag  Tag // mailbox tag or hand slot
	rs   *reqState
}

type handKey struct {
	to   int
	slot Tag
}

// NewNetwork creates a network for every processor of h.
func NewNetwork(h Host, costs model.Costs) *Network {
	n := h.N()
	return &Network{
		h:      h,
		costs:  costs,
		boxes:  make([][]Msg, n),
		hands:  map[handKey]any{},
		waits:  make([]*netWait, n),
		wslots: make([]netWait, n),
	}
}

// Costs returns the cost model in force.
func (nw *Network) Costs() model.Costs { return nw.costs }

// Stats returns a snapshot of the traffic counters.
func (nw *Network) Stats() Stats {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.stats
}

func (nw *Network) account(bytes int) {
	nw.mu.Lock()
	nw.stats.Account(bytes)
	nw.mu.Unlock()
}

// park files p's wait and blocks p until a delivery matching it wakes p.
// The caller holds mu; park releases it.
func (nw *Network) park(p Proc, w netWait, reason string) {
	id := p.ID()
	if nw.waits[id] != nil {
		nw.mu.Unlock()
		panic(fmt.Sprintf("host: node %d has two concurrent receivers", id))
	}
	w.p = p
	nw.wslots[id] = w
	nw.waits[id] = &nw.wslots[id]
	nw.mu.Unlock()
	p.Block(reason)
}

// release wakes node id's blocked receiver, whose wait a delivery has just
// matched. Caller holds mu.
func (nw *Network) release(id int, at time.Duration) {
	w := nw.waits[id]
	nw.waits[id] = nil
	w.p.Wake(w.p, at)
}

// file appends m to its destination's mailbox and wakes the destination's
// receiver if m matches its wait.
func (nw *Network) file(m Msg) {
	nw.mu.Lock()
	nw.boxes[m.To] = append(nw.boxes[m.To], m)
	if w := nw.waits[m.To]; w != nil && w.kind == 'm' && w.from == m.From && w.tag == m.Tag {
		nw.release(m.To, m.Arrival)
	}
	nw.mu.Unlock()
}

// fileHand stages payload in node to's hand slot and wakes to's receiver
// if it waits for that slot. It reports false, staging nothing, when the
// slot already holds a payload.
func (nw *Network) fileHand(to int, slot Tag, payload any) bool {
	k := handKey{to: to, slot: slot}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, dup := nw.hands[k]; dup {
		return false
	}
	nw.hands[k] = payload
	if w := nw.waits[to]; w != nil && w.kind == 'h' && w.tag == slot {
		nw.release(to, 0)
	}
	return true
}

// takeHand removes the payload staged for p in slot. With wait, p blocks
// until the hand is filed; without, an empty slot panics.
func (nw *Network) takeHand(p Proc, slot Tag, wait bool) any {
	k := handKey{to: p.ID(), slot: slot}
	for {
		nw.mu.Lock()
		if payload, ok := nw.hands[k]; ok {
			delete(nw.hands, k)
			nw.mu.Unlock()
			return payload
		}
		if !wait {
			nw.mu.Unlock()
			panic(fmt.Sprintf("host: node %d took empty hand slot %d", p.ID(), slot))
		}
		nw.park(p, netWait{kind: 'h', tag: slot}, "hand")
	}
}

// Send transmits payload from p to node to. The sender is charged send
// overhead; the message arrives after wire latency plus bandwidth time.
func (nw *Network) Send(p Proc, to int, tag Tag, payload any, bytes int) {
	p.Charge(nw.costs.SendOverhead)
	nw.deliver(p, to, tag, payload, bytes)
}

// SendShared transmits the same payload from p to several recipients,
// charging the sender's injection overhead only once (modeling the
// switch-assisted broadcast the augmented run-time uses at barriers when a
// processor sends identical data to everyone). Each delivery is still
// accounted as a message.
func (nw *Network) SendShared(p Proc, tos []int, tag Tag, payload any, bytes int) {
	p.Charge(nw.costs.SendOverhead)
	for _, to := range tos {
		nw.deliver(p, to, tag, payload, bytes)
	}
}

// deliver accounts one message from p and files it in to's mailbox,
// arriving one wire latency plus bandwidth time from now.
func (nw *Network) deliver(p Proc, to int, tag Tag, payload any, bytes int) {
	if to == p.ID() {
		panic("host: send to self")
	}
	nw.account(bytes)
	nw.file(Msg{
		From: p.ID(), To: to, Tag: tag, Payload: payload, Bytes: bytes,
		Arrival: p.Now() + nw.costs.OneWay(bytes),
	})
}

// Recv blocks p until a message with the given sender and tag is
// available, then delivers the earliest-arriving match.
// Receiving charges the interrupt/dispatch overhead.
func (nw *Network) Recv(p Proc, from int, tag Tag) Msg {
	for {
		nw.mu.Lock()
		if m, rest, ok := TakeMatch(nw.boxes[p.ID()], from, tag); ok {
			nw.boxes[p.ID()] = rest
			nw.mu.Unlock()
			p.SetClock(m.Arrival)
			p.Charge(nw.costs.RecvOverhead)
			return m
		}
		nw.park(p, netWait{kind: 'm', from: from, tag: tag}, "recv")
	}
}

// Message accounts for a protocol message from node from departing at
// depart and returns the time at which the receiver has fielded it
// (arrival plus interrupt). Sender and receiver CPU overheads are charged
// to the respective processors. It is the building block for multi-hop
// protocol exchanges (lock forwarding) whose intermediate legs do not
// involve the calling processor; nothing is filed.
func (nw *Network) Message(from, to int, depart time.Duration, bytes int) time.Duration {
	if from == to {
		panic("host: message to self")
	}
	nw.h.Proc(from).Charge(nw.costs.SendOverhead)
	nw.h.Proc(to).Charge(nw.costs.RecvOverhead)
	nw.account(bytes)
	return depart + nw.costs.SendOverhead + nw.costs.OneWay(bytes) + nw.costs.RecvOverhead
}

// Serve registers the request handler invoked at the target of
// StartRequest exchanges.
func (nw *Network) Serve(fn Server) {
	if nw.server != nil {
		panic("host: server already registered")
	}
	nw.server = fn
}

// issue charges and accounts the request leg of an exchange from p to
// node to and returns the request's arrival time at the target.
func (nw *Network) issue(p Proc, to int, reqBytes int) time.Duration {
	if to == p.ID() {
		panic("host: request to self")
	}
	p.Charge(nw.costs.SendOverhead)
	nw.account(reqBytes)
	return p.Now() + nw.costs.OneWay(reqBytes)
}

// serveAt runs the registered server for req at target, filling rep, and
// charges the target interrupt, service and reply-injection overheads on
// top of any CPU time the server charged itself. service is the target's
// whole clock advance, which extends the reply's arrival. p is the handle
// the server may use for Hold.
func (nw *Network) serveAt(p, target Proc, req *wire.DiffRequest, rep *wire.DiffReply) (respBytes int, service time.Duration) {
	before := target.Now()
	rep.Diffs, rep.Redirects = rep.Diffs[:0], rep.Redirects[:0]
	respBytes = nw.server(p, target.ID(), req, rep)
	target.Charge(nw.costs.RecvOverhead + nw.costs.RequestService + nw.costs.SendOverhead)
	return respBytes, target.Now() - before
}

// StartRequest issues a request/reply exchange into pd and returns without
// waiting. The server still runs immediately against the target's current
// state (the protocol state transition is deterministic; see DESIGN.md
// §2), appending its reply into pd's, so req is consumed on return; only
// the requester's time accounting is deferred, which models asynchronous
// data fetching (Section 3.2.3 of the paper).
func (nw *Network) StartRequest(p Proc, to int, req *wire.DiffRequest, reqBytes int, pd *Pending) {
	reqArrival := nw.issue(p, to, reqBytes)
	respBytes, service := nw.serveAt(p, nw.h.Proc(to), req, &pd.Reply)
	nw.account(respBytes)
	pd.Arrival = reqArrival + service + nw.costs.OneWay(respBytes)
	pd.Bytes = respBytes
}

// Hand stages a protocol payload for node to (lock grants, barrier
// departures); the recipient consumes it with TakeHand after being woken.
// Delivery is immediate in-process; cost accounting is the caller's
// affair, via Message.
func (nw *Network) Hand(p Proc, to int, slot Tag, payload any) {
	if !nw.fileHand(to, slot, payload) {
		panic(fmt.Sprintf("host: hand slot %d for node %d already staged", slot, to))
	}
}

// TakeHand retrieves the payload staged for the caller in slot. The
// protocol stages hands before waking their consumers, so in-process an
// empty slot is a protocol bug and panics rather than hanging the machine.
func (nw *Network) TakeHand(p Proc, slot Tag) any { return nw.takeHand(p, slot, false) }
