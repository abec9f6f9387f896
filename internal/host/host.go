// Package host defines the platform seam between the DSM protocol stack
// (tmk), the message-passing layer (mp), and the applications on one side,
// and a concrete execution backend on the other.
//
// A backend provides two things:
//
//   - A Host: a fixed set of processors with virtual clocks and the
//     blocking primitives the protocol layers are written against
//     (Advance/Charge, Block/Wake).
//   - A Transport: the interconnect carrying mailbox messages and
//     request/reply (RPC) exchanges with latency, bandwidth, and CPU
//     overhead accounting. Network is the one implementation, usable on
//     any Host; Net files what its sockets deliver into a Network. An
//     exchange is typed — a wire.DiffRequest answered by a wire.DiffReply
//     — and its storage is the requester's: StartRequest consumes the
//     request before it returns and fills a Pending the caller owns, so a
//     requester that reuses both allocates nothing per exchange in-process.
//
// Two hosts exist:
//
//   - The deterministic discrete-event engine (package sim), which admits
//     exactly one runnable processor at a time and reproduces the paper's
//     virtual-time numbers bit for bit regardless of the Go scheduler.
//   - The real-concurrency host (NewReal, this package), where each
//     processor is a goroutine running genuinely in parallel on the
//     machine's cores. Virtual time is still accounted (atomically) but no
//     longer serializes execution.
//
// # The protocol-section contract
//
// The DSM protocol mutates shared state (mailboxes, lock queues, barrier
// episodes, remote diff caches) under the historical assumption that only
// one processor runs at a time. The seam preserves that assumption without
// giving up parallelism through three bracketing primitives, all no-ops on
// the sequential sim host:
//
//   - Begin/End delimit a protocol section. The real host backs them with
//     a single host-wide token mutex: protocol code on different nodes is
//     mutually excluded, exactly as under the sim engine. Block releases
//     the token while suspended and reacquires it on wake, so waiting
//     inside a protocol section (locks, barriers, message receive) cannot
//     deadlock the machine.
//   - BeginCompute/EndCompute delimit a local compute section: a stretch
//     of application code that writes the node's own shared-memory image
//     without entering the protocol. The real host backs them with a
//     per-processor lock.
//   - Hold(q, fn) runs fn while q is excluded from compute sections. The
//     protocol uses it when servicing a request against another node's
//     state (diff creation reads the target's memory image): on the real
//     host, the target may be mid-computation, and Hold provides the
//     mutual exclusion — and the happens-before edge — that the sim host
//     gets for free from its global serialization.
//
// Lock order is token before compute lock; compute sections never enter
// protocol sections (callers end compute before calling the run-time, see
// the interp package), so the order is acyclic and the real host is
// deadlock-free wherever the sim host is.
package host

import (
	"time"

	"sdsm/internal/model"
	"sdsm/internal/wire"
)

// Proc is one virtual processor as seen by the protocol stack and the
// applications. All methods except Charge, Wake, and Hold must be called
// from the goroutine running the processor's body.
type Proc interface {
	// ID is the processor number, 0..N-1.
	ID() int
	// Now returns the processor's current virtual time.
	Now() time.Duration
	// Advance charges d of virtual time, yielding on hosts that
	// schedule by virtual time.
	Advance(d time.Duration)
	// Charge adds d to the processor's clock without yielding. It may be
	// called on any processor (including a blocked one) to account for
	// overhead imposed remotely, such as servicing an interrupt.
	Charge(d time.Duration)
	// Block suspends the processor until another processor calls Wake on
	// it. reason appears in deadlock reports. Inside a protocol section,
	// the section token is released while blocked.
	Block(reason string)
	// Wake makes a blocked processor runnable, moving its clock forward
	// to at if at is later. Wakes are direct handoffs, never broadcasts;
	// waking a non-blocked processor panics.
	Wake(q Proc, at time.Duration)
	// SetClock forces the clock to at if at is later (synchronization
	// objects computing a common departure time).
	SetClock(at time.Duration)

	// Begin enters a protocol section (see the package comment). No-op on
	// the deterministic sim host.
	Begin()
	// End leaves a protocol section.
	End()
	// BeginCompute enters a local compute section.
	BeginCompute()
	// EndCompute leaves a local compute section.
	EndCompute()
	// Hold runs fn while q is held out of compute sections. Must be
	// called inside a protocol section.
	Hold(q Proc, fn func())
}

// Host is one machine of N processors.
type Host interface {
	// N returns the number of processors.
	N() int
	// Proc returns processor i.
	Proc(i int) Proc
	// Run executes body once per processor and returns when all have
	// finished, with an error on panic or (where detectable) deadlock.
	Run(body func(p Proc)) error
}

// Tag distinguishes message classes within a mailbox.
type Tag int

// Msg is a delivered mailbox message.
type Msg struct {
	From, To int
	Tag      Tag
	Payload  any
	Bytes    int
	Arrival  time.Duration
}

// Server handles request/reply exchanges at a target node: it receives
// the destination node id and the request, and fills rep, returning the
// reply's accounted size. In-process req and rep are the requester's own
// storage: the server reads req only during the call and never writes it,
// and rep's slices arrive with length zero and whatever capacity the
// requester left in them, for the server to append into. The DSM run-time registers exactly one server per
// transport (tmk's diff server). p is a processor handle the server may
// use for Hold; on in-process transports it is the requesting processor,
// on socket transports the target's own (whose compute exclusion the
// service loop already holds).
type Server func(p Proc, at int, req *wire.DiffRequest, rep *wire.DiffReply) (respBytes int)

// Pending is an in-flight request/reply exchange, in storage the
// requester owns: StartRequest fills it, and Reply, Arrival, and Bytes are
// valid after Await or AwaitAll returns. A requester may reuse a Pending,
// and the capacity of its Reply's slices, once it has consumed the reply.
type Pending struct {
	// Reply is the reply payload, in lists the Pending owns. In-process
	// its Diffs share the responder's cached arrays; on sockets they are
	// the decoded diffs, copied out of the frame.
	Reply wire.DiffReply
	// Arrival is the virtual time the reply reaches the requester.
	Arrival time.Duration
	// Bytes is the accounted reply size.
	Bytes int
	// resolver, when non-nil, blocks until the reply is available and
	// fills the fields above (socket transports; nil when the exchange
	// completed at StartRequest). An interface rather than a closure so
	// transports install their request state without allocating.
	resolver Resolver
}

// Resolver is the completion wait hook a transport installs on a Pending
// whose reply arrives asynchronously.
type Resolver interface {
	// ResolveReply blocks p until the exchange has completed and fills
	// the Pending's reply fields.
	ResolveReply(p Proc)
}

// Resolve waits until the exchange has completed (no-op on transports
// that complete requests synchronously). Await calls it; transports set
// the hook via SetResolver.
func (pd *Pending) Resolve(p Proc) {
	if pd.resolver != nil {
		r := pd.resolver
		pd.resolver = nil
		r.ResolveReply(p)
	}
}

// SetResolver installs the completion wait hook (transport internal).
func (pd *Pending) SetResolver(r Resolver) { pd.resolver = r }

// TakeMatch removes the earliest-arriving message matching (from, tag)
// from box, returning the message and the shortened box. It is the one
// mailbox-matching rule every transport shares — selective receive by
// sender and tag, ties broken by buffer order — so matching cannot drift
// between backends.
func TakeMatch(box []Msg, from int, tag Tag) (Msg, []Msg, bool) {
	best := -1
	for i, m := range box {
		if m.Tag != tag || m.From != from {
			continue
		}
		if best == -1 || m.Arrival < box[best].Arrival {
			best = i
		}
	}
	if best == -1 {
		return Msg{}, box, false
	}
	m := box[best]
	return m, append(box[:best], box[best+1:]...), true
}

// Await advances p to the completion of one in-flight exchange and charges
// the receive overhead; the Pending's reply fields are valid afterwards.
func Await(p Proc, pd *Pending, costs model.Costs) {
	pd.Resolve(p)
	p.SetClock(pd.Arrival)
	p.Charge(costs.RecvOverhead)
}

// AwaitAll completes a set of in-flight exchanges: every reply is resolved
// first, then p's clock moves to each arrival and is charged the receive
// overhead in ascending arrival order (the overheads serialize at the
// requester). It is the one completion rule every transport shares.
func AwaitAll(p Proc, pds []*Pending, costs model.Costs) {
	for _, pd := range pds {
		pd.Resolve(p)
	}
	// The scratch copy (the caller's order must be preserved) lives on the
	// stack for the common small fan-outs.
	var stack [16]*Pending
	var rest []*Pending
	if len(pds) <= len(stack) {
		rest = append(stack[:0], pds...)
	} else {
		rest = append([]*Pending(nil), pds...)
	}
	for len(rest) > 0 {
		best := 0
		for i := range rest {
			if rest[i].Arrival < rest[best].Arrival {
				best = i
			}
		}
		Await(p, rest[best], costs)
		rest = append(rest[:best], rest[best+1:]...)
	}
}

// Stats aggregates network traffic. The DSM statistics the paper reports
// ("msg" and "data" in Table 2) are derived from these counters.
type Stats struct {
	Msgs  int64
	Bytes int64
}

// Account tallies one message of the given accounted size. It is the one
// accounting rule every transport shares, so the backends' traffic
// numbers cannot drift apart; callers synchronize where counters are
// shared between goroutines.
func (s *Stats) Account(bytes int) {
	s.Msgs++
	s.Bytes += int64(bytes)
}

// Mailbox is the message-passing half of the interconnect seam: selective
// send/receive between ranks with latency, bandwidth, and CPU overhead
// accounting. It is everything the mp layer needs — its ranks are
// share-nothing by construction — so a rank living alone in its own OS
// process implements just this (internal/mpnet). Payloads must be wire
// values (package wire) or plain data slices, so that socket transports
// can encode them.
//
// Mailbox methods must be called inside a protocol section.
type Mailbox interface {
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats

	// Send transmits payload to node to; the sender pays send overhead
	// and the message arrives after wire latency plus bandwidth time.
	Send(p Proc, to int, tag Tag, payload any, bytes int)
	// SendShared transmits one payload to several recipients charging the
	// sender's injection overhead once (switch-assisted broadcast).
	SendShared(p Proc, tos []int, tag Tag, payload any, bytes int)
	// Recv blocks until a matching message is available and delivers the
	// earliest-arriving match.
	Recv(p Proc, from int, tag Tag) Msg
}

// Transport is the DSM half of the interconnect seam, exactly what the
// tmk run-time calls: point-to-point Send/Recv (its barrier arrivals and
// update pushes), request/reply exchanges served at the target,
// out-of-band protocol payloads, and multi-hop accounting. It shares
// Stats, Send and Recv with Mailbox by signature, not by embedding: tmk
// never multicasts, so a DSM transport owes no SendShared. Every payload
// that crosses it must be a wire value — never a pointer into another
// node's protocol state. Network implements both halves in-process over
// any Host; Net implements this one over loopback sockets.
//
// Transport methods must be called inside a protocol section.
type Transport interface {
	// Stats, Send and Recv are Mailbox's.
	Stats() Stats
	Send(p Proc, to int, tag Tag, payload any, bytes int)
	Recv(p Proc, from int, tag Tag) Msg

	// Costs returns the platform cost model in force.
	Costs() model.Costs

	// Message accounts for a protocol message between two nodes that may
	// both differ from the caller (multi-hop exchanges such as lock
	// forwarding) and returns the time the receiver has fielded it.
	Message(from, to int, depart time.Duration, bytes int) time.Duration

	// Serve registers the request handler invoked at the target of
	// Request exchanges. Must be called once, before the host runs.
	Serve(fn Server)
	// StartRequest issues a request/reply exchange to node to and returns
	// without waiting for the requester's side of the reply (asynchronous
	// data fetching); Await and AwaitAll complete it into pd, which the
	// caller owns. StartRequest consumes req before it returns — served
	// inline in-process, encoded inline on sockets — so the caller may
	// rebuild it in the same storage for its next exchange.
	StartRequest(p Proc, to int, req *wire.DiffRequest, reqBytes int, pd *Pending)

	// Hand stages a protocol payload for node to, out of band of the
	// mailbox: lock grants and barrier departures are constructed by the
	// protocol (which accounts their cost via Message) and consumed by the
	// recipient after it is woken. On socket transports the payload
	// crosses the wire encoded.
	Hand(p Proc, to int, slot Tag, payload any)
	// TakeHand retrieves the payload staged for the caller in slot,
	// waiting for it to arrive where delivery is asynchronous.
	TakeHand(p Proc, slot Tag) any
}
