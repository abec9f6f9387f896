package host

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sdsm/internal/model"
	"sdsm/internal/obs"
	"sdsm/internal/wire"
)

// Net is the wire backend: a Real host whose Transport carries every
// payload over OS sockets on loopback in the versioned wire format
// (package wire). Each node owns one Endpoint connected to a central
// Switch; a mailbox send, a diff request/reply, a lock grant, or a barrier
// departure is encoded, written to the node's socket, routed by the
// switch, and decoded by the destination's delivery loop before the
// protocol sees it — the deployment shape of a process-per-node DSM,
// with the node bodies still hosted in-process (see DESIGN.md §3 for the
// contract and cmd/sdsm-node for the genuinely multi-process
// message-passing deployment, the same switch with its endpoints in
// other processes).
//
// Concurrency structure, per node i:
//
//   - The app/protocol goroutine (a Real processor) encodes outbound
//     frames into pooled buffers and enqueues them on the node's
//     endpoint (which writes a frame inline when its queue is idle, and
//     leaves a backlog to its writer goroutine to coalesce into one
//     vectored write), and blocks — releasing the protocol token — when
//     it needs an inbound frame (Recv, TakeHand, Await).
//   - A delivery goroutine reads node i's endpoint, taking every frame
//     that has arrived in one read (wire.FrameReader), decodes frames, and
//     files them into the machine's Network (mailbox, hand slots) or the
//     reply table under the Network's mutex, waking the blocked processor
//     when a frame matches its wait. It never takes the protocol token, so
//     delivery cannot deadlock against a section in progress.
//   - A service goroutine fields incoming requests (diff fetches): it
//     enters the protocol token, holds node i's compute lock (the Hold
//     exclusion of the in-process backends), runs the registered server,
//     and writes the reply frame. Requests queue unboundedly so delivery
//     never stalls.
//
// Failure contract: if any link drops before Close (a peer vanishing), the
// host aborts — every blocked processor unwinds and Run returns the link
// error, mirroring a process-per-node machine losing a member. With
// EnableRecovery, one node's links can instead be dropped and re-paired
// deliberately (Detach/Reattach) while the machine is quiescent — the
// transport half of the checkpoint/restore path (DESIGN.md §10); links
// lost any other way still abort.
//
// Virtual times are scheduling-dependent exactly as on the Real host;
// application results are bit-identical to the sim backend for the
// data-race-free programs the protocol serves (TestBackendEquivalence).
//
// Everything but the socket legs is the in-process Network's: Net holds
// one and forwards to it, keeping only Send, StartRequest with its reply
// table, Hand, and a TakeHand that waits for a hand still in flight. The
// Network is a named field, not an embedded one, so Net implements
// Transport and never Mailbox's SendShared, which would bypass the
// sockets.
type Net struct {
	*Real
	in *Network

	sw   *Switch
	eps  []*Endpoint   // per node; replaced by Reattach
	lent []RankStorage // per node, what its loops decode and serve into; nil: their own
	// delivered[i] is closed when the delivery loop reading eps[i] has
	// exited; every loop is launched with a fresh one (startDelivery).
	delivered []chan struct{}

	// Per requester node, guarded by in.mu: its request records, the
	// request ID a record's index, and the free list of those not in
	// flight, so a steady stream of exchanges makes no record.
	reqs    [][]*reqState
	reqFree [][]*reqState

	svcMu   sync.Mutex
	svcCond []*sync.Cond
	svcQ    [][]wire.Frame // queued request frames, by value, the slices reused
	svcHead []int          // per-node index of the next unserviced svcQ entry

	// detaching (EnableRecovery) marks a node whose links are being
	// dropped on purpose: linkDown tolerates them.
	recMu     sync.Mutex
	detaching []bool

	// Observability counters (EnableObs); all nil on untraced runs.
	obsFrames   *obs.Counter
	obsFlushes  *obs.Counter
	obsPeerDown *obs.Counter
	obsReattach *obs.Counter

	wg sync.WaitGroup // delivery and service loops
}

// reqState is a requester's record of one exchange: while the exchange is
// in flight (pd set) it points at the caller's Pending and is that
// Pending's Resolver. id is its index in the requester's records and the
// request frame's tag; once resolved the record goes back to its
// requester's free list.
type reqState struct {
	nw         *Net
	id         int32
	pd         *Pending
	reqArrival time.Duration
	done       bool
	reply      wire.DiffReply
	respBytes  int
	service    time.Duration
}

// ResolveReply blocks until the reply frame has been filed, then fills
// the caller's Pending and frees the record (Pending's Resolver hook).
func (rs *reqState) ResolveReply(p Proc) {
	nw, in := rs.nw, rs.nw.in
	in.mu.Lock()
	for !rs.done {
		in.park(p, netWait{kind: 'r', rs: rs}, "reply")
		in.mu.Lock()
	}
	// The reply's lists are copied into the Pending's own: the decoded
	// diffs are carves of this node's decode arena, and a Pending outlives
	// the run in its store, where an in-process exchange appends into it.
	rs.pd.Reply.Diffs = append(rs.pd.Reply.Diffs[:0], rs.reply.Diffs...)
	rs.pd.Reply.Redirects = append(rs.pd.Reply.Redirects[:0], rs.reply.Redirects...)
	rs.pd.Bytes = rs.respBytes
	rs.pd.Arrival = rs.reqArrival + rs.service + in.costs.OneWay(rs.respBytes)
	*rs = reqState{nw: nw, id: rs.id}
	nw.reqFree[p.ID()] = append(nw.reqFree[p.ID()], rs)
	in.mu.Unlock()
}

// RankStorage is what a rank's warm storage (its tmk.Store) lends a Net
// for one machine: the arena the rank's delivery loop decodes into and the
// reply its service loop serves into, each with one writer, that loop,
// until Close has returned.
type RankStorage interface {
	DecodeArena() *wire.Arena
	ServeReply() *wire.DiffReply
}

// NewNet creates a wire-backend machine of n nodes: a loopback switch (a
// Unix socket, falling back to TCP on 127.0.0.1) with every node
// connected. lent, when given, holds one RankStorage per node, which node
// i's delivery and service loops decode and serve into; without it every
// reader decodes into an arena of its own and every service loop serves
// into a reply of its own. Close must be called when done.
func NewNet(n int, costs model.Costs, lent ...RankStorage) (*Net, error) {
	if len(lent) != 0 && len(lent) != n {
		return nil, fmt.Errorf("host: net backend: %d lent stores for %d nodes", len(lent), n)
	}
	r := NewReal(n)
	nw := &Net{
		Real:      r,
		in:        NewNetwork(r, costs),
		reqs:      make([][]*reqState, n),
		reqFree:   make([][]*reqState, n),
		eps:       make([]*Endpoint, n),
		lent:      lent,
		delivered: make([]chan struct{}, n),
		svcQ:      make([][]wire.Frame, n),
		svcHead:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		nw.svcCond = append(nw.svcCond, sync.NewCond(&nw.svcMu))
	}

	sw, err := NewSwitch(n, nil, nw.linkDown)
	if err != nil {
		return nil, fmt.Errorf("host: net backend: %w", err)
	}
	nw.sw = sw
	paired := make(chan error, 1)
	go func() { paired <- sw.Pair() }()
	for i := range nw.eps {
		if nw.eps[i], err = nw.dial(i); err != nil {
			sw.ln.Close() // fails the pairing, which is joined below
			break
		}
	}
	if perr := <-paired; err == nil {
		err = perr
	}
	if err != nil {
		nw.Close()
		return nil, err
	}
	sw.Start()
	for i := range nw.eps {
		nw.startDelivery(i)
		nw.wg.Add(1)
		go nw.serviceLoop(i)
	}
	return nw, nil
}

// startDelivery launches node i's delivery loop on its current endpoint.
func (nw *Net) startDelivery(i int) {
	nw.delivered[i] = make(chan struct{})
	nw.wg.Add(1)
	go nw.deliveryLoop(i, nw.eps[i], nw.delivered[i])
}

// dial connects node i's endpoint to the switch, decoding into node i's
// arena: a reattached endpoint carves on where the dropped one stopped,
// as the arena is rewound only when its store is released.
func (nw *Net) dial(i int) (*Endpoint, error) {
	c, err := net.Dial(nw.sw.Addr().Network(), nw.sw.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("host: net backend dial: %w", err)
	}
	var ar *wire.Arena
	if nw.lent != nil {
		ar = nw.lent[i].DecodeArena()
	}
	ep, err := NewEndpoint(c, i, nw.in.costs, ar, func(err error) { nw.linkDown(i, err) })
	if err != nil {
		c.Close()
		return nil, err
	}
	ep.SetObs(nw.obsFrames, nw.obsFlushes)
	return ep, nil
}

// Close shuts the machine down: sockets close, loops exit, the socket
// file is removed. Safe to call more than once. On a clean shutdown the
// writer queues are drained before their sockets close (the reader loops
// are still alive to consume the flush) and Close returns nil; after an
// abort the sockets close first — a drain could block forever on a dead
// reader — and Close returns the first queue error, including how many
// frames each lossy queue dropped.
func (nw *Net) Close() error {
	nw.sw.closing.Store(true)
	abort := nw.aborted()
	closeConns := func() {
		for _, ep := range nw.eps {
			if ep != nil {
				ep.conn.Close()
			}
		}
	}
	if abort {
		closeConns()
	}
	var firstErr error
	for i, ep := range nw.eps {
		if ep == nil {
			continue
		}
		if err := ep.q.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("host: node %d outbound queue: %w", i, err)
		}
	}
	if err := nw.sw.Close(!abort); err != nil && firstErr == nil {
		firstErr = err
	}
	closeConns()
	nw.svcMu.Lock()
	for _, cond := range nw.svcCond {
		cond.Broadcast()
	}
	nw.svcMu.Unlock()
	nw.wg.Wait()
	return firstErr
}

// aborted reports whether the Real host has failed (a panic or link
// loss began unwinding the machine).
func (nw *Net) aborted() bool {
	select {
	case <-nw.Real.abort:
		return true
	default:
		return false
	}
}

// linkDown handles a link error: expected during Close and while the
// node is deliberately detached for recovery, a peer failure otherwise —
// the host aborts so every blocked processor unwinds and Run reports
// the loss.
func (nw *Net) linkDown(node int, err error) {
	if nw.sw.Closing() || nw.isDetaching(node) {
		return
	}
	nw.obsPeerDown.Inc()
	nw.fail(fmt.Errorf("host: node %d link lost: %v", node, err))
}

// EnableObs registers the wire path's counters — frames written, coalesced
// flushes, unexpected link losses, recovery reattaches — plus the embedded
// Real host's contention counter. Observability only; never called on
// untraced runs, so the wire path stays allocation- and work-identical
// with tracing off.
func (nw *Net) EnableObs(reg *obs.Registry) {
	nw.Real.EnableObs(reg)
	nw.obsFrames = reg.Counter("net.frames")
	nw.obsFlushes = reg.Counter("net.flushes")
	nw.obsPeerDown = reg.Counter("net.peer.down")
	nw.obsReattach = reg.Counter("net.peer.reattach")
	for _, ep := range nw.eps {
		ep.SetObs(nw.obsFrames, nw.obsFlushes)
	}
	nw.sw.SetObs(nw.obsFrames, nw.obsFlushes)
}

// isDetaching reports whether node's links are being dropped on purpose.
func (nw *Net) isDetaching(node int) bool {
	nw.recMu.Lock()
	defer nw.recMu.Unlock()
	return nw.detaching != nil && nw.detaching[node]
}

// deliveryLoop decodes frames arriving at node i and files them, waking
// the node's blocked processor when a frame matches its wait. It never
// enters a protocol section. The endpoint is captured at launch: a loop
// outliving its node's Detach must keep reading the dead socket, never
// the replacement one. done is closed on exit.
func (nw *Net) deliveryLoop(i int, ep *Endpoint, done chan struct{}) {
	defer nw.wg.Done()
	defer close(done)
	// One Frame struct serves every delivery: the decoded payloads own
	// their storage, so filing them does not retain f. The FReq path
	// queues a copy of the whole frame, by value.
	var f wire.Frame
	for {
		if err := ep.ReadInto(&f); err != nil {
			nw.linkDown(i, err)
			return
		}
		switch f.Kind {
		case wire.FMsg:
			nw.in.file(ep.Msg(&f))
		case wire.FHand:
			if !nw.in.fileHand(i, Tag(f.Tag), f.Payload) {
				nw.linkDown(i, fmt.Errorf("hand slot %d staged twice", f.Tag))
				return
			}
		case wire.FReq:
			nw.svcMu.Lock()
			nw.svcQ[i] = append(nw.svcQ[i], f)
			nw.svcCond[i].Signal()
			nw.svcMu.Unlock()
		case wire.FReply:
			rep, ok := f.Payload.(*wire.DiffReply)
			if !ok {
				nw.linkDown(i, fmt.Errorf("reply %d carries a %T payload, not a wire.DiffReply", f.Tag, f.Payload))
				return
			}
			in := nw.in
			in.mu.Lock()
			var rs *reqState
			if f.Tag >= 0 && int(f.Tag) < len(nw.reqs[i]) {
				rs = nw.reqs[i][f.Tag]
			}
			if rs == nil || rs.pd == nil || rs.done {
				in.mu.Unlock()
				nw.linkDown(i, fmt.Errorf("reply for unknown request %d", f.Tag))
				return
			}
			rs.done = true
			rs.reply = *rep
			rs.respBytes = int(f.Bytes)
			rs.service = time.Duration(f.Time)
			in.stats.Account(rs.respBytes)
			if w := in.waits[i]; w != nil && w.kind == 'r' && w.rs == rs {
				in.release(i, 0)
			}
			in.mu.Unlock()
		default:
			nw.linkDown(i, fmt.Errorf("unexpected frame kind %d", f.Kind))
			return
		}
	}
}

// serviceLoop fields requests addressed to node i: it takes the protocol
// token and node i's compute lock (re-establishing exactly the exclusion
// the in-process backends get from Begin + Hold), runs the registered
// server, and ships the reply back through the switch. The server reads
// one decoded request and fills one reply the loop reuses — the one node
// i's storage lends, so its lists keep the capacity earlier machines grew:
// Write encodes the reply, through its pointer, before returning. A
// request frame whose payload is not a wire.DiffRequest is a link error.
func (nw *Net) serviceLoop(i int) {
	defer nw.wg.Done()
	rp := nw.Real.procs[i]
	rep := new(wire.DiffReply)
	if nw.lent != nil {
		rep = nw.lent[i].ServeReply()
	}
	for {
		nw.svcMu.Lock()
		for nw.svcHead[i] == len(nw.svcQ[i]) && !nw.sw.Closing() {
			nw.svcCond[i].Wait()
		}
		if nw.sw.Closing() && nw.svcHead[i] == len(nw.svcQ[i]) {
			nw.svcMu.Unlock()
			return
		}
		// Pop by head index so the queue keeps its capacity: slicing off
		// the front would leave append growing a fresh array per request.
		f := nw.svcQ[i][nw.svcHead[i]]
		nw.svcQ[i][nw.svcHead[i]] = wire.Frame{}
		nw.svcHead[i]++
		if nw.svcHead[i] == len(nw.svcQ[i]) {
			nw.svcQ[i] = nw.svcQ[i][:0]
			nw.svcHead[i] = 0
		}
		nw.svcMu.Unlock()
		req, ok := f.Payload.(*wire.DiffRequest)
		if !ok {
			nw.linkDown(i, fmt.Errorf("request %d carries a %T payload, not a wire.DiffRequest", f.Tag, f.Payload))
			continue
		}

		nw.Real.mu.Lock() // the protocol-section token
		rp.compMu.Lock()  // the Hold exclusion against i's compute
		respBytes, service := nw.in.serveAt(rp, rp, req, rep)
		rp.compMu.Unlock()
		nw.Real.mu.Unlock()

		err := nw.eps[i].Write(&wire.Frame{
			Kind: wire.FReply, From: int32(i), To: f.From, Tag: f.Tag,
			Bytes: int32(respBytes), Time: int64(service), Payload: rep,
		})
		clear(rep.Diffs) // encoded: keep no cached arrays alive until the next serve
		if err != nil {
			nw.linkDown(i, err)
			return
		}
	}
}

// must is the protocol-goroutine check on node i's endpoint writes: a
// link failure panics (unwinding the processor), matching the failure
// contract.
func (nw *Net) must(i int, err error) {
	if err != nil {
		nw.linkDown(i, err)
		panic(errAborted)
	}
}

// ---- Transport implementation ----

// Costs, Stats, Serve, Recv and Message are the Network's: every frame
// the delivery loops decode is filed into it, and the service loops run
// its server.
func (nw *Net) Costs() model.Costs                 { return nw.in.Costs() }
func (nw *Net) Stats() Stats                       { return nw.in.Stats() }
func (nw *Net) Serve(fn Server)                    { nw.in.Serve(fn) }
func (nw *Net) Recv(p Proc, from int, tag Tag) Msg { return nw.in.Recv(p, from, tag) }
func (nw *Net) Message(from, to int, depart time.Duration, bytes int) time.Duration {
	return nw.in.Message(from, to, depart, bytes)
}

// Send transmits payload to node to over the wire; the sender pays send
// overhead and the message arrives after wire latency plus bandwidth time.
func (nw *Net) Send(p Proc, to int, tag Tag, payload any, bytes int) {
	nw.in.account(bytes)
	nw.must(p.ID(), nw.eps[p.ID()].Send(p, to, tag, payload, bytes))
}

// StartRequest ships the encoded request to the target's service loop and
// installs on pd a resolver that waits for the reply frame. req is encoded,
// through its pointer, before the frame is queued.
func (nw *Net) StartRequest(p Proc, to int, req *wire.DiffRequest, reqBytes int, pd *Pending) {
	reqArrival := nw.in.issue(p, to, reqBytes)
	i := p.ID()
	nw.in.mu.Lock()
	var rs *reqState
	if k := len(nw.reqFree[i]) - 1; k >= 0 {
		rs, nw.reqFree[i] = nw.reqFree[i][k], nw.reqFree[i][:k]
	} else {
		rs = &reqState{nw: nw, id: int32(len(nw.reqs[i]))}
		nw.reqs[i] = append(nw.reqs[i], rs)
	}
	rs.pd, rs.reqArrival = pd, reqArrival
	nw.in.mu.Unlock()
	nw.must(i, nw.eps[i].Write(&wire.Frame{
		Kind: wire.FReq, From: int32(i), To: int32(to), Tag: rs.id,
		Bytes: int32(reqBytes), Payload: req,
	}))
	pd.SetResolver(rs)
}

// Hand ships a staged protocol payload (lock grant, barrier departure) to
// node to over the wire; the destination's delivery loop files it.
func (nw *Net) Hand(p Proc, to int, slot Tag, payload any) {
	nw.must(p.ID(), nw.eps[p.ID()].Write(&wire.Frame{
		Kind: wire.FHand, From: int32(p.ID()), To: int32(to), Tag: int32(slot),
		Payload: payload,
	}))
}

// TakeHand retrieves the payload staged for the caller in slot, waiting
// for the frame if it is still in flight.
func (nw *Net) TakeHand(p Proc, slot Tag) any { return nw.in.takeHand(p, slot, true) }

// ---- Recovery (tmk.Recoverer) ----

// EnableRecovery arms Detach/Reattach: a deliberately detached node's
// link errors stop counting as peer death. Off by default — without it
// the abort-on-link-loss contract has no exception. Idempotent.
func (nw *Net) EnableRecovery() {
	nw.recMu.Lock()
	defer nw.recMu.Unlock()
	if nw.detaching == nil {
		nw.detaching = make([]bool, nw.N())
	}
}

// Detach drops node i's links. The caller (the recovering node's own
// protocol goroutine, see tmk's failAndRecover) guarantees the machine
// is quiescent: nothing is in flight to or from i, so the node's writer
// queues are empty and its reader loops are idle. The two readers of the
// link — the node's delivery loop and the switch's router for it — exit
// on the socket close, and Detach returns only after both have: each
// reports its read error through linkDown whenever it is next scheduled,
// and one still to run when Reattach clears the detaching mark would be
// taken for a peer failure and abort the machine. The service loop stays
// — it is blocked on its empty queue and picks up the replacement
// endpoint through nw.eps at its next request.
func (nw *Net) Detach(i int) error {
	nw.recMu.Lock()
	if nw.detaching == nil {
		nw.recMu.Unlock()
		return fmt.Errorf("host: net recovery not enabled")
	}
	nw.detaching[i] = true
	nw.recMu.Unlock()
	err := nw.eps[i].Close()
	if derr := nw.sw.detach(i); err == nil {
		err = derr
	}
	<-nw.delivered[i] // both sockets are closed whatever the queues reported
	if err != nil {
		return fmt.Errorf("host: detaching node %d: %w", i, err)
	}
	return nil
}

// Reattach re-pairs node i: a fresh endpoint says hello, the switch
// matches it and relaunches the node's router, and a new delivery loop
// reads the new endpoint.
func (nw *Net) Reattach(i int) error {
	ep, err := nw.dial(i)
	if err == nil {
		if err = nw.sw.Repair(i, nil); err != nil {
			ep.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("host: reattaching node %d: %w", i, err)
	}
	nw.eps[i] = ep
	nw.obsReattach.Inc()
	nw.recMu.Lock()
	nw.detaching[i] = false
	nw.recMu.Unlock()
	nw.startDelivery(i)
	return nil
}
