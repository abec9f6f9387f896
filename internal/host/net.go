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
//     endpoint (whose writer goroutine coalesces a flurry into one
//     vectored write), and blocks — releasing the protocol token — when
//     it needs an inbound frame (Recv, TakeHand, Await).
//   - A delivery goroutine reads node i's endpoint, decodes frames, and
//     files them (mailbox, hand slots, reply table) under the transport
//     mutex, waking the blocked processor when a frame matches its wait.
//     It never takes the protocol token, so delivery cannot deadlock
//     against a section in progress.
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
type Net struct {
	*Real
	costs model.Costs

	sw  *Switch
	eps []*Endpoint // per node; replaced by Reattach
	// delivered[i] is closed when the delivery loop reading eps[i] has
	// exited; every loop is launched with a fresh one (startDelivery).
	delivered []chan struct{}

	nmu    sync.Mutex // guards boxes, hands, waits, reqs, stats
	boxes  [][]Msg
	hands  []map[Tag]any
	waits  []*netWait
	wslots []netWait             // per node: reusable wait record (one receiver per node)
	reqs   []map[int32]*reqState // per requester node: id -> state
	nextID []int32
	server Server
	stats  Stats

	svcMu   sync.Mutex
	svcCond []*sync.Cond
	svcQ    [][]*wire.Frame
	svcHead []int // per-node index of the next unserviced svcQ entry

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

// netWait is what a node's blocked protocol goroutine is waiting for.
// Waits are filed through the node's reusable wslots entry: a node has at
// most one outstanding wait (enforced by the two-receivers panic), and
// the delivery loop drops its pointer under nmu before the waiter can
// file the next one, so recycling the record never aliases a live wait.
type netWait struct {
	p    Proc
	kind byte // 'm' mailbox, 'h' hand, 'r' reply
	from int
	tag  Tag
	slot Tag
	rs   *reqState
}

// fileWait records what node id's protocol goroutine is about to block
// on. Caller holds nmu.
func (nw *Net) fileWait(id int, w netWait) {
	if nw.waits[id] != nil {
		panic(fmt.Sprintf("host: node %d has two concurrent receivers", id))
	}
	nw.wslots[id] = w
	nw.waits[id] = &nw.wslots[id]
}

// reqState tracks one in-flight request at the requester. The Pending
// handed to the caller is embedded and reqState itself is the Pending's
// Resolver, so one allocation covers the exchange's whole bookkeeping.
type reqState struct {
	pd         Pending
	nw         *Net
	reqArrival time.Duration
	done       bool
	reply      any
	respBytes  int
	service    time.Duration
}

// ResolveReply blocks until the reply frame has been filed, then fills
// the embedded Pending (Pending's Resolver hook).
func (rs *reqState) ResolveReply(p Proc) {
	nw := rs.nw
	nw.nmu.Lock()
	for !rs.done {
		nw.fileWait(p.ID(), netWait{p: p, kind: 'r', rs: rs})
		nw.nmu.Unlock()
		p.Block("net rpc reply")
		nw.nmu.Lock()
	}
	nw.nmu.Unlock()
	rs.pd.Reply = rs.reply
	rs.pd.Bytes = rs.respBytes
	rs.pd.Arrival = rs.reqArrival + rs.service + nw.costs.OneWay(rs.respBytes)
}

// NewNet creates a wire-backend machine of n nodes: a loopback switch (a
// Unix socket, falling back to TCP on 127.0.0.1) with every node
// connected. Close must be called when done.
func NewNet(n int, costs model.Costs) (*Net, error) {
	nw := &Net{
		Real:      NewReal(n),
		costs:     costs,
		boxes:     make([][]Msg, n),
		hands:     make([]map[Tag]any, n),
		waits:     make([]*netWait, n),
		wslots:    make([]netWait, n),
		reqs:      make([]map[int32]*reqState, n),
		nextID:    make([]int32, n),
		eps:       make([]*Endpoint, n),
		delivered: make([]chan struct{}, n),
		svcQ:      make([][]*wire.Frame, n),
		svcHead:   make([]int, n),
		stats:     Stats{Node: make([]NodeStats, n)},
	}
	for i := 0; i < n; i++ {
		nw.hands[i] = map[Tag]any{}
		nw.reqs[i] = map[int32]*reqState{}
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

// dial connects node i's endpoint to the switch.
func (nw *Net) dial(i int) (*Endpoint, error) {
	c, err := net.Dial(nw.sw.Addr().Network(), nw.sw.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("host: net backend dial: %w", err)
	}
	ep, err := NewEndpoint(c, i, nw.costs, func(err error) { nw.linkDown(i, err) })
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
	// their storage, so filing them does not retain f. Only the FReq path
	// queues the whole frame and clones it first.
	var f wire.Frame
	for {
		if err := ep.ReadInto(&f); err != nil {
			nw.linkDown(i, err)
			return
		}
		switch f.Kind {
		case wire.FMsg:
			m := ep.Msg(&f)
			nw.nmu.Lock()
			nw.boxes[i] = append(nw.boxes[i], m)
			if w := nw.waits[i]; w != nil && w.kind == 'm' && (w.from == AnySender || w.from == m.From) && w.tag == m.Tag {
				nw.waits[i] = nil
				nw.wake(w.p, m.Arrival)
			}
			nw.nmu.Unlock()
		case wire.FHand:
			nw.nmu.Lock()
			nw.hands[i][Tag(f.Tag)] = f.Payload
			if w := nw.waits[i]; w != nil && w.kind == 'h' && w.slot == Tag(f.Tag) {
				nw.waits[i] = nil
				nw.wake(w.p, 0)
			}
			nw.nmu.Unlock()
		case wire.FReq:
			fc := new(wire.Frame)
			*fc = f
			nw.svcMu.Lock()
			nw.svcQ[i] = append(nw.svcQ[i], fc)
			nw.svcCond[i].Signal()
			nw.svcMu.Unlock()
		case wire.FReply:
			nw.nmu.Lock()
			rs := nw.reqs[i][f.Tag]
			if rs == nil {
				nw.nmu.Unlock()
				nw.linkDown(i, fmt.Errorf("reply for unknown request %d", f.Tag))
				return
			}
			delete(nw.reqs[i], f.Tag)
			rs.done = true
			rs.reply = f.Payload
			rs.respBytes = int(f.Bytes)
			rs.service = time.Duration(f.Time)
			nw.stats.Account(int(f.From), i, rs.respBytes)
			if w := nw.waits[i]; w != nil && w.kind == 'r' && w.rs == rs {
				nw.waits[i] = nil
				nw.wake(w.p, 0)
			}
			nw.nmu.Unlock()
		default:
			nw.linkDown(i, fmt.Errorf("unexpected frame kind %d", f.Kind))
			return
		}
	}
}

// serviceLoop fields requests addressed to node i: it takes the protocol
// token and node i's compute lock (re-establishing exactly the exclusion
// the in-process backends get from Begin + Hold), runs the registered
// server, and ships the reply back through the switch.
func (nw *Net) serviceLoop(i int) {
	defer nw.wg.Done()
	rp := nw.Real.procs[i]
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
		nw.svcQ[i][nw.svcHead[i]] = nil
		nw.svcHead[i]++
		if nw.svcHead[i] == len(nw.svcQ[i]) {
			nw.svcQ[i] = nw.svcQ[i][:0]
			nw.svcHead[i] = 0
		}
		nw.svcMu.Unlock()

		nw.Real.mu.Lock() // the protocol-section token
		rp.compMu.Lock()  // the Hold exclusion against i's compute
		before := rp.Now()
		resp, respBytes := nw.server(rp, i, f.Payload)
		rp.Charge(nw.costs.RecvOverhead + nw.costs.RequestService + nw.costs.SendOverhead)
		service := rp.Now() - before
		rp.compMu.Unlock()
		nw.Real.mu.Unlock()

		err := nw.eps[i].Write(&wire.Frame{
			Kind: wire.FReply, From: int32(i), To: f.From, Tag: f.Tag,
			Bytes: int32(respBytes), Time: int64(service), Payload: resp,
		})
		if err != nil {
			nw.linkDown(i, err)
			return
		}
	}
}

// wake makes a blocked processor runnable (delivery-side; any Real proc
// handle works as the Wake receiver).
func (nw *Net) wake(p Proc, at time.Duration) {
	rp := p.(*RealProc)
	rp.Wake(rp, at)
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

// Costs returns the cost model in force.
func (nw *Net) Costs() model.Costs { return nw.costs }

// Stats returns a snapshot of the traffic counters.
func (nw *Net) Stats() Stats {
	nw.nmu.Lock()
	defer nw.nmu.Unlock()
	s := nw.stats
	s.Node = append([]NodeStats(nil), nw.stats.Node...)
	return s
}

// Serve registers the request handler run by the service loops.
func (nw *Net) Serve(fn Server) {
	if nw.server != nil {
		panic("host: net server already registered")
	}
	nw.server = fn
}

// Send transmits payload to node to over the wire; the sender pays send
// overhead and the message arrives after wire latency plus bandwidth time.
func (nw *Net) Send(p Proc, to int, tag Tag, payload any, bytes int) {
	nw.nmu.Lock()
	nw.stats.Account(p.ID(), to, bytes)
	nw.nmu.Unlock()
	nw.must(p.ID(), nw.eps[p.ID()].Send(p, to, tag, payload, bytes))
}

// Recv blocks until a matching message has been delivered off the wire,
// then delivers the earliest-arriving match.
func (nw *Net) Recv(p Proc, from int, tag Tag) Msg {
	for {
		nw.nmu.Lock()
		if m, rest, ok := TakeMatch(nw.boxes[p.ID()], from, tag); ok {
			nw.boxes[p.ID()] = rest
			nw.nmu.Unlock()
			p.SetClock(m.Arrival)
			p.Charge(nw.costs.RecvOverhead)
			return m
		}
		nw.fileWait(p.ID(), netWait{p: p, kind: 'm', from: from, tag: tag})
		nw.nmu.Unlock()
		p.Block("net recv")
	}
}

// Message accounts for a protocol control message between two nodes (lock
// forwarding legs); nothing crosses the wire — the exchanges that carry
// data do so via Send, Hand, and StartRequest.
func (nw *Net) Message(from, to int, depart time.Duration, bytes int) time.Duration {
	if from == to {
		panic("host: net message to self")
	}
	nw.Proc(from).Charge(nw.costs.SendOverhead)
	nw.Proc(to).Charge(nw.costs.RecvOverhead)
	nw.nmu.Lock()
	nw.stats.Account(from, to, bytes)
	nw.nmu.Unlock()
	return depart + nw.costs.SendOverhead + nw.costs.OneWay(bytes) + nw.costs.RecvOverhead
}

// StartRequest ships the encoded request to the target's service loop and
// returns a Pending whose resolver waits for the reply frame.
func (nw *Net) StartRequest(p Proc, to int, req any, reqBytes int) *Pending {
	if to == p.ID() {
		panic("host: net request to self")
	}
	p.Charge(nw.costs.SendOverhead)
	reqArrival := p.Now() + nw.costs.OneWay(reqBytes)

	rs := &reqState{nw: nw, reqArrival: reqArrival}
	nw.nmu.Lock()
	nw.stats.Account(p.ID(), to, reqBytes)
	nw.nextID[p.ID()]++
	id := nw.nextID[p.ID()]
	nw.reqs[p.ID()][id] = rs
	nw.nmu.Unlock()
	nw.must(p.ID(), nw.eps[p.ID()].Write(&wire.Frame{
		Kind: wire.FReq, From: int32(p.ID()), To: int32(to), Tag: id,
		Bytes: int32(reqBytes), Payload: req,
	}))

	rs.pd.SetResolver(rs)
	return &rs.pd
}

// Hand ships a staged protocol payload (lock grant, barrier departure) to
// node to over the wire.
func (nw *Net) Hand(p Proc, to int, slot Tag, payload any) {
	nw.must(p.ID(), nw.eps[p.ID()].Write(&wire.Frame{
		Kind: wire.FHand, From: int32(p.ID()), To: int32(to), Tag: int32(slot),
		Payload: payload,
	}))
}

// TakeHand retrieves the payload staged for the caller in slot, waiting
// for the frame if it is still in flight.
func (nw *Net) TakeHand(p Proc, slot Tag) any {
	for {
		nw.nmu.Lock()
		if payload, ok := nw.hands[p.ID()][slot]; ok {
			delete(nw.hands[p.ID()], slot)
			nw.nmu.Unlock()
			return payload
		}
		nw.fileWait(p.ID(), netWait{p: p, kind: 'h', slot: slot})
		nw.nmu.Unlock()
		p.Block("net hand")
	}
}

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
