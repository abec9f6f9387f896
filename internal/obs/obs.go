// Package obs is the observability layer: a per-node, allocation-conscious
// protocol event tracer plus a unified metrics registry (counters and
// fixed-bucket histograms). It subsumes the formerly scattered reporting
// paths (tmk.ProtocolStats, adapt.Stats, host.Stats, tmk.RecoveryStats) with
// one snapshot type that every command prints through a single formatter.
//
// The tracer is a fixed-capacity ring of typed event records per node. When
// the ring fills, the oldest record is dropped and the drop is counted, so a
// bounded trace of the most recent protocol activity always survives. Every
// record carries both a virtual-clock stamp (the cost model's nanoseconds —
// deterministic on the sim backend) and a wall-clock stamp (zero on sim, so
// exported sim traces are byte-identical run to run).
//
// The whole layer is zero-cost when off: emit sites in the protocol are
// nil-pointer checks on a per-node tracer, no event storage is allocated,
// and no cost-model charges are issued by instrumentation (accounted bytes
// and virtual times are byte-identical with tracing on or off). DESIGN.md
// §11 states the contract.
package obs

import (
	"sync"
	"time"
)

// Kind identifies the protocol event a record describes.
type Kind uint8

// Event vocabulary (DESIGN.md §11). The comment after each kind names the
// emitting node and the meaning of the per-kind payload fields.
const (
	EvNone      Kind = iota
	EvFault          // faulting node: Page, A=access (0 read, 1 write); Dur = fault service time
	EvFetchReq       // requester: Page (first page), Peer = responder, A = pages requested, Seq = per-pair flow seq
	EvServe          // responder: Page, Peer = requester, A = diff chain length, B = reply bytes, Seq = per-pair flow seq
	EvTwin           // writing node: Page (twin created on first write)
	EvDiff           // diffing node: Page, A = non-zero words in the diff
	EvNotice         // releasing node: Page, A/B = write extent [lo,hi) in words, C = interval index
	EvBarArrive      // arriving node: A = barrier id, B = epoch
	EvBarDepart      // departing node: A = barrier id, B = epoch; Dur = wait (arrive→depart)
	EvWSync          // responder: Page, Peer = requester, A = diffs served on the wsync fetch
	EvLockAcq        // acquiring node: A = lock id; Dur = wait (request→grant applied); Seq links to the grant
	EvLockGrant      // granting node: A = lock id, Peer = new holder, B = grant bytes, C = piggybacked page spans, Seq = grant seq
	EvLockRel        // releasing node: A = lock id
	EvAdapt          // node 0 (transitions are machine-global): Page, A = adapt.TransKind (0 promote, 1 split, 2 join, 3 decay)
	EvCkpt           // checkpointing node: A = record bytes, B = 1 if a full record, C = epoch
	EvRecover        // surviving node: A = phase (0 fail detected, 1 restore done), Peer = failed rank; Dur = restore span
	evKinds          // count; keep last
)

// evNames maps kinds to the slice/instant names used in exported traces and
// parsed back by the analyzer.
var evNames = [evKinds]string{
	EvNone:      "none",
	EvFault:     "fault",
	EvFetchReq:  "fetch",
	EvServe:     "serve",
	EvTwin:      "twin",
	EvDiff:      "diff",
	EvNotice:    "notice",
	EvBarArrive: "barrier arrive",
	EvBarDepart: "barrier",
	EvWSync:     "wsync serve",
	EvLockAcq:   "lock wait",
	EvLockGrant: "lock grant",
	EvLockRel:   "lock release",
	EvAdapt:     "adapt",
	EvCkpt:      "checkpoint",
	EvRecover:   "recover",
}

// Event is one fixed-size trace record. VT is the virtual clock in
// nanoseconds (the cost model's time; deterministic on sim) and WT the wall
// clock in nanoseconds since the machine's trace epoch (always zero on the
// sim backend). Dur/WDur are durations in the respective domains for span
// events (fault service, serve, barrier wait, lock wait, restore), whose
// VT/WT stamp the span *start*. The meaning of
// Page, Peer, A, B, C, and Seq is per-kind; see the Kind constants.
type Event struct {
	VT   int64
	WT   int64
	Dur  int64
	WDur int64
	Page int32
	Peer int32
	A    int32
	B    int32
	C    int32
	Seq  int32
	Kind Kind
}

// NodeTracer collects events for one DSM node into a bounded ring. Emit is
// safe for concurrent use (protocol sections serialize emits on every
// backend, but wsync serves on the real backend run on the responder's
// behalf from another goroutine, and the -race suite hammers exactly that).
type NodeTracer struct {
	m  *Machine
	id int32

	mu      sync.Mutex
	ring    []Event // grown by append up to max, then overwritten from start
	max     int
	start   int
	dropped int64

	// Flow sequence counters for fetch request→serve arrows, one per peer
	// pair direction. fetchSeq[r] numbers requests this node sent to
	// responder r; serveSeq[q] numbers serves this node answered for
	// requester q. Serves are FIFO per pair (the host contract delivers a
	// pair's requests in order and tmk's diff server is the only Server),
	// so the k-th request from q to r matches the k-th serve by r for q.
	fetchSeq []int32
	serveSeq []int32
}

// Machine is the per-run trace context: one NodeTracer per node, the wall
// clock source (nil on the sim backend, which pins WT to zero and makes the
// exported JSON deterministic), and the unified metrics registry with the
// core protocol histograms pre-registered so emit sites never allocate.
type Machine struct {
	Nodes []*NodeTracer
	Reg   *Registry

	// Core protocol histograms (fixed buckets; see DESIGN.md §11).
	FaultNS    *Histogram // fault service latency, virtual ns
	ChainLen   *Histogram // diff chain length per served page
	GrantBytes *Histogram // lock grant reply bytes
	BarrierNS  *Histogram // barrier wait (arrive→depart), virtual ns

	wall  func() int64 // nil ⇒ virtual timeline (sim)
	epoch time.Time
}

// NewMachine builds a trace context for n nodes with the given per-node
// ring capacity. wall=true selects the wall-clock timeline (real and net
// backends); wall=false pins WT to zero for deterministic sim traces.
func NewMachine(n, cap int, wall bool) *Machine {
	if cap <= 0 {
		cap = DefaultRingCap
	}
	m := &Machine{Reg: NewRegistry()}
	m.FaultNS = m.Reg.NewHistogram("fault.service.ns", LatencyBounds)
	m.ChainLen = m.Reg.NewHistogram("serve.chain.len", ChainBounds)
	m.GrantBytes = m.Reg.NewHistogram("grant.bytes", ByteBounds)
	m.BarrierNS = m.Reg.NewHistogram("barrier.wait.ns", LatencyBounds)
	if wall {
		m.epoch = time.Now()
		m.wall = func() int64 { return int64(time.Since(m.epoch)) }
	}
	m.Nodes = make([]*NodeTracer, n)
	for i := range m.Nodes {
		m.Nodes[i] = &NodeTracer{
			m:        m,
			id:       int32(i),
			max:      cap,
			fetchSeq: make([]int32, n),
			serveSeq: make([]int32, n),
		}
	}
	return m
}

// DefaultRingCap is the per-node event capacity when none is configured:
// large enough to hold every event of the experiment-table runs. A ring
// grows as events arrive, so a run pays for what it records (fft/small's
// 688 events take 44 KB); a full one is 4 MiB of 64-byte events.
const DefaultRingCap = 1 << 16

// Virtual reports whether the machine records on the virtual timeline
// (WT pinned to zero; sim backend).
func (m *Machine) Virtual() bool { return m.wall == nil }

// WallNow returns the wall stamp for an event emitted now: nanoseconds
// since the trace epoch, or 0 on the virtual timeline.
func (t *NodeTracer) WallNow() int64 {
	if t.m.wall == nil {
		return 0
	}
	return t.m.wall()
}

// Emit appends e to the ring, dropping (and counting) the oldest record on
// overflow. It allocates only while the ring is still growing toward its
// capacity (append's amortized doubling); a full ring is overwritten in
// place.
func (t *NodeTracer) Emit(e Event) {
	t.mu.Lock()
	if len(t.ring) < t.max {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.start] = e
		t.start = (t.start + 1) % len(t.ring)
		t.dropped++
	}
	t.mu.Unlock()
}

// NextFetchSeq returns the flow sequence number for this node's next fetch
// request to responder r (1-based; 0 means "no flow").
func (t *NodeTracer) NextFetchSeq(r int) int32 {
	t.mu.Lock()
	t.fetchSeq[r]++
	s := t.fetchSeq[r]
	t.mu.Unlock()
	return s
}

// NextServeSeq returns the flow sequence number for this node's next serve
// answered for requester q. Because serves are FIFO per pair, this equals
// the requester's NextFetchSeq for the matching request.
func (t *NodeTracer) NextServeSeq(q int) int32 {
	t.mu.Lock()
	t.serveSeq[q]++
	s := t.serveSeq[q]
	t.mu.Unlock()
	return s
}

// Dropped reports how many records this node's ring has discarded.
func (t *NodeTracer) Dropped() int64 {
	t.mu.Lock()
	d := t.dropped
	t.mu.Unlock()
	return d
}

// Len reports how many records the ring currently holds.
func (t *NodeTracer) Len() int {
	t.mu.Lock()
	n := len(t.ring)
	t.mu.Unlock()
	return n
}

// Events copies the ring's records oldest-first into a fresh slice.
func (t *NodeTracer) Events() []Event {
	t.mu.Lock()
	out := make([]Event, len(t.ring))
	for i := range out {
		out[i] = t.ring[(t.start+i)%len(t.ring)]
	}
	t.mu.Unlock()
	return out
}
