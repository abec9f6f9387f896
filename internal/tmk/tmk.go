// Package tmk implements a TreadMarks-style software distributed shared
// memory run-time with lazy release consistency, extended with the
// compiler interface the paper introduces (Section 3): Validate,
// Validate_w_sync, and Push, with synchronous and asynchronous data
// fetching.
//
// The base protocol follows the paper's description of TreadMarks:
//
//   - Lazy release consistency with vector timestamps and intervals; write
//     notices propagate at lock acquires and barrier departures and
//     invalidate pages.
//   - An invalidate, multiple-writer protocol: first writes twin the page;
//     diffs (word runs) are created lazily when modifications are
//     requested, and pages are re-protected at diff creation.
//   - Locks have a static home (id mod N) that forwards requests to the
//     last releaser; barriers are master-based.
//
// The augmented interface bypasses (Validate with READ/WRITE/READ&WRITE)
// or disables (WRITE_ALL/READ&WRITE_ALL) the page-based consistency
// machinery, aggregates diff fetches into one exchange per responder,
// piggybacks fetches on synchronization (Validate_w_sync, with broadcast
// detection at barriers), and replaces barriers by point-to-point data
// exchanges (Push). The adaptive protocol (EnableAdapt, package adapt)
// recovers the push benefit at run time for accesses the compiler cannot
// analyze, at section and sub-page granularity (DESIGN.md §6–§8).
//
// The protocol lives in protocol.go (intervals, twins and diffs, fetch and
// serve), sync.go (locks and barriers), augment.go (the compiler calls) and
// this file; store.go holds the warm storage a node's protocol log is
// carved from (Store). The four opt-in modes stand beside it, one file
// each: adapt.go (EnableAdapt), directory.go (EnableScale), recovery.go
// (EnableRecovery) and trace.go (EnableTrace). The protocol files call a
// mode's functions unconditionally at the points it attaches to — a page
// demand-fetched, an interval closed, a barrier arrival and departure, a
// grant being built, a diff stored — and the mode's own file holds the one
// test of whether the mode is armed, returning at once when it is not.
// What remains in the protocol files of any mode is a choice of byte
// formula the goldens pin (adaptOn for Interval.AccountedBytes and the
// fetch-list relay, scale for relay-once pricing and the redirect answer
// in serveDiffs), never whether a mode runs. That a call into an unarmed
// mode is free is measured, not assumed: the allocation gates (root
// alloc_test.go) and the benchmark's sim-base row.
//
// A page has one entry. Everything a node knows about a shared page beyond
// its contents lives in Node.pages[pg], the page table TreadMarks keeps: the
// applied timestamps, the unapplied write notices, the cached diff chain,
// how far the node's own writes are diffed, the action an asynchronous
// Validate deferred, and the dirty, WRITE_ALL and touched-since-the-last-
// record bits. Set membership is a bit, a visit in protocol order is an
// ascending walk of the table (closing an interval, resuming deferred
// Validates, framing a recovery record, wiping for a restore), and a
// wire.PageFrame is an entry beside its vm half. The table is carved once
// per machine from the rank's Store (Store.lend), zeroed, with every
// applied row and room for each page's first notice, all carved with
// capacity-capped three-index slices, so a page costs bytes and never an
// allocation, and a list that outgrows its share moves to a larger carve
// (grown) instead of writing into the neighbouring page's. Four
// page-indexed things stay outside, on purpose: scale mode's delegations
// (dirNext) and adapt's per-epoch tally, which belong to their
// modes and are made when the mode is enabled; the barrier master's wsLast
// index, built lazily and only at node 0, in the store's scratch; and the
// sets a single call builds and drops.
//
// Three invariants are load-bearing for every feature that moves diffs,
// learned from lost updates the cross-backend stress tests found:
//
//   - Coverage ordering. Overlapping diffs of one page are ordered by
//     their creation-time applied coverage (wire.Diff.Covers), never by
//     the closing interval's vector time —
//     a lazy multi-epoch flush closes long after concurrent fresher
//     diffs, so closing-time stamps lie (applyDiffs).
//
//   - Gap-free chains. A per-creator diff chain shipped to a receiver
//     must be contiguous with respect to the receiver's applied floor:
//     receivers prune write notices by applied coverage, so a diff whose
//     From lies beyond the floor advances the timestamp over content its
//     runs do not contain, silently dropping the gap (collectDiffs ships
//     full chains; usablePushed checks contiguity).
//
//   - One-pass application of overlaps. Overlapping diffs order
//     correctly only within a single applyDiffs pass; applying a partial
//     newer set now and an older overlapping diff later regresses
//     content. Piggybacked pages therefore apply complete-or-nothing
//     (usablePushed), and an update's spans expand into one applyDiffs
//     pass.
//
// The adaptive layer adds a fourth: no negotiation. Every replicated
// decision (the barrier detector's bindings, the derived update exchange
// schedule) must be a pure function of globally relayed observations,
// identical at every node — a divergent replica deadlocks the
// send/receive pairing of the update exchange (package adapt).
//
// And one rule keeps the notice bookkeeping small: page.pending holds at
// most one unapplied write notice per owner — its newest (addNotice
// replaces) — because every reader asks only for maxima: who
// the newest writer is and whether it overwrote the page (responders),
// whether an owner's newest interval is covered yet (prunePending,
// usablePushed), which owners remain (completeInflight's Direct retry). A
// page nobody reads holds N-1 notices however many barriers pass.
package tmk

import (
	"cmp"
	"maps"
	"slices"
	"time"

	"sdsm/internal/adapt"
	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/obs"
	"sdsm/internal/shm"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// AccessType is the access pattern the compiler declares in a Validate
// call (Section 3.1.1).
type AccessType int

// Access types. The first three preserve consistency; the last two disable
// it and require exact compiler analysis.
const (
	AccRead AccessType = iota
	AccWrite
	AccReadWrite
	AccWriteAll
	AccReadWriteAll
)

// writes reports whether the access type enables writing.
func (a AccessType) writes() bool { return a != AccRead }

// noTwin reports whether the access type disables twinning/diffing.
func (a AccessType) noTwin() bool { return a == AccWriteAll || a == AccReadWriteAll }

// fetches reports whether the access type requires updating page contents.
func (a AccessType) fetches() bool { return a != AccWriteAll }

// ProtocolStats counts run-time events beyond the vm and network counters.
// A counter is named once, here: the obs tag is its name in the metrics
// snapshot, and the per-node sum (System.Stats) and the snapshot fold
// (harness.Snapshot) walk the fields, so a new counter is one line.
type ProtocolStats struct {
	LockAcquires  int64 `obs:"protocol.lock.acquires"`
	Barriers      int64 `obs:"protocol.barriers"`
	Validates     int64 `obs:"protocol.validates"`
	Pushes        int64 `obs:"protocol.pushes"`
	WSyncServes   int64 `obs:"protocol.wsync.serves"` // diff messages sent in response to Validate_w_sync
	WSyncBcasts   int64 `obs:"protocol.wsync.bcasts"` // of which broadcast
	DiffFetches   int64 `obs:"protocol.diff.fetches"` // RPC exchanges performed to fetch diffs
	DiffsApplied  int64 `obs:"protocol.diffs.applied"`
	WordsApplied  int64 `obs:"protocol.words.applied"`
	Invalidations int64 `obs:"protocol.invalidations"`
	LockFetches   int64 `obs:"protocol.lock.fetches"` // pages demand-fetched while holding a lock (lock faults)

	// Adaptive protocol counters (EnableAdapt). Promotions, splits, joins
	// and decays are machine-global detector transitions, reported once (at
	// node 0); updates, spans and pushed pages are counted at the producing
	// node.
	AdaptPromotions  int64 `obs:"adapt.promotions"`   // pages switched invalidate → update (whole page)
	AdaptSplits      int64 `obs:"adapt.splits"`       // pages switched to sub-page split bindings
	AdaptJoins       int64 `obs:"adapt.joins"`        // of promotions: pages that joined an adjacent section early
	AdaptDecays      int64 `obs:"adapt.decays"`       // bound pages switched back to invalidate
	AdaptUpdates     int64 `obs:"adapt.updates"`      // update messages sent at barrier departures
	AdaptSpans       int64 `obs:"adapt.spans"`        // section spans shipped in update messages
	AdaptPagesPushed int64 `obs:"adapt.pages.pushed"` // page push deliveries (one per page per consumer)

	// Lock-scope adaptive counters (EnableAdapt). Grants and pages are
	// counted at the releasing node; the detector transition counters are
	// machine-global (the per-lock detectors live with the lock control
	// state) and are folded in by System.Stats.
	AdaptLockGrants     int64 `obs:"adapt.lock.grants"`      // grants that carried piggybacked diffs
	AdaptLockPagesPush  int64 `obs:"adapt.lock.pages"`       // pages piggybacked (one per page per grant)
	AdaptLockPromotions int64 `obs:"adapt.lock.promotions"`  // hand-off edges bound to grant piggybacking
	AdaptLockDecays     int64 `obs:"adapt.lock.decays"`      // bindings dropped on a broken pattern
	AdaptLockProbes     int64 `obs:"adapt.lock.probes"`      // piggybacks withheld for a staleness re-probe
	AdaptLockStaleDrops int64 `obs:"adapt.lock.stale.drops"` // bindings dropped because a re-probe went unread

	// Scale-mode counters (directory.go). DiffServes is
	// maintained unconditionally — it is the serve-balance numerator the
	// scaling table reports; the Dir* counters and the relay accounting
	// only move in scale mode (EnableScale).
	DiffServes      int64 `obs:"protocol.diff.serves"` // diff requests answered with at least one diff payload
	DirRedirects    int64 `obs:"scale.dir.redirects"`  // diff requests answered with a redirect to a delegate instead
	DirHops         int64 `obs:"scale.dir.hops"`       // forwarding hops followed while chasing redirects
	DirFallbacks    int64 `obs:"scale.dir.fallbacks"`  // chases that exhausted and left pages to the Direct retry
	AdaptRelayBytes int64 `obs:"scale.relay.bytes"`    // accounted bytes of the barrier fetch-list relay (master)
}

// System is one DSM machine: N nodes over a network sharing a page-based
// address space. The host backend decides how the nodes execute: the
// deterministic sim engine for the paper's virtual-time numbers, or the
// real-concurrency host for genuine hardware parallelism.
type System struct {
	H      host.Host
	NW     host.Transport
	Costs  model.Costs
	Layout *shm.Layout
	Nodes  []*Node

	locks    map[int]*lock
	barriers map[int]*barrier
	adaptCfg adapt.Config    // detector tuning; meaningful once EnableAdapt ran
	rec      *RecoveryConfig // checkpoint/restore; nil unless EnableRecovery ran
	trace    *obs.Machine    // observability; nil unless EnableTrace ran
	scale    bool            // serve delegation + relay compression; EnableScale

	// departScratch backs runBarrier's departure-time table. Barriers are
	// serialized by the protocol token, so one machine-wide buffer works.
	departScratch []time.Duration
}

// New builds a DSM system for every processor of h. All pages start
// unmapped, as after TreadMarks initialization; the first touch of an
// unwritten page faults once and validates it zero-filled locally,
// without communication.
func New(h host.Host, nw host.Transport, layout *shm.Layout) *System {
	return NewWarm(h, nw, layout, nil)
}

// NewWarm builds a machine whose nodes borrow their storage from stores —
// stores[i] backs rank i: its memory's arena, its protocol log and its
// scratch. A nil slice (the New path) gives each node a private cold
// Store. A store is storage for one rank at a time (harness lends a run
// its stores from its idle list), so no two ranks may share one. What a
// node reads before writing is zeroed on loan, so a warm machine's
// protocol behavior and results are bit-identical to a fresh one's;
// ReleaseWarm hands the storage back after the run.
func NewWarm(h host.Host, nw host.Transport, layout *shm.Layout, stores []*Store) *System {
	s := &System{
		H:        h,
		NW:       nw,
		Costs:    nw.Costs(),
		Layout:   layout,
		locks:    map[int]*lock{},
		barriers: map[int]*barrier{},
	}
	n := h.N()
	if stores == nil {
		stores = make([]*Store, n)
		for i := range stores {
			stores[i] = NewStore()
		}
	}
	for i := 0; i < n; i++ {
		st := stores[i]
		nd := &Node{
			ID:      i,
			sys:     s,
			vc:      make([]int32, n),
			lastBar: make([]int32, n),
			st:      st,
			scratch: &st.scratch,
		}
		// Bind the processor now, not at Run: protocol code may Hold or
		// Wake a peer whose body has not started yet (a first acquire of a
		// remotely homed lock on the concurrent backends).
		nd.p = h.Proc(i)
		nd.Mem = vm.NewWarm(i, layout.Words(), s.Costs, nd, st.arena)
		nd.pages, nd.know = st.lend(nd.Mem.Pages(), n)
		// The serve body is prebuilt per node so the hot request path does
		// not allocate a closure per exchange; arguments and results pass
		// through the srv* fields (safe: serves hold the protocol token,
		// so at most one runs machine-wide).
		nd.srvFn = func() { nd.srvBytes = nd.serveDiffs(nd.srvReq, nd.srvRep) }
		s.Nodes = append(s.Nodes, nd)
	}
	nw.Serve(s.serve)
	return s
}

// serve is the transport's request handler: it runs at (or against, see
// host.Server) the target node and answers a diff request from the
// request's own wire payload — the requester's applied timestamps travel
// in the message, never through shared memory — appending the reply into
// rep. p provides the compute exclusion for the in-process transports;
// socket transports hold the target's compute lock in their service loop.
func (s *System) serve(p host.Proc, at int, req *wire.DiffRequest, rep *wire.DiffReply) int {
	nd := s.Nodes[at]
	// Serves are serialized machine-wide (every caller holds the protocol
	// token), so the per-node argument/result slots cannot race; Hold
	// provides the exclusion — and the happens-before edge — against nd's
	// compute sections.
	nd.srvReq, nd.srvRep = req, rep
	svt, swt := nd.traceStart()
	p.Hold(nd.p, nd.srvFn)
	nd.traceServe(int(req.Req), req.Pages, rep.Diffs, nd.srvBytes, svt, swt)
	return nd.srvBytes
}

// N returns the number of nodes.
func (s *System) N() int { return s.H.N() }

// Run executes body once per node. Nodes were bound to their processors
// at construction (New), so peers may Hold or Wake a node before its body
// starts.
func (s *System) Run(body func(nd *Node)) error {
	return s.H.Run(func(p host.Proc) {
		body(s.Nodes[p.ID()])
	})
}

// ReleaseWarm hands every node's storage back to its Store: snapshot
// pages and twins to the arena's freelist, the arena's loans ended, the
// slabs rewound. Run CheckGuards on the arenas BEFORE calling
// this — release ends the loans the audit needs. The System must not be
// used afterwards.
func (s *System) ReleaseWarm() {
	for _, nd := range s.Nodes {
		nd.st.release(nd)
	}
}

// Stats aggregates protocol statistics across nodes.
func (s *System) Stats() (vm.Counters, ProtocolStats) {
	var vc vm.Counters
	var ps ProtocolStats
	for _, nd := range s.Nodes {
		obs.AddFields(&vc, &nd.Mem.Counters)
		obs.AddFields(&ps, &nd.Stats)
	}
	// The per-lock detectors are machine state (they live with the lock
	// control blocks, serialized like the holder and queue fields), so
	// their transition counters are summed here, not per node.
	for _, l := range s.locks {
		if l.det == nil {
			continue
		}
		st := l.det.Stats
		ps.AdaptLockPromotions += st.Promotions
		ps.AdaptLockDecays += st.Decays
		ps.AdaptLockProbes += st.Probes
		ps.AdaptLockStaleDrops += st.StaleDrops
	}
	return vc, ps
}

// MaxTime returns the largest node clock, the parallel execution time.
func (s *System) MaxTime() time.Duration {
	var t time.Duration
	for i := 0; i < s.N(); i++ {
		if c := s.H.Proc(i).Now(); c > t {
			t = c
		}
	}
	return t
}

// notice is a write notice: owner wrote page in its interval idx. whole
// marks intervals that overwrote the entire page without twinning
// (WRITE_ALL), which lets a fetch from the latest such writer subsume
// older modifications.
type notice struct {
	owner int32
	idx   int32
	whole bool
}

// page is one shared page's consistency record at one node — the record
// TreadMarks keeps per page. The vm holds the other half (contents,
// protection, twin, write extent); see the package comment for what stays
// outside the table.
type page struct {
	applied []int32       // applied[o]: o's latest interval reflected in the local copy
	pending []notice      // each owner's newest unapplied write notice (addNotice)
	diffs   []*storedDiff // the cached diffs of the page, own and received, in store order
	// mode is the consistency action an asynchronous Validate deferred to
	// the page's first fault; it means something only while deferred is set.
	mode       AccessType
	lastDiffed int32 // own modifications diffed up to this interval
	deferred   bool
	dirty      bool // writable in the current/open interval
	noTwin     bool // dirty in WRITE_ALL mode: no twin, snapshotted at the close
	touched    bool // named by an own interval, or image or diff chain moved, since the last recovery record (touch)
}

// setDirty sets or clears a page's dirty bit, keeping ndirty in step. A page
// that leaves the dirty set leaves WRITE_ALL mode with it.
func (nd *Node) setDirty(pg int, on bool) {
	e := &nd.pages[pg]
	if e.dirty == on {
		return
	}
	e.dirty = on
	if on {
		nd.ndirty++
	} else {
		nd.ndirty--
		e.noTwin = false
	}
}

// deferMode registers at as the consistency action the page's first fault
// performs (an asynchronous Validate), keeping ndeferred in step.
func (nd *Node) deferMode(pg int, at AccessType) {
	e := &nd.pages[pg]
	if !e.deferred {
		e.deferred = true
		nd.ndeferred++
	}
	e.mode = at
}

// undefer retires the page's deferred action, if it has one.
func (nd *Node) undefer(pg int) {
	if e := &nd.pages[pg]; e.deferred {
		e.deferred = false
		nd.ndeferred--
	}
}

// appendIntervals appends to dst, as write notices sorted by (owner,
// index), every interval this node knows beyond the vector time base: the
// notice delta a peer at base lacks. A nil base is the zero vector time,
// the whole log. It is what a barrier arrival (base: the last departure),
// a lock grant (the acquirer's vector time), a barrier departure (the
// arriver's) and a recovery record (the previous record's, or nil for a
// full one) carry.
func (nd *Node) appendIntervals(dst []wire.OwnedInterval, base []int32) []wire.OwnedInterval {
	for o, last := range nd.vc {
		var from int32
		if base != nil {
			from = base[o]
		}
		for idx := from + 1; idx <= last; idx++ {
			dst = append(dst, wire.OwnedInterval{Owner: int32(o), Idx: idx, IV: nd.know[o][idx-1]})
		}
	}
	return dst
}

// syncInfo snapshots what an acquirer presents at a synchronization
// operation: its vector time and its pending Validate_w_sync needs, with
// the per-page applied timestamps the responders filter against. Both live
// in the node's scratch — the vector time in vcScratch, the needs in
// needList over needRows — and are rebuilt at its next call: every
// consumer (a grant builder, a queued lockWaiter's eventual granter, the
// barrier master) finishes with them before this node can reach its next
// synchronization operation. The rows stay copies, since an asynchronous
// Validate can advance the live rows before the responder serves.
func (nd *Node) syncInfo() wire.SyncInfo {
	nd.vcScratch = append(nd.vcScratch[:0], nd.vc...)
	info := wire.SyncInfo{VC: nd.vcScratch}
	if len(nd.wsync) == 0 {
		return info
	}
	nd.needRows.rewind()
	needs := nd.needList[:0]
	for _, ws := range nd.wsync {
		needs = append(needs, nd.appliedRows(&nd.needRows, ws.pages))
	}
	nd.needList, info.Needs = needs, needs
	return info
}

// rowBuf is the storage appliedRows carves page lists and their applied
// rows from: one slab holding, for each carve, the pages and then every
// row, and the row list.
type rowBuf struct {
	slab []int32
	rows [][]int32
}

// rewind empties b for a new set of carves.
func (b *rowBuf) rewind() { b.slab, b.rows = b.slab[:0], b.rows[:0] }

// appliedRows pairs pages with a copy of each one's applied row: the form in
// which a requester presents what it already has — Validate_w_sync needs,
// lock-grant floors, diff requests — so the responder filters against the
// message and never reads the requester's memory. The copy is carved after
// what b already holds, from its slab into the page list and every row,
// each a three-index slice capped at its own share, and from its row list,
// both grown when short (an earlier carve keeps the storage it was made
// in). The caller rewinds b when its carves are dead: a diff request passes
// the node's reqRows, since StartRequest consumes the request before it
// returns, and syncInfo its needRows. A nil b makes a fresh copy, for the
// lock floors adapt presents.
func (nd *Node) appliedRows(b *rowBuf, pages []int) wire.WSyncNeed {
	if b == nil {
		b = &rowBuf{}
	}
	n, k := nd.sys.N(), len(pages)
	s0, r0 := len(b.slab), len(b.rows)
	b.slab = slices.Grow(b.slab, k*(n+1))[:s0+k*(n+1)]
	b.rows = slices.Grow(b.rows, k)[:r0+k]
	slab := b.slab[s0:]
	need := wire.WSyncNeed{Pages: slab[:k:k], Applied: b.rows[r0 : r0+k : r0+k]}
	for i, pg := range pages {
		need.Pages[i] = int32(pg)
		row := slab[k+i*n : k+(i+1)*n : k+(i+1)*n]
		copy(row, nd.pages[pg].applied)
		need.Applied[i] = row
	}
	return need
}

// Node is one processor's DSM runtime state.
type Node struct {
	ID  int
	sys *System
	Mem *vm.Mem
	p   host.Proc

	vc      []int32 // vc[o]: latest interval of owner o known here
	lastBar []int32 // vc at the last barrier departure (arrival deltas)
	// know[o][i] is interval i+1 of owner o: the pages it modified (page
	// number, whole-page overwrite flag, declared write extent). A closed
	// interval is immutable, which is why the record is the wire value
	// itself and is sent and learned without a copy: every holder — the
	// creator, the transport, any number of in-process receivers — reads
	// the same frozen arrays.
	know [][]wire.Interval
	// pages is the page table: one entry per shared page, indexed by page
	// number, holding all of the page's consistency state. ndirty and
	// ndeferred count the entries with the dirty and the deferred bit set —
	// what lets closeInterval, Fault and consumeWSync return at once, or
	// stop their ascending walk early, when few pages are marked.
	pages     []page
	ndirty    int
	ndeferred int

	// Serve delegation (directory.go); nil unless EnableScale ran.
	// dirNext[pg] is the node this node last delegated pg's chain to (-1
	// for none).
	dirNext []int32

	// The fetch round in flight (fetchPages, completeInflight): its started
	// exchanges and the pages it asked for, in the order asked, a page
	// named again if a later Validate asked for it before completion.
	inflight      []*host.Pending
	inflightPages []int

	wsync []wsyncRequest  // Validate_w_sync registrations for the next sync
	ad    *adaptNode      // adaptive protocol state; nil unless EnableAdapt
	held  []heldLock      // locks currently held, innermost last
	tr    *obs.NodeTracer // event ring; nil unless EnableTrace (trace.go)
	// waiter is this node's queued acquire while it waits for a lock: the
	// lock's queue points to it until Release pops it.
	waiter lockWaiter

	recoveryState // checkpoint/restore bookkeeping (recovery.go)
	RecStats      RecoveryStats

	// st is the rank's warm storage the node carves from; the scratch is
	// st's, so a new machine starts with the scratch already grown.
	st *Store
	*scratch

	// Prebuilt serve body with its argument/result slots; serves hold the
	// protocol token, so the slots cannot race (see System.serve).
	srvFn    func()
	srvReq   *wire.DiffRequest
	srvRep   *wire.DiffReply
	srvBytes int

	Stats ProtocolStats
}

// heldLock is one held lock on a node's stack: its id and, when the
// adaptive protocol is on, the pages demand-fetched while holding it (the
// critical-section working set the per-lock detector observes).
type heldLock struct {
	id      int
	fetched map[int]bool // nil unless EnableAdapt (newFetchSet)
}

// pushHeld records a lock acquisition on the held stack.
func (nd *Node) pushHeld(id int) {
	nd.held = append(nd.held, heldLock{id: id, fetched: nd.newFetchSet()})
}

// popHeld removes the topmost held entry for id and returns the sorted
// page set fetched while it was held (nil when adaptation is off or
// nothing was fetched).
func (nd *Node) popHeld(id int) []int {
	for i := len(nd.held) - 1; i >= 0; i-- {
		if nd.held[i].id != id {
			continue
		}
		h := nd.held[i]
		nd.held = append(nd.held[:i], nd.held[i+1:]...)
		return sortedKeys(h.fetched)
	}
	return nil
}

// Proc returns the processor the node runs on.
func (nd *Node) Proc() host.Proc { return nd.p }

// pagesOf appends to dst the pages the regions overlap, ascending, each
// once. The regions must be normalized (ascending and disjoint), as the
// interpreter hands them to Validate, so one pass that skips a page equal
// to the last one it appended does it, and the pages lie between the first
// region's and the last one's: dst grows once, to room for those.
func pagesOf(dst []int, regions []shm.Region) []int {
	if len(regions) == 0 {
		return dst
	}
	lo, _ := regions[0].Pages()
	_, hi := regions[len(regions)-1].Pages()
	dst = slices.Grow(dst, hi-lo)
	d0 := len(dst)
	for _, r := range regions {
		p0, p1 := r.Pages()
		if len(dst) > d0 && dst[len(dst)-1] == p0 {
			p0++
		}
		for pg := p0; pg < p1; pg++ {
			dst = append(dst, pg)
		}
	}
	return dst
}

// sortedKeys returns m's keys in ascending order, nil for an empty map: the
// one place the protocol turns a set it built into the deterministic order
// every replicated decision needs. One exactly sized allocation —
// slices.Sorted(maps.Keys(m)) costs four to ten (iterator closures plus
// append growth), which the allocation gates and the ledger would show.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	if len(m) == 0 {
		return nil
	}
	keys := slices.AppendSeq(make([]K, 0, len(m)), maps.Keys(m))
	slices.Sort(keys)
	return keys
}
