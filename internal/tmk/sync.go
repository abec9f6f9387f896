package tmk

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"sdsm/internal/adapt"
	"sdsm/internal/host"
	"sdsm/internal/shm"
	"sdsm/internal/wire"
)

// Hand slots for out-of-band protocol payloads (see host.Transport.Hand):
// lock grants and barrier departures are staged for their consumer before
// it is woken, and cross the wire encoded on socket transports.
const (
	slotGrant host.Tag = 1 + iota
	slotDepart
)

// lock is the control state of one TreadMarks lock: a static home node
// forwards acquire requests to the last releaser. The control state lives
// with the machine (under the protocol-section token); the grant payloads
// are wire values. det is the lock-scope adaptive detector (nil unless
// EnableAdapt): it shares the lock's serialization — every hand-off and
// every holder's fetch report reach it in the lock's own total order, so
// its decisions are a pure function of that serialized history and need
// no cross-node negotiation (see internal/adapt's LockDetector).
type lock struct {
	id           int
	home         int
	holder       int // -1 when free
	lastReleaser int
	queue        []*lockWaiter
	det          *adapt.LockDetector

	// grantSeq numbers this lock's grants for trace flow arrows (advanced by
	// traceGrant, so only when tracing is on). Like the rest of the control
	// state it is machine-shared on every backend, and the acquirer can read
	// the sequence of its own grant after waking: no later grant of this
	// lock can exist until the new holder releases.
	grantSeq int32
}

// lockWaiter is a queued acquire: the waiter's identity plus the
// synchronization info it presented (vector time and Validate_w_sync
// needs — a snapshot, valid because the waiter blocks until granted).
type lockWaiter struct {
	id   int
	p    host.Proc
	info wire.SyncInfo
	// tAtHolder is when the forwarded request has been fielded by the
	// holder.
	tAtHolder time.Duration
}

func (s *System) lock(id int) *lock {
	l, ok := s.locks[id]
	if !ok {
		home := id % s.N()
		l = &lock{id: id, home: home, holder: -1, lastReleaser: home}
		s.locks[id] = l
	}
	return l
}

// buildGrant assembles the grant for the acquirer described by info: the
// write notices it lacks, plus Validate_w_sync piggybacked diffs ("in the
// case of a lock acquire, the requested data is piggy-backed on the
// response"). Only diffs present locally are sent. pushPages, when
// non-empty, is the lock-scope adaptive piggyback: the detector predicted
// the acquirer will fault on these pages in its critical section, so the
// releaser flushes them and attaches every diff the acquirer's presented
// vector time proves it cannot have seen — the run-time analogue of the
// compiler's Validate_w_sync data, riding the same message. The grant is
// built into g, the acquirer's grant slot, its notice and served lists
// appended into the slot's own; it references this node's cached
// (immutable) diffs and intervals directly.
func (nd *Node) buildGrant(g *wire.Grant, reqID int, info wire.SyncInfo, pushPages []int) {
	*g = wire.Grant{Intervals: nd.appendIntervals(g.Intervals[:0], info.VC), Served: g.Served[:0]}
	for _, oi := range g.Intervals {
		g.Bytes += int32(oi.IV.AccountedBytes(nd.sys.adaptOn(), shm.PageWords))
	}
	for _, need := range info.Needs {
		for i, pg32 := range need.Pages {
			pg := int(pg32)
			nd.p.Charge(nd.sys.Costs.SectionScanPerPage)
			nd.flushLocalDiff(pg, false)
			for _, d := range nd.pages[pg].diffs {
				if int(d.Creator) == reqID {
					continue
				}
				if d.helps(need.Applied[i]) {
					g.Served = append(g.Served, d.toWire())
					g.Bytes += int32(d.wireBytes())
				}
			}
		}
	}
	if len(pushPages) > 0 {
		// The acquirer's applied floors for the bound pages ride the
		// acquire request (info.Floors, see acquireFloors), so the chain
		// each page ships is trimmed to the tail the acquirer actually
		// lacks — the same filter a demand fetch against this node would
		// apply. A pushed page the floors missed (the detector re-bound
		// the edge at grant time) falls back to the zero floor: the full
		// cached chain, what a cold requester would get. Either way chains
		// stay gap-free per creator: the receiver prunes write notices by
		// applied coverage, and a chain gap would silently drop the
		// missing intervals' content (see usablePushed). Pages the
		// acquirer registered via Validate_w_sync were already served
		// exactly above — pushing them too would ship (and bill) the same
		// diffs twice.
		needed := map[int]bool{}
		for _, need := range info.Needs {
			for _, pg32 := range need.Pages {
				needed[int(pg32)] = true
			}
		}
		zero := make([]int32, nd.sys.N())
		var pagesPushed int64
		var pushed []wire.Diff
		for _, pg := range pushPages {
			if needed[pg] {
				continue
			}
			nd.p.Charge(nd.sys.Costs.SectionScanPerPage)
			floor := zero
			for _, fn := range info.Floors {
				for j, p32 := range fn.Pages {
					if int(p32) == pg {
						floor = fn.Applied[j]
						break
					}
				}
			}
			ds := nd.collectDiffs(reqID, pg, floor)
			for _, d := range ds {
				pushed = append(pushed, d.toWire())
			}
			if len(ds) > 0 {
				pagesPushed++
			}
		}
		// The chains of a critical section's contiguous pages repeat the
		// same headers page after page; section-coalescing them
		// (wire.CoalesceDiffs) ships each shared header once — the byte
		// economy Table B's IS rows measure.
		g.Pushed = wire.CoalesceDiffs(nil, pushed)
		for _, sp := range g.Pushed {
			g.Bytes += int32(sp.WireBytes())
		}
		// Count only piggybacks that actually shipped diffs: a bound page
		// the releaser has nothing cached for adds no payload and must not
		// inflate the grant/page counters Table B reports.
		if len(g.Pushed) > 0 {
			nd.Stats.AdaptLockGrants++
			nd.Stats.AdaptLockPagesPush += pagesPushed
		}
	}
}

// applyGrant merges a grant at the acquirer. Served and usable Pushed
// diffs are applied in one pass: applyDiffs globally sorts by coverage,
// and the two sets may overlap the same pages. Pushed diffs thus take the
// identical path a demand fetch would — ordering, applied-timestamp
// advancement, notice pruning, revalidation — which is why adapt-on and
// adapt-off runs produce bit-identical memory images.
func (nd *Node) applyGrant(g *wire.Grant) {
	for _, oi := range g.Intervals {
		nd.learnInterval(int(oi.Owner), oi.Idx, oi.IV)
	}
	diffs := g.Served
	if len(g.Pushed) > 0 {
		// Expand the piggyback's section spans back to the per-page diffs
		// they encode: the span form is a header economy on the wire, and
		// the apply path — complete-or-nothing filtering included — stays
		// the version-3 per-page path unchanged.
		diffs = append(append([]wire.Diff(nil), g.Served...), nd.usablePushed(g.Served, wire.ExpandSpans(nil, g.Pushed))...)
	}
	nd.applyDiffs(diffs)
}

// usablePushed filters piggybacked diffs down to the pages the grant
// resolves completely: a pushed page is applied only when the grant's
// diffs cover every write notice pending on it here. Overlapping diffs of
// migratory pages are only ordered correctly within one applyDiffs pass —
// applying a partial (newer) set now and fetching an older overlapping
// diff at a later fault would regress the page's content (the exact
// lost-update shape wire.Diff.Covers ordering exists to prevent). An
// incomplete page drops its pushed diffs entirely and takes the normal
// fault path, where all outstanding diffs arrive in one exchange; the
// resulting in-critical-section fetch also tells the detector the
// prediction went stale.
func (nd *Node) usablePushed(served, pushed []wire.Diff) []wire.Diff {
	pages := map[int][]wire.Diff{}
	for _, d := range pushed {
		pages[int(d.Page)] = append(pages[int(d.Page)], d)
	}
	var out []wire.Diff
	for _, pg := range sortedKeys(pages) {
		staged := append([]wire.Diff(nil), pages[pg]...)
		for _, d := range served {
			if int(d.Page) == pg {
				staged = append(staged, d)
			}
		}
		// Simulate the coverage the staged diffs establish, requiring
		// per-creator chain contiguity: a run diff only counts once the
		// coverage has reached its From (content below From is not in its
		// runs, even though applyDiffs would advance the timestamp past
		// it). Whole snapshots cover everything up to their Covers.
		applied := append([]int32(nil), nd.pages[pg].applied...)
		for changed := true; changed; {
			changed = false
			for _, d := range staged {
				if d.Whole {
					for o, c := range d.Covers {
						if c > applied[o] {
							applied[o] = c
							changed = true
						}
					}
				} else if d.From <= applied[d.Creator] && d.To > applied[d.Creator] {
					applied[d.Creator] = d.To
					changed = true
				}
			}
		}
		complete := true
		for _, nt := range nd.pages[pg].pending {
			if nt.idx > applied[nt.owner] {
				complete = false
				break
			}
		}
		if complete {
			out = append(out, pages[pg]...)
		}
	}
	return out
}

// Acquire obtains lock id, receiving the releaser's write notices
// (invalidations happen here, per lazy release consistency). The request
// goes to the lock's home, which forwards it to whoever will build the
// grant: the holder, at its release (the acquirer queues and blocks), or —
// the lock being free — the last releaser, now.
func (nd *Node) Acquire(id int) {
	nd.p.Begin()
	defer nd.p.End()
	nd.Mem.BeginProtBatch()
	defer nd.Mem.FlushProtBatch(nd.p)
	nd.completeInflight()
	nd.Stats.LockAcquires++
	avt, awt := nd.traceStart()
	s := nd.sys
	c := s.Costs
	// The grant stays nil, and its trace sequence zero, when none crosses
	// nodes: a single node, or re-acquiring a lock this node released last.
	var g *wire.Grant
	var seq int32
	if s.N() == 1 {
		nd.p.Charge(c.LockMgmt)
	} else {
		l := s.lock(id)
		floors, floorBytes := nd.acquireFloors(l)
		t := nd.p.Now()
		if l.home != nd.ID {
			t = s.NW.Message(nd.ID, l.home, t, floorBytes)
		}
		s.H.Proc(l.home).Charge(c.LockMgmt)
		t += c.LockMgmt
		granter := l.holder
		if granter == -1 {
			granter = l.lastReleaser
		}
		if l.holder == -1 && granter == nd.ID {
			// Nothing new to learn; the home just answers. The detector
			// still records the self hand-off — it is part of the lock's
			// serialized chain (never bound: there is nothing to piggyback
			// to yourself).
			l.holder = nd.ID
			l.handOff(s, nd.ID, nd.ID)
			if l.home != nd.ID {
				t = s.NW.Message(l.home, nd.ID, t, 0)
			}
			nd.p.SetClock(t)
		} else {
			if granter != l.home {
				t = s.NW.Message(l.home, granter, t, floorBytes)
				s.H.Proc(granter).Charge(c.LockMgmt)
				t += c.LockMgmt
			}
			info := nd.syncInfo()
			info.Floors = floors
			if l.holder != -1 {
				// The queue holds the node's own slot until Release pops
				// it: a node waits for one lock at a time.
				nd.waiter = lockWaiter{id: nd.ID, p: nd.p, info: info, tAtHolder: t}
				l.queue = append(l.queue, &nd.waiter)
				nd.p.Block("lock")
				g = s.NW.TakeHand(nd.p, slotGrant).(*wire.Grant)
			} else {
				// The last releaser may be mid-computation on the real
				// host; Hold serializes the grant construction (which may
				// flush its diffs) against its compute section. The grant
				// is built into this node's slot and read there.
				l.holder = nd.ID
				h := &nd.hold
				if h.run == nil {
					h.run = h.build
				}
				h.from, h.l, h.to, h.info = s.Nodes[granter], l, nd.ID, info
				nd.p.Hold(h.from.p, h.run)
				*h = heldGrant{run: h.run} // holds nothing of this machine
				g = &nd.grant
				s.H.Proc(granter).Charge(c.LockMgmt)
				t += c.LockMgmt
				nd.p.SetClock(s.NW.Message(granter, nd.ID, t, int(g.Bytes)))
			}
			// No later grant of this lock can exist until this node releases.
			seq = l.grantSeq
		}
	}
	if g != nil {
		nd.applyGrant(g)
	}
	nd.consumeWSync()
	nd.pushHeld(id)
	nd.traceLockAcq(id, seq, avt, awt)
}

// grantTo builds, at the granting node, the grant that hands lock l to
// acquirer to, from the synchronization info the acquirer presented, into
// the acquirer's grant slot, and returns the slot. The lock detector's
// hand-off record and piggyback decision happen here: both callers run
// under the protocol-section token, in the lock's serialized order.
func (nd *Node) grantTo(l *lock, to int, info wire.SyncInfo) *wire.Grant {
	g := &nd.sys.Nodes[to].grant
	nd.buildGrant(g, to, info, l.handOff(nd.sys, nd.ID, to))
	nd.traceGrant(l, to, g)
	return g
}

// heldGrant is the grant construction a free acquire runs at the granter
// under Hold: its arguments, and run, the one func value that calls build,
// made at the store's first such acquire, so an acquire moves nothing to
// the heap.
type heldGrant struct {
	from *Node
	l    *lock
	to   int
	info wire.SyncInfo
	run  func()
}

func (h *heldGrant) build() { h.from.grantTo(h.l, h.to, h.info) }

// Release ends the critical section: the open interval closes (a release
// point) and a queued waiter, if any, is granted the lock directly — the
// grant is built into the waiter's slot, handed by pointer through the
// transport, and the waiter woken.
func (nd *Node) Release(id int) {
	nd.p.Begin()
	defer nd.p.End()
	nd.Mem.BeginProtBatch()
	defer nd.Mem.FlushProtBatch(nd.p)
	nd.completeInflight()
	nd.closeInterval()
	nd.traceLockRel(id)
	s := nd.sys
	if s.N() == 1 {
		nd.popHeld(id)
		return
	}
	l := s.lock(id)
	if l.holder != nd.ID {
		panic(fmt.Sprintf("tmk: node %d releasing lock %d held by %d", nd.ID, id, l.holder))
	}
	// The departing holder's critical-section fetch report closes its
	// observation on the lock's chain before any hand-off is decided.
	l.released(s, nd.popHeld(id))
	l.lastReleaser = nd.ID
	if len(l.queue) == 0 {
		l.holder = -1
		return
	}
	w := l.queue[0]
	n := copy(l.queue, l.queue[1:])
	l.queue[n] = nil
	l.queue = l.queue[:n]
	l.holder = w.id
	g := nd.grantTo(l, w.id, w.info)
	t := max(nd.p.Now(), w.tAtHolder) + s.Costs.LockMgmt
	t = s.NW.Message(nd.ID, w.id, t, int(g.Bytes))
	s.NW.Hand(nd.p, w.id, slotGrant, g)
	nd.p.Wake(w.p, t)
}

// barrier is one episode of a named barrier: the arrival messages received
// so far. The episode object and its arrivals slice are reused across
// epochs (the executor resets the slice while still holding the protocol
// token, so no arrival for the next episode can interleave).
type barrier struct {
	arrivals []barrierArrival
}

// barrierArrival is one node's arrival: its identity, arrival time, and
// arrival message (vector time, interval delta since its last departure,
// Validate_w_sync needs).
type barrierArrival struct {
	id  int
	p   host.Proc
	at  time.Duration
	arr wire.Arrival
}

// remoteWSync is one node's Validate_w_sync registration together with the
// diffs the responsible processors contributed; the data rides the barrier
// departure message ("the data can be broadcast to all other processors at
// the time of the barrier").
type remoteWSync struct {
	req    int
	served []wire.Diff
	bytes  int
}

// wsyncPage is one page of a requester's Validate_w_sync needs with the
// applied row its arrival message presented for it.
type wsyncPage struct {
	pg      int
	applied []int32
}

// servedFor returns the Validate_w_sync payload resolved for requester id.
func servedFor(allWS []remoteWSync, id int) ([]wire.Diff, int) {
	for i := range allWS {
		if allWS[i].req == id {
			return allWS[i].served, allWS[i].bytes
		}
	}
	return nil, 0
}

func (s *System) barrier(id int) *barrier {
	b, ok := s.barriers[id]
	if !ok {
		b = &barrier{}
		s.barriers[id] = b
	}
	return b
}

// Barrier synchronizes all nodes. Arrival closes the open interval; the
// master (node 0) merges the write notices from the arrival messages and
// redistributes the missing notices on the departure messages; departure
// applies the invalidations. Validate_w_sync requests ride the arrival and
// departure messages and are answered right after departure (Section
// 3.2.1), with broadcast when a responder sends the same data to everyone.
func (nd *Node) Barrier(id int) {
	nd.p.Begin()
	defer nd.p.End()
	nd.Mem.BeginProtBatch()
	defer nd.Mem.FlushProtBatch(nd.p)
	nd.completeInflight()
	nd.closeInterval()
	nd.Stats.Barriers++
	s := nd.sys
	// Log before send: the recovery record is durable before the arrival —
	// the first message derived from this epoch's state — is built.
	nd.writeRecord()
	oldBar := nd.epochBase()
	b := s.barrier(id)
	nd.injectFault(b)
	avt, awt := nd.traceBarArrive(id)
	if s.N() > 1 {
		info := nd.syncInfo()
		nd.ivScratch = nd.appendIntervals(nd.ivScratch[:0], nd.lastBar)
		b.arrivals = append(b.arrivals, barrierArrival{id: nd.ID, p: nd.p, at: nd.p.Now(), arr: wire.Arrival{
			VC: info.VC, Intervals: nd.ivScratch, Needs: info.Needs, Fetched: nd.fetchedSorted(),
		}})
		if len(b.arrivals) < s.N() {
			nd.p.Block("barrier")
		} else {
			s.runBarrier(b, nd)
			b.arrivals = b.arrivals[:0]
		}
	}
	dep := nd.postBarrier()
	nd.traceBarDepart(id, avt, awt)
	nd.adaptStep(oldBar, dep.Fetched)
}

// runBarrier executes the master logic in the last arriver's context,
// consuming only the arrival messages (never the arrived nodes' vector
// state): notices the master lacks are learned from the arrival interval
// deltas, departures are staged as wire values through the transport.
func (s *System) runBarrier(b *barrier, executor *Node) {
	c := s.Costs
	master := s.Nodes[0]
	n := s.N()
	adaptOn := s.adaptOn()

	// Arrival messages, processed in arrival order; the master merges the
	// write notices it lacks into its own state (charging its own
	// processor for the invalidations it performs on itself). The arrival
	// carries every interval since the arriver's last departure; the
	// master counts and learns only what lock transfers have not already
	// taught it.
	var tDep time.Duration
	for _, a := range b.arrivals {
		if a.id == master.ID {
			if a.at > tDep {
				tDep = a.at
			}
			continue
		}
		bytes := 16
		for _, oi := range a.arr.Intervals {
			if int(oi.Owner) == master.ID || oi.Idx <= master.vc[oi.Owner] {
				continue
			}
			bytes += oi.IV.AccountedBytes(adaptOn, shm.PageWords)
		}
		if adaptOn {
			fb := s.relayFetchedBytes(a.arr.Fetched)
			bytes += fb
			master.Stats.AdaptRelayBytes += int64(fb)
		}
		h := s.NW.Message(a.id, master.ID, a.at, bytes)
		if h > tDep {
			tDep = h
		}
		for _, oi := range a.arr.Intervals {
			if int(oi.Owner) == master.ID || oi.Idx <= master.vc[oi.Owner] {
				continue
			}
			master.learnInterval(int(oi.Owner), oi.Idx, oi.IV)
		}
	}
	// The master fields n-1 arrival interrupts back to back.
	tDep += time.Duration(n-2)*c.RecvOverhead + c.BarrierMgmt

	// With all notices merged, resolve the Validate_w_sync requests: the
	// responsible processors contribute their diffs now (every processor
	// has arrived, so the requested data is final) and the payload rides
	// the departure messages. The requesters are described entirely by
	// their arrival messages. Identical payloads to every requester count
	// as a broadcast.
	// The requesters' lists are carved from the master's scratch: a
	// departure's Served is read by its recipient's postBarrier before the
	// recipient can arrive here again.
	allWS, served := master.wsAll[:0], master.wsServed[:0]
	for _, a := range b.arrivals {
		if len(a.arr.Needs) == 0 {
			continue
		}
		// The requested pages in ascending order, each once: one need's
		// pages already are, several needs may interleave or overlap (every
		// row for a page is the same snapshot, so which one survives is moot).
		pages := master.wsPages[:0]
		for _, need := range a.arr.Needs {
			for i, pg := range need.Pages {
				pages = append(pages, wsyncPage{pg: int(pg), applied: need.Applied[i]})
			}
		}
		master.wsPages = pages
		if len(a.arr.Needs) > 1 {
			slices.SortStableFunc(pages, func(x, y wsyncPage) int { return x.pg - y.pg })
			pages = slices.CompactFunc(pages, func(x, y wsyncPage) bool { return x.pg == y.pg })
		}
		rw := remoteWSync{req: a.id}
		first := len(served)
		for _, wp := range pages {
			for _, r := range master.wsyncResponder(a.id, wp.applied, wp.pg) {
				resp := s.Nodes[r]
				resp.p.Charge(c.SectionScanPerPage)
				resp.flushLocalDiff(wp.pg, false)
				var nServed int32
				for _, d := range resp.pages[wp.pg].diffs {
					if int(d.Creator) == a.id || (int(d.Creator) != r && !d.Whole) {
						continue
					}
					if d.helps(wp.applied) {
						served = append(served, d.toWire())
						rw.bytes += d.wireBytes()
						resp.Stats.WSyncServes++
						nServed++
					}
				}
				resp.traceWSync(wp.pg, a.id, nServed)
			}
		}
		rw.served = served[first:len(served):len(served)]
		allWS = append(allWS, rw)
	}
	master.wsAll, master.wsServed = allWS, served
	// Broadcast accounting: a diff delivered to every other processor is a
	// broadcast. Diffs are identified by content key now that they cross
	// the transport as values.
	if len(allWS) > 0 {
		if master.wsFanout == nil {
			master.wsFanout = map[diffKey]int{}
		}
		fanout := master.wsFanout
		clear(fanout)
		for _, rw := range allWS {
			for _, d := range rw.served {
				fanout[keyOf(d)]++
			}
		}
		for k, cnt := range fanout {
			if cnt == n-1 {
				s.Nodes[k.creator].Stats.WSyncBcasts++
			}
		}
	}

	// The adaptive protocol's global observation: every arriver's fetch
	// list, relayed on the departures sorted by node so all replicas of the
	// pattern detector advance on identical input.
	var fetched []wire.NodePages
	var fetchedBytes int
	if adaptOn {
		for _, a := range b.arrivals {
			if len(a.arr.Fetched) > 0 {
				fetched = append(fetched, wire.NodePages{Node: int32(a.id), Pages: a.arr.Fetched})
				fetchedBytes += s.relayFetchedBytes(a.arr.Fetched)
			}
		}
		slices.SortFunc(fetched, func(x, y wire.NodePages) int { return cmp.Compare(x.Node, y.Node) })
	}

	// Departure messages, serialized at the master; Validate_w_sync
	// payloads ride along. Each node's departure is staged through the
	// transport before the node is woken, handed by pointer to its depart
	// slot, with the interval list built in its depScratch: the recipient
	// consumed its previous departure (postBarrier) before it could arrive
	// here.
	if cap(s.departScratch) < n {
		s.departScratch = make([]time.Duration, n)
	}
	departAt := s.departScratch[:n]
	dep := tDep
	relayCharged := false
	for _, a := range b.arrivals {
		if a.id == master.ID {
			continue
		}
		ivs := master.appendIntervals(s.Nodes[a.id].depScratch[:0], a.arr.VC)
		s.Nodes[a.id].depScratch = ivs
		bytes := 16
		if !s.scale || !relayCharged {
			// Off scale every departure re-carries the fetch-list relay —
			// the per-recipient accounting the paper-era goldens pin. Scale
			// mode prices the relay once per barrier: the departure fan-out
			// is a broadcast of identical relay content, so per-node relay
			// cost stays flat as the machine grows.
			bytes += fetchedBytes
			relayCharged = true
			master.Stats.AdaptRelayBytes += int64(fetchedBytes)
		}
		for _, oi := range ivs {
			bytes += oi.IV.AccountedBytes(adaptOn, shm.PageWords)
		}
		served, wsBytes := servedFor(allWS, a.id)
		bytes += wsBytes
		h := s.NW.Message(master.ID, a.id, dep, bytes)
		dep += c.SendOverhead
		departAt[a.id] = h
		d := &s.Nodes[a.id].depart
		*d = wire.Depart{Time: int64(h), Intervals: ivs, Served: served, Fetched: fetched}
		s.NW.Hand(executor.p, a.id, slotDepart, d)
	}
	mServed, _ := servedFor(allWS, master.ID)
	departAt[master.ID] = tDep + time.Duration(n-1)*c.SendOverhead
	master.depart = wire.Depart{Time: int64(departAt[master.ID]), Served: mServed, Fetched: fetched}
	s.NW.Hand(executor.p, master.ID, slotDepart, &master.depart)

	for _, a := range b.arrivals {
		if a.id == executor.ID {
			continue
		}
		executor.p.Wake(a.p, departAt[a.id])
	}
	executor.p.SetClock(departAt[executor.ID])
}

// postBarrier consumes the departure message staged by runBarrier:
// departure time, missing write notices, and Validate_w_sync data. It
// returns the departure so the adaptive step can read the relayed fetch
// observations. A single node has no master to hear from: its departure
// is empty and its clock stays.
func (nd *Node) postBarrier() wire.Depart {
	var d wire.Depart
	if nd.sys.N() > 1 {
		d = *nd.sys.NW.TakeHand(nd.p, slotDepart).(*wire.Depart)
		nd.p.SetClock(time.Duration(d.Time))
	}
	for _, oi := range d.Intervals {
		if int(oi.Owner) == nd.ID {
			continue
		}
		nd.learnInterval(int(oi.Owner), oi.Idx, oi.IV)
	}
	nd.applyDiffs(d.Served)
	nd.consumeWSync()
	// The next epoch starts with no scale-mode delegation (directory.go).
	nd.forgetDirectory()
	// After a departure every node holds the same merged vector time; the
	// snapshot bounds the next arrival's interval delta.
	copy(nd.lastBar, nd.vc)
	return d
}

// wsyncResponder determines, from the barrier master's merged knowledge,
// which nodes answer requester req's Validate_w_sync for page pg, given the
// requester's applied timestamps for the page (from its arrival message):
// every other owner with an interval naming pg beyond the requester's
// floor, or the latest such writer alone when it overwrote the whole page.
// Only each owner's last interval naming pg matters, so the answer is read
// off wsLast, which is first brought up to vc: the table is a function of
// the logs up to vc alone (splits a responder's flush appended a moment
// ago included) and needs no hook where intervals are learned or closed.
// The result is the node's wsResp scratch, ascending, valid until the next
// call.
func (nd *Node) wsyncResponder(req int, appliedPg []int32, pg int) []int {
	n := len(nd.vc)
	if len(nd.wsLast) == 0 {
		nd.wsLast = slices.Grow(nd.wsLast, len(nd.pages)*n)[:len(nd.pages)*n]
		nd.wsSeen = slices.Grow(nd.wsSeen, n)[:n]
		clear(nd.wsLast)
		clear(nd.wsSeen)
	}
	for o, seen := range nd.wsSeen {
		for ; seen < nd.vc[o]; seen++ {
			for _, ref := range nd.know[o].at(seen + 1).Pages {
				v := (seen + 1) << 1
				if ref.Whole {
					v |= 1
				}
				nd.wsLast[int(ref.Page)*n+o] = v
			}
		}
		nd.wsSeen[o] = seen
	}
	out := nd.wsResp[:0]
	var latest int32
	latestOwner := -1
	for o, v := range nd.wsLast[pg*n : (pg+1)*n] {
		if o == req || v>>1 <= appliedPg[o] {
			continue
		}
		out = append(out, o)
		if v>>1 >= latest>>1 { // ties go to the larger owner: o ascends
			latest, latestOwner = v, o
		}
	}
	if latest&1 != 0 {
		out = append(out[:0], latestOwner) // the latest writer overwrote the whole page
	}
	nd.wsResp = out
	return out
}
