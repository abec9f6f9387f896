package tmk

import (
	"fmt"
	"slices"

	"sdsm/internal/adapt"
	"sdsm/internal/wire"
)

// tagAdapt is the mailbox tag of adaptive update messages (tagPush + 1).
const tagAdapt = 102

// adaptNode is one node's slice of the adaptive protocol: the replicated
// pattern detector (every node advances an identical copy on identical
// global input, so bindings never need negotiating) and the node's own
// demand-fetch log for the current epoch, which rides its next barrier
// arrival.
type adaptNode struct {
	det     *adapt.Detector
	fetched map[int32]bool // pages demand-fetched since the last barrier departure

	// Epoch-lifetime scratch, rebuilt by every adaptStep and dead when it
	// returns (the detector keeps no reference to an observation): the
	// observation itself — obs, page-ascending, its writer and reader lists
	// carved out of wbuf and rbuf — the page-indexed tally it is laid out
	// from, the exchange schedule (sends[c]: pages pushed to consumer c;
	// recvs[q]: a push is due from producer q), one message's diffs, a
	// received update's expansion, and the arrival's copy of the last
	// departure's vector time.
	obs    []adapt.PageObs
	wbuf   []adapt.WriteExt
	rbuf   []int
	tally  []pageTally
	epoch  int32
	sends  [][]int
	recvs  []bool
	ds     []wire.Diff
	ex     []wire.Diff
	oldBar []int32
	// updates[c] is the update sent to consumer c, its spans in their own
	// buffer. It lives an epoch longer than the scratch above: c reads the
	// message after this step returns, and the barrier that ends the epoch
	// orders that read before the next update to c rebuilds it. One per
	// consumer, because a shared one would be rebuilt for the next
	// consumer's message before the first has read its own.
	updates []wire.Update
}

// pageTally is one page's entry in the table observe lays an epoch's
// observation out from: how many write notices and reads name the page,
// then its index in obs. An entry is meaningful only while its stamp equals
// the node's current epoch, so nothing is cleared between barriers.
type pageTally struct {
	stamp, w, r, slot int32
}

// EnableAdapt switches the machine to the adaptive update protocol: the
// run-time profiles the fault/fetch traffic per barrier epoch, infers
// stable producer→consumer page patterns, and pushes promoted pages'
// diffs at barrier departure instead of letting consumers fault — at
// section granularity: bound pages cluster into contiguous sections, one
// run-length-encoded diff span per (consumer, section), and falsely
// shared two-writer pages carry sub-page split bindings (DESIGN.md §8).
// It also arms the lock-scope detectors: each lock's hand-off history
// drives a per-lock adapt.LockDetector whose bound edges piggyback the
// predicted critical-section working set on the grant (see grantTo in
// sync.go). Must be called after New and before Run.
//
// This file is also where the protocol's call sites learn that the mode is
// off: every function below that the base protocol calls unconditionally
// (noteFetch, fetchedSorted, epochBase, adaptStep, the lock hooks) tests
// nd.ad or the lock's detector itself and does nothing without one.
func (s *System) EnableAdapt(cfg adapt.Config) {
	s.adaptCfg = cfg
	for _, nd := range s.Nodes {
		nd.ad = &adaptNode{
			det: adapt.New(cfg), fetched: map[int32]bool{},
			tally: make([]pageTally, nd.Mem.Pages()),
			sends: make([][]int, s.N()), recvs: make([]bool, s.N()),
			updates: make([]wire.Update, s.N()),
		}
	}
}

// adaptOn reports whether the machine runs the adaptive protocol.
func (s *System) adaptOn() bool { return s.Nodes[0].ad != nil }

// adaptDet returns the lock's detector, creating it on first use when the
// machine runs the adaptive protocol.
func (l *lock) adaptDet(s *System) *adapt.LockDetector {
	if !s.adaptOn() {
		return nil
	}
	if l.det == nil {
		l.det = adapt.NewLock(s.adaptCfg)
	}
	return l.det
}

// handOff records the hand-off from → to on the lock's detector and returns
// the pages it predicts the acquirer will fault on in its critical section —
// the grant's piggyback (buildGrant). Nil without a detector.
func (l *lock) handOff(s *System, from, to int) []int {
	if det := l.adaptDet(s); det != nil {
		return det.Grant(from, to)
	}
	return nil
}

// released reports the departing holder's critical-section fetch set to the
// lock's detector.
func (l *lock) released(s *System, fetched []int) {
	if det := l.adaptDet(s); det != nil {
		det.Hold(fetched)
	}
}

// acquireFloors assembles the applied floors an acquire request carries
// for chain trimming: when the detector has bound the upcoming hand-off
// edge (granter → this node), the floors cover the bound pages, so the
// granter piggybacks only the chain tails the acquirer actually lacks
// instead of its full cached chains, and their accounted size
// (wire.FloorBytes) is charged on the request legs. Adapt-off machines —
// and unbound edges — carry nothing, keeping the request bytes identical
// to the base protocol. The granter is predicted here, and the prediction
// is exact: everything from the request to the grant runs under the
// protocol token, the queue is FIFO, and a queued acquirer is granted by
// the waiter enqueued directly ahead of it (or the current holder). The
// read is prediction-only: the detector is neither created nor mutated
// (the hand-off itself is recorded by handOff at grant time, which may
// rebind the edge — buildGrant falls back to a zero floor for any pushed
// page the floors missed).
func (nd *Node) acquireFloors(l *lock) ([]wire.WSyncNeed, int) {
	if l.det == nil {
		return nil, 0
	}
	granter := l.lastReleaser
	if l.holder != -1 {
		granter = l.holder
		if n := len(l.queue); n > 0 {
			granter = l.queue[n-1].id
		}
	}
	if granter == nd.ID {
		return nil, 0
	}
	pages, ok := l.det.Bound(granter, nd.ID)
	if !ok || len(pages) == 0 {
		return nil, 0
	}
	return []wire.WSyncNeed{nd.appliedRows(nil, pages)}, wire.FloorBytes(len(pages), nd.sys.N())
}

// newFetchSet returns the page set a newly held lock collects its
// critical-section demand fetches in (noteFetch); nil off adapt.
func (nd *Node) newFetchSet() map[int]bool {
	if nd.ad == nil {
		return nil
	}
	return map[int]bool{}
}

// noteFetch logs a demand fetch: always as a lock fault when a lock is
// held (the Table B metric, maintained with or without adaptation), and —
// under the adaptive protocol — both in the innermost held lock's
// critical-section working set (the lock detector's observation) and in
// the node's barrier-epoch log (the barrier detector's).
func (nd *Node) noteFetch(page int) {
	if n := len(nd.held); n > 0 {
		nd.Stats.LockFetches++
		if f := nd.held[n-1].fetched; f != nil {
			f[page] = true
		}
	}
	if nd.ad != nil {
		nd.ad.fetched[int32(page)] = true
	}
}

// fetchedSorted returns the epoch's demand-fetched pages, sorted — what the
// node's barrier arrival and its recovery record carry. Nil off adapt.
func (nd *Node) fetchedSorted() []int32 {
	if nd.ad == nil {
		return nil
	}
	return sortedKeys(nd.ad.fetched)
}

// epochBase snapshots, at a barrier arrival, the shared vector time of the
// last departure before this departure overwrites it: adaptStep attributes
// the intervals in (epochBase, vc] to the ending epoch. Nil off adapt.
func (nd *Node) epochBase() []int32 {
	if nd.ad == nil {
		return nil
	}
	nd.ad.oldBar = append(nd.ad.oldBar[:0], nd.lastBar...)
	return nd.ad.oldBar
}

// checkpointAdapt adds the adaptive state to a recovery record: the epoch's
// fetch log and the serialized detector.
func (nd *Node) checkpointAdapt(ck *wire.Checkpoint) {
	if nd.ad != nil {
		ck.Fetched, ck.Adapt = nd.fetchedSorted(), nd.ad.det.Snapshot()
	}
}

// restoreAdapt rebuilds the adaptive state from the newest recovery record.
func (nd *Node) restoreAdapt(ck *wire.Checkpoint) {
	if nd.ad == nil {
		return
	}
	if err := nd.ad.det.RestoreSnapshot(ck.Adapt); err != nil {
		panic(fmt.Sprintf("tmk: node %d restoring detector: %v", nd.ID, err))
	}
	clear(nd.ad.fetched)
	for _, pg := range ck.Fetched {
		nd.ad.fetched[pg] = true
	}
}

// adaptFetchedBytes is the accounted wire size of one relayed fetch list.
func adaptFetchedBytes(pages int) int { return 8 + 4*pages }

// observe assembles the ending epoch's observation in the node's scratch:
// per page, the writers with their write extents — from the write notices
// in (oldBar, vc] — and the readers, from the departure's relayed per-node
// fetch lists. The first pass counts each page's notices and reads; a walk
// over the touched page range then lays the pages out in ascending order,
// giving each a window of wbuf and rbuf sized by its counts; the second
// pass fills the windows. Nothing is sorted and, once the buffers have
// grown to the epoch's size, nothing is allocated.
func (nd *Node) observe(oldBar []int32, fetched []wire.NodePages) []adapt.PageObs {
	ad := nd.ad
	ad.epoch++
	lo, hi, nw, nr := len(ad.tally), 0, 0, 0
	count := func(pg int32) *pageTally {
		t := &ad.tally[pg]
		if t.stamp != ad.epoch {
			*t = pageTally{stamp: ad.epoch}
			lo, hi = min(lo, int(pg)), max(hi, int(pg)+1)
		}
		return t
	}
	for o := range nd.vc {
		for idx := oldBar[o] + 1; idx <= nd.vc[o]; idx++ {
			for _, ref := range nd.know[o].at(idx).Pages {
				count(ref.Page).w++
				nw++
			}
		}
	}
	for _, np := range fetched {
		for _, pg := range np.Pages {
			count(pg).r++
			nr++
		}
	}
	ad.wbuf, ad.rbuf = slices.Grow(ad.wbuf[:0], nw), slices.Grow(ad.rbuf[:0], nr)
	obs, nw, nr := ad.obs[:0], 0, 0
	for pg := lo; pg < hi; pg++ {
		t := &ad.tally[pg]
		if t.stamp != ad.epoch {
			continue
		}
		w, r := nw+int(t.w), nr+int(t.r)
		t.slot = int32(len(obs))
		obs = append(obs, adapt.PageObs{Page: pg, Writers: ad.wbuf[nw:nw:w], Readers: ad.rbuf[nr:nr:r]})
		nw, nr = w, r
	}
	ad.obs = obs
	for o := range nd.vc {
		for idx := oldBar[o] + 1; idx <= nd.vc[o]; idx++ {
			for _, ref := range nd.know[o].at(idx).Pages {
				ob := &obs[ad.tally[ref.Page].slot]
				ext := adapt.WriteExt{Node: o, Lo: int(ref.ExtLo), Hi: int(ref.ExtHi)}
				if n := len(ob.Writers); n > 0 && ob.Writers[n-1].Node == o {
					// The owner closed several intervals covering the page
					// this epoch (a lazy-flush split): union the extents, an
					// unknown extent poisoning the union to unknown.
					last := &ob.Writers[n-1]
					if last.Hi == 0 || ext.Hi == 0 {
						last.Lo, last.Hi = 0, 0
					} else {
						last.Lo, last.Hi = min(last.Lo, ext.Lo), max(last.Hi, ext.Hi)
					}
					continue
				}
				ob.Writers = append(ob.Writers, ext)
			}
		}
	}
	for _, np := range fetched {
		for _, pg := range np.Pages {
			ob := &obs[ad.tally[pg].slot]
			ob.Readers = append(ob.Readers, int(np.Node))
		}
	}
	return obs
}

// adaptStep runs right after a barrier departure: it assembles the epoch's
// observation from globally shared state, advances the detector, and
// performs the update exchange for promoted pages.
//
// The observation is identical at every node: the writers (with their
// write extents) come from the write notices in (oldBar, vc] — after a
// departure all nodes hold the same merged vector time and the same
// interval records — and the readers from the departure's relayed
// per-node fetch lists. Both sides of every exchange therefore derive the
// same send/receive schedule independently, the way Push's send and
// receive phases already pair up on all backends. A no-op off adapt.
func (nd *Node) adaptStep(oldBar []int32, fetched []wire.NodePages) {
	ad := nd.ad
	if ad == nil {
		return
	}
	s := nd.sys
	obs := nd.observe(oldBar, fetched)
	ad.det.LogTrans = nd.tracing()
	ad.det.AdvancePages(obs)
	if nd.ID == 0 {
		// Detector transitions are machine-global (every replica counts the
		// same ones); node 0 reports them so the aggregate is not N-fold.
		st := ad.det.Stats
		nd.Stats.AdaptPromotions = st.Promotions
		nd.Stats.AdaptSplits = st.Splits
		nd.Stats.AdaptJoins = st.SectionJoins
		nd.Stats.AdaptDecays = st.Decays
		nd.traceAdapt(ad.det.Trans)
	}

	// The exchange schedule: for every page written this epoch and bound
	// to update, its producer — or, for split-bound pages, each writing
	// pair member — pushes this epoch's own diffs to every bound consumer
	// but itself, one aggregated message per consumer.
	for c := range ad.sends {
		ad.sends[c], ad.recvs[c] = ad.sends[c][:0], false
	}
	route := func(producer int, consumers []int, pg int) {
		for _, c := range consumers {
			if c == producer {
				continue
			}
			if producer == nd.ID {
				ad.sends[c] = append(ad.sends[c], pg)
			} else if c == nd.ID {
				ad.recvs[producer] = true
			}
		}
	}
	for _, ob := range obs {
		ws, pg := ob.Writers, ob.Page
		if pair, _, consumers, ok := ad.det.Split(pg); ok {
			// Sub-page binding: every pair member that wrote this epoch
			// pushes its own diffs — which cover exactly its half — so each
			// consumer's pending notices are satisfied by the paired pushes.
			for _, w := range ws {
				if w.Node == pair[0] || w.Node == pair[1] {
					route(w.Node, consumers, pg)
				}
			}
			continue
		}
		if len(ws) != 1 {
			continue // unwritten, or conflicting writers: the detector just decayed it
		}
		prod, consumers, ok := ad.det.Push(pg)
		if !ok || prod != ws[0].Node {
			continue
		}
		route(prod, consumers, pg)
	}

	// Send phase, in consumer order: flush the pushed pages' outstanding
	// modifications (the same lazy flush a serve would trigger) and ship
	// every own diff the epoch produced, coalesced into one section span per
	// contiguous run of compatible headers (wire.CoalesceDiffs, which copies
	// the headers out of ds into the consumer's span buffer), one message
	// per bound consumer.
	for c, pages := range ad.sends {
		if len(pages) == 0 {
			continue
		}
		ds := ad.ds[:0]
		for _, pg := range pages {
			nd.flushLocalDiff(pg, false)
			for _, d := range nd.pages[pg].diffs {
				if int(d.Creator) == nd.ID && d.To > oldBar[nd.ID] {
					ds = append(ds, d.toWire())
				}
			}
			nd.Stats.AdaptPagesPushed++
		}
		ad.ds = ds
		u := &ad.updates[c]
		u.Epoch, u.Spans = int32(nd.Stats.Barriers), wire.CoalesceDiffs(u.Spans[:0], ds)
		bytes := 16
		for _, sp := range u.Spans {
			bytes += sp.WireBytes()
		}
		nd.Stats.AdaptSpans += int64(len(u.Spans))
		s.NW.Send(nd.p, c, tagAdapt, u, bytes)
		nd.Stats.AdaptUpdates++
	}

	// Receive phase, in producer order for determinism. The span form is a
	// header economy on the wire only: the pushed spans expand to the
	// per-page diffs they encode and run through the normal application
	// path — ordering, applied-timestamp advancement, notice pruning, and
	// revalidation all behave exactly as if the consumer had fetched them —
	// which is why adapt-on and adapt-off runs produce bit-identical
	// memory images. (Split pages receive one span from each half's
	// producer; their runs are disjoint by the watershed, so the producer
	// application order cannot affect content.)
	for q, due := range ad.recvs {
		if due {
			m := s.NW.Recv(nd.p, q, tagAdapt)
			ad.ex = wire.ExpandSpans(ad.ex[:0], m.Payload.(*wire.Update).Spans)
			nd.applyDiffs(ad.ex)
			clear(ad.ex) // the applied entries hold their own headers
		}
	}
	clear(ad.fetched)
}
