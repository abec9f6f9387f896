package tmk

import (
	"cmp"
	"fmt"
	"slices"

	"sdsm/internal/host"
	"sdsm/internal/shm"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// storedDiff is a unit of modification data held in a node's diff cache:
// the wire.Diff itself — a twin-based diff covering the creator's intervals
// (From, To], or a whole-page snapshot (WRITE_ALL pages have no twins) —
// plus what only the cache needs.
//
// Covers is the creator's per-owner applied timestamps for the page at
// creation time, with its own entry raised to To. It is the diff's
// ordering timestamp: diffs from different creators may overlap (migratory
// data under locks), and if creator B wrote after creator A under the
// synchronization chain, B fetched and applied A's modifications before
// writing (the LRC fault path), so covers(B) >= covers(A) pointwise and
// B's content supersedes A's. Ascending coverage sums are therefore a
// valid linear extension of content supersession — and unlike the closing
// interval's vector time, the coverage is honest even for a diff flushed
// long after its writes (a lazy flush can span epochs, giving it a closing
// time that postdates a fresher concurrent diff).
//
// A stored diff is immutable once shared: after toWire, the only way its
// storage escapes the cache, nothing writes through Covers, Runs or a
// run's Vals. That is what makes aliasing sound — the cached value is the
// value served, and on the in-process backends every receiver's cache
// entry shares the creator's arrays. A received diff becomes an entry only
// if it is applied (applyDiffs): a duplicate from a second responder, or a
// stale one, is never filed. The one diff ever written again is
// this node's own pooled snapshot that nobody was handed: the next
// snapshot of its page is re-taken into it (snapshot).
//
// An entry is carved from the rank's Store (newEntry), and so is an own
// diff's Covers (coverRow), so filing a diff allocates nothing in steady
// state. A slab block is never resized, so no entry moves; a pruned entry
// keeps its value, and with it its arrays, until its machine is released
// and the store rewinds, clearing it.
type storedDiff struct {
	wire.Diff

	// pooled marks a locally created whole-page snapshot whose run values
	// are vm freelist storage; diffs received from a peer are never
	// pooled. shared marks a diff toWire has handed out. A pooled snapshot
	// goes back to the freelist when it is pruned only if it was never
	// shared: a receiver may alias its page for as long as it likes. When
	// the machine is released nobody reads it again, and every pooled
	// snapshot still cached goes back (System.ReleaseWarm).
	pooled, shared bool

	coverSum int64 // cached ordering key: sum of Covers
}

// orderKey returns the scalar used to linearize coverage order (see the
// type comment).
func (d *storedDiff) orderKey() int64 {
	if d.coverSum == 0 {
		for _, x := range d.Covers {
			d.coverSum += int64(x)
		}
	}
	return d.coverSum
}

// helps reports whether applying d would advance the given per-owner
// applied timestamps.
func (d *storedDiff) helps(applied []int32) bool {
	if d.Whole {
		for o, c := range d.Covers {
			if c > applied[o] {
				return true
			}
		}
		return false
	}
	return d.To > applied[d.Creator]
}

// wireBytes is the transfer size of the diff.
func (d *storedDiff) wireBytes() int { return 16 + vm.RunsBytes(d.Runs) }

// toWire returns the value a requester is handed: the cached diff itself,
// marked shared so its storage is never written (snapshot) or recycled
// (recycle) again while the machine runs.
func (d *storedDiff) toWire() wire.Diff {
	d.shared = true
	return d.Diff
}

// diffKey identifies a diff by content — (creator, page, coverage) is
// unique because a creator diffs each page range exactly once. It replaces
// the pointer identity the protocol historically relied on (the same
// cached diff forwarded to several nodes) now that diffs cross the
// transport as values.
type diffKey struct {
	creator, page int32
	from, to      int32
	whole         bool
}

func keyOf(d wire.Diff) diffKey {
	return diffKey{creator: d.Creator, page: d.Page, from: d.From, to: d.To, whole: d.Whole}
}

// Fault implements vm.FaultHandler: the base TreadMarks access-miss path.
// A fault first drains any asynchronous fetches covering the page, then
// fetches outstanding diffs for this single page (one exchange per
// responder, as TreadMarks does per fault), and finally arms write
// detection for write faults.
func (nd *Node) Fault(p host.Proc, page int, acc vm.Access) {
	// Deferred first, so the span closes after the protection batch below
	// flushes; the start stamps are taken here, at entry.
	vt, wt := nd.traceStart()
	defer nd.traceFault(page, acc, vt, wt)
	nd.Mem.BeginProtBatch()
	defer nd.Mem.FlushProtBatch(nd.p)
	nd.completeInflight()
	if len(nd.pages[page].pending) > 0 || nd.Mem.Prot(page) == vm.NoAccess {
		nd.fetchPages([]int{page}, false)
	}
	if nd.pages[page].deferred {
		// Deferred consistency actions from an asynchronous Validate: one
		// fault resumes the remainder of the Validate for every deferred
		// page (the data arrived with completeInflight above), exactly as
		// the paper's asynchronous variant finishes in the fault handler.
		// The walk ascends and stops once it has seen every deferred page;
		// the faulting page's own action comes last.
		at := nd.pages[page].mode
		nd.undefer(page)
		for pg, left := 0, nd.ndeferred; left > 0; pg++ {
			if e := &nd.pages[pg]; e.deferred {
				left--
				if len(e.pending) == 0 {
					nd.applyAccessType(pg, e.mode)
					nd.undefer(pg)
				}
			}
		}
		nd.applyAccessType(page, at)
		if acc == vm.Write && !at.writes() {
			nd.enableWrite(page, false)
		}
		return
	}
	if acc == vm.Write {
		nd.enableWrite(page, false)
	} else if nd.Mem.Prot(page) == vm.NoAccess {
		nd.Mem.SetProt(p, page, vm.ReadOnly)
	}
}

// enableWrite arms the multiple-writer machinery for a page: twin (unless
// noTwin mode) and write access.
func (nd *Node) enableWrite(page int, noTwin bool) {
	e := &nd.pages[page]
	if noTwin && e.dirty && !e.noTwin {
		// Transition from twin-based detection to WRITE_ALL mode: capture
		// the outstanding twin-based modifications first so earlier
		// intervals stay servable, then switch modes.
		nd.flushLocalDiff(page, true)
	}
	if e.dirty && nd.Mem.Prot(page) == vm.ReadWrite {
		return
	}
	if noTwin {
		e.noTwin = true
	} else if !nd.Mem.HasTwin(page) {
		nd.Mem.MakeTwin(nd.p, page)
	}
	nd.Mem.SetProt(nd.p, page, vm.ReadWrite)
	nd.setDirty(page, true)
}

// closeInterval ends the node's open interval at a release point (lock
// release, barrier arrival, Push), publishing write notices for every
// dirty page.
//
// Twin-based pages stay write-enabled and dirty; later writes fold into
// the same twin and the page is re-noticed at the next release
// (TreadMarks behaviour, the source of diff accumulation). WRITE_ALL
// pages have no twin, so their content is snapshotted now (a memcpy, not
// a diff) and they leave the dirty set; the compiler's exactness contract
// guarantees a new Validate precedes the next write to them.
func (nd *Node) closeInterval() {
	if nd.ndirty == 0 {
		return
	}
	idx := nd.vc[nd.ID] + 1
	nd.vc[nd.ID] = idx
	// The dirty pages in page order: an ascending walk of the table that
	// stops at the last dirty entry, into node scratch the interval record
	// — its page list carved from the store — is fully built from before
	// this function returns.
	pages := nd.pgScratch[:0]
	for pg := 0; len(pages) < nd.ndirty; pg++ {
		if nd.pages[pg].dirty {
			pages = append(pages, pg)
		}
	}
	nd.pgScratch = pages
	iv := wire.Interval{Pages: nd.st.refs.Take(len(pages))}
	for i, pg := range pages {
		iv.Pages[i] = nd.pageRefFor(pg, nd.pages[pg].noTwin, true)
	}
	nd.know[nd.ID] = append(nd.know[nd.ID], iv)
	nd.traceNotices(iv, idx)
	for _, pg := range pages {
		nd.noteWritten(pg)
		nd.touch(pg) // an own interval names the page: the next record frames it
		if nd.pages[pg].noTwin {
			nd.snapshotWholePage(pg)
		}
	}
}

// snapshotWholePage captures a WRITE_ALL page's full content as a
// whole-page diff, pruning everything it subsumes, and removes the page
// from the dirty set. The page stays write-enabled (no protection cost):
// exact analysis guarantees the next writer re-Validates first.
func (nd *Node) snapshotWholePage(pg int) {
	nd.snapshot(pg, nd.vc[nd.ID])
	nd.setDirty(pg, false)
}

// snapshot caches page's whole content as this node's own diff of its
// intervals (lastDiffed, to]. The page's cache holds at most one pooled
// snapshot, since each prunes the one before, and while toWire never
// handed it out nobody else holds its storage: it is re-taken in place,
// the page copied into its own buffer and the entry re-filed. A shared
// snapshot is never touched again; a fresh one from the vm freelist
// (WholePageRuns) replaces it, and so starts a page's first.
func (nd *Node) snapshot(page int, to int32) {
	for _, d := range nd.pages[page].diffs {
		if d.pooled && !d.shared {
			nd.Mem.CopyPage(nd.p, page, d.Runs[0].Vals)
			nd.fileOwnDiff(page, to, d)
			return
		}
	}
	nd.fileOwnDiff(page, to, nd.newEntry(storedDiff{Diff: wire.Diff{Whole: true, Covers: nd.coverRow(), Runs: nd.Mem.WholePageRuns(nd.p, page)}, pooled: true}))
}

// fileOwnDiff stamps d as this node's own diff of page for its intervals
// (lastDiffed, to], files it in the cache and advances lastDiffed. Covers
// is the page's applied row with the node's own entry raised to to (the
// ordering timestamp, see storedDiff), written into d's own row: a fresh
// entry's coverRow, or the row an unshared snapshot re-taken in place
// already has.
func (nd *Node) fileOwnDiff(page int, to int32, d *storedDiff) {
	e := &nd.pages[page]
	d.Page, d.Creator, d.From, d.To = int32(page), int32(nd.ID), e.lastDiffed, to
	copy(d.Covers, e.applied)
	d.Covers[nd.ID] = to
	d.coverSum = 0
	nd.storeDiff(d)
	e.lastDiffed = to
}

// storeDiff adds d to the tail of the diff cache, dropping any older
// diffs a whole snapshot subsumes (bounding memory: a page that is
// repeatedly WRITE_ALL-validated keeps only its newest snapshot). A
// snapshot re-taken in place moves from its old position to the tail. A
// pruned pooled snapshot's page goes back to the vm freelist unless it was
// ever handed out (recycle), so what receivers hold never moves. A cache
// list that is full moves to one of twice its capacity carved from the
// store (grown).
func (nd *Node) storeDiff(d *storedDiff) {
	pg := int(d.Page)
	nd.touch(pg) // the page's diff chain (and, on the apply path, its image) moved
	cache := nd.pages[pg].diffs
	if d.Whole {
		kept := cache[:0]
		for _, old := range cache {
			switch {
			case old == d: // re-taken in place: re-filed at the tail
			case subsumes(d, old):
				nd.recycle(old)
			default:
				kept = append(kept, old)
			}
		}
		cache = kept
	}
	nd.pages[pg].diffs = append(grown(&nd.st.lists, cache), d)
}

// recycle hands a pooled snapshot's page storage back to the vm freelist
// as it leaves the cache, if nobody else was ever handed it: a shared
// snapshot's page is left to the garbage collector.
func (nd *Node) recycle(d *storedDiff) {
	if d.pooled && !d.shared {
		for _, r := range d.Runs {
			nd.Mem.RecyclePage(r.Vals)
		}
	}
}

// subsumes reports whether whole snapshot w makes diff d redundant.
func subsumes(w, d *storedDiff) bool {
	if !w.Whole {
		return false
	}
	if d.Whole {
		for o := range d.Covers {
			if d.Covers[o] > w.Covers[o] {
				return false
			}
		}
		return true
	}
	return w.Covers[d.Creator] >= d.To
}

// learnInterval records a remote interval and invalidates the affected
// pages, unless their modifications were already applied (for example via
// Push).
func (nd *Node) learnInterval(owner int, idx int32, iv wire.Interval) {
	if owner == nd.ID {
		panic("tmk: node taught its own interval")
	}
	if int32(len(nd.know[owner]))+1 != idx {
		panic(fmt.Sprintf("tmk: node %d learning interval %d of %d out of order (knows %d)",
			nd.ID, idx, owner, len(nd.know[owner])))
	}
	nd.know[owner] = append(nd.know[owner], iv)
	nd.vc[owner] = idx
	for _, ref := range iv.Pages {
		pg := int(ref.Page)
		nd.noteWritten(pg)
		if nd.pages[pg].applied[owner] >= idx {
			continue
		}
		nd.addNotice(pg, notice{owner: int32(owner), idx: idx, whole: ref.Whole})
		nd.invalidate(pg)
	}
}

// addNotice records an unapplied write notice for pg, newer than any the
// page holds from the same owner, which it replaces: every reader of
// pending asks only for each owner's newest notice (package doc). A full
// list moves to one of twice its capacity carved from the store (grown).
func (nd *Node) addNotice(pg int, nt notice) {
	pend := nd.pages[pg].pending
	for i := range pend {
		if pend[i].owner == nt.owner {
			pend[i] = nt
			return
		}
	}
	nd.pages[pg].pending = append(grown(&nd.st.notices, pend), nt)
}

// invalidate removes access to a page. Local modifications are saved as a
// diff first so they can still be served (diff on invalidate).
func (nd *Node) invalidate(page int) {
	nd.flushLocalDiff(page, true)
	if nd.Mem.Prot(page) != vm.NoAccess {
		nd.Mem.SetProt(nd.p, page, vm.NoAccess)
		nd.Stats.Invalidations++
	}
}

// flushLocalDiff captures the node's own outstanding modifications to a
// dirty page into the diff cache; on a clean page it does nothing, so
// callers need not test the dirty bit first.
//
// When every closed interval of this page has already been diffed
// (lastDiffed == vc), any captured modifications belong to the still-open
// interval; the interval is split as real TreadMarks does: a fresh
// single-page interval is closed on the spot so the diff carries a
// coverage no earlier diff claims. Without the split, two diffs with
// identical (creator, to) would exist and receivers would drop the newer
// one. The invalidation path must also split for a page whose writes all
// belong to the open interval while lastDiffed trails vc only because the
// node closed intervals over other pages: no closed interval names the
// page, and disarming takes it out of the dirty set, so the closing
// interval will not name it either — unsplit, the modifications would be
// cached under an interval no node was ever told about, and lost. (On the
// serve path the page stays dirty, so the closing interval announces it.)
//
// disarm selects what happens to write detection afterwards. On the
// invalidation path the page loses all access, so the next local write
// re-faults and detection re-arms naturally. On the serve path (a remote
// processor requested diffs) the local processor may be mid-computation
// holding established write access — a real MMU would deliver a fault at
// its next store after re-protection, but the software MMU checks
// protections only at Ensure boundaries. Detection therefore stays armed:
// the page keeps write access and the dirty mark, and a fresh twin
// snapshots the served state so later writes diff against it.
func (nd *Node) flushLocalDiff(page int, disarm bool) {
	e := &nd.pages[page]
	if !e.dirty {
		return
	}
	to := nd.vc[nd.ID]
	mustSplit := e.lastDiffed == to || disarm && !nd.noticedSince(page, e.lastDiffed)
	if e.noTwin {
		if mustSplit {
			to = nd.splitInterval(page, true)
		}
		// Snapshot an open WRITE_ALL page so the content stays servable.
		nd.snapshot(page, to)
		if disarm {
			nd.setDirty(page, false)
			nd.Mem.TakeWriteExtent(page)
			nd.Mem.SetProt(nd.p, page, vm.ReadOnly)
		}
		return
	}
	if nd.Mem.HasTwin(page) {
		runs := nd.Mem.DiffAgainstTwin(nd.p, page)
		if len(runs) > 0 && mustSplit {
			to = nd.splitInterval(page, false)
		}
		if len(runs) > 0 || e.lastDiffed < to {
			nd.fileOwnDiff(page, to, nd.newEntry(storedDiff{Diff: wire.Diff{Covers: nd.coverRow(), Runs: runs}}))
		}
	}
	e.lastDiffed = to
	if disarm {
		nd.setDirty(page, false)
		// The page leaves the dirty set outside closeInterval, so the
		// closing walk will never consume its extent accumulator: discard
		// it here. Every notice describing the flushed state has already
		// been recorded (the epoch's close, or the split above, which
		// peeked) — leaving the residue would union a stale range into the
		// *next* epoch's extent and could mask a genuinely disjoint
		// false-sharing pair from the split detector forever.
		nd.Mem.TakeWriteExtent(page)
		nd.Mem.SetProt(nd.p, page, vm.ReadOnly)
		return
	}
	nd.Mem.MakeTwin(nd.p, page) // re-arm detection against the served state
}

// noticedSince reports whether an own interval closed after since names
// page. A page that was dirty at the last close is named by it (dirty pages
// are re-noticed at every close), so the walk from the newest interval
// usually ends at once.
func (nd *Node) noticedSince(page int, since int32) bool {
	own := nd.know[nd.ID]
	for i := len(own) - 1; i >= int(since); i-- {
		_, found := slices.BinarySearchFunc(own[i].Pages, int32(page), func(r wire.PageRef, pg int32) int {
			return cmp.Compare(r.Page, pg)
		})
		if found {
			return true
		}
	}
	return false
}

// splitInterval closes a fresh interval containing just the given page
// and returns its index.
func (nd *Node) splitInterval(page int, whole bool) int32 {
	idx := nd.vc[nd.ID] + 1
	nd.vc[nd.ID] = idx
	refs := nd.st.refs.Take(1)
	refs[0] = nd.pageRefFor(page, whole, false)
	nd.know[nd.ID] = append(nd.know[nd.ID], wire.Interval{Pages: refs})
	nd.noteWritten(page)
	nd.touch(page)
	return idx
}

// pageRefFor builds a page reference carrying the page's write extent. A
// WRITE_ALL page covers the whole page by definition; a twin-based page
// takes the union of the write regions established since the last closing
// interval. consume clears the vm's accumulator (the epoch's closing
// interval does; a mid-epoch serve-path split peeks, so the closing
// record still carries the union). A dirty page with no fresh extent —
// it stayed write-enabled across an interval with no new write region —
// reports an unknown extent (extHi == 0), which downstream consumers
// must treat as whole-page.
func (nd *Node) pageRefFor(pg int, whole, consume bool) wire.PageRef {
	ref := wire.PageRef{Page: int32(pg), Whole: whole}
	if whole {
		if consume {
			nd.Mem.TakeWriteExtent(pg)
		}
		ref.ExtLo, ref.ExtHi = 0, int32(shm.PageWords)
		return ref
	}
	var lo, hi int
	var ok bool
	if consume {
		lo, hi, ok = nd.Mem.TakeWriteExtent(pg)
	} else {
		lo, hi, ok = nd.Mem.PeekWriteExtent(pg)
	}
	if ok {
		ref.ExtLo, ref.ExtHi = int32(lo), int32(hi)
	}
	return ref
}

// fetchPair asks responder r for page pg's outstanding diffs: the unit in
// which every fetch round is planned (responders, request).
type fetchPair struct{ r, pg int }

// responders appends to pairs one pair per node page pg must ask for its
// outstanding diffs: if the most recent notice is a whole-page overwrite,
// its owner alone suffices; otherwise every noticed owner is asked for its
// own diffs.
func (nd *Node) responders(pairs []fetchPair, pg int) []fetchPair {
	pend := nd.pages[pg].pending
	if len(pend) == 0 {
		return pairs
	}
	latest := pend[0]
	for _, n := range pend[1:] {
		if n.idx > latest.idx || (n.idx == latest.idx && n.owner > latest.owner) {
			latest = n
		}
	}
	if latest.whole {
		return append(pairs, fetchPair{int(latest.owner), pg})
	}
	for _, n := range pend { // one notice per owner
		pairs = append(pairs, fetchPair{int(n.owner), pg})
	}
	return pairs
}

// request issues the diff exchanges pairs plans, sorting pairs in place:
// one exchange per responder, responders ascending, each asked for its
// pages ascending, a repeated page once. Without wait the exchanges are
// started together and join the in-flight round (completeInflight); with
// wait each completes before the next starts, and the completed exchanges
// are returned. direct forbids a directory redirect in the answers.
func (nd *Node) request(pairs []fetchPair, direct, wait bool) []*host.Pending {
	slices.SortFunc(pairs, func(a, b fetchPair) int {
		return cmp.Or(cmp.Compare(a.r, b.r), cmp.Compare(a.pg, b.pg))
	})
	pairs = slices.Compact(pairs)
	var done []*host.Pending
	for i := 0; i < len(pairs); {
		r, pgs := pairs[i].r, nd.reqPages[:0]
		for ; i < len(pairs) && pairs[i].r == r; i++ {
			pgs = append(pgs, pairs[i].pg)
		}
		nd.reqPages = pgs
		pd := nd.startFetch(r, pgs, direct)
		if !wait {
			nd.inflight = append(nd.inflight, pd)
			continue
		}
		host.Await(nd.p, pd, nd.sys.Costs)
		done = append(done, pd)
	}
	return done
}

// startFetch launches one diff exchange: it asks responder r for pages pgs.
// The requester's applied timestamps travel with the pages (appliedRows),
// so the responder needs nothing from the requester's memory. StartRequest
// consumes the request before it returns, so the request and its rows are
// node scratch, and the exchange completes into a Pending from the node's
// free list (applyReplies returns it).
func (nd *Node) startFetch(r int, pgs []int, direct bool) *host.Pending {
	nd.traceFetchReq(r, pgs)
	nd.Stats.DiffFetches++
	nd.reqRows.rewind()
	rows := nd.appliedRows(&nd.reqRows, pgs)
	nd.fetchReq = wire.DiffRequest{Req: int32(nd.ID), Pages: rows.Pages, Applied: rows.Applied, Direct: direct}
	if len(nd.pdFree) == 0 {
		nd.pdFree = append(nd.pdFree, new(host.Pending))
	}
	pd := nd.pdFree[len(nd.pdFree)-1]
	nd.pdFree = nd.pdFree[:len(nd.pdFree)-1]
	nd.sys.NW.StartRequest(nd.p, r, &nd.fetchReq, 16+8*len(pgs), pd)
	return pd
}

// fetchPages retrieves outstanding modifications for the given pages,
// aggregating all pages per responder into one exchange (the communication
// aggregation optimization; a fault passes its one page, so aggregation
// degenerates to TreadMarks behaviour there). With async, the exchanges are
// left in flight and completed at the next fault on an affected page or at
// the next synchronization point.
func (nd *Node) fetchPages(pages []int, async bool) {
	pairs := nd.pairScratch[:0]
	for _, pg := range pages {
		k := len(pairs)
		if pairs = nd.responders(pairs, pg); len(pairs) > k {
			nd.noteFetch(pg) // adaptive profiling: this page cost a demand fetch
			nd.inflightPages = append(nd.inflightPages, pg)
		}
	}
	nd.pairScratch = pairs
	nd.request(pairs, false, false)
	if !async && len(pairs) > 0 {
		nd.completeInflight()
	}
}

// completeInflight waits for the in-flight round's exchanges and applies
// their replies. Redirected pages are chased (chaseRedirects); pages still
// missing diffs afterwards (a responder lacked some other owner's diff, or
// a chase dead-ended) are re-fetched from each noticed owner, mirroring the
// paper's "other diffs cause an access miss and are faulted in". Chase hops
// and this Direct retry wait for each exchange before starting the next and
// never join the round, so the in-flight lists are emptied in place.
func (nd *Node) completeInflight() {
	if len(nd.inflight) == 0 {
		return
	}
	host.AwaitAll(nd.p, nd.inflight, nd.sys.Costs)
	if redirs := nd.applyReplies(nd.inflight); len(redirs) > 0 {
		nd.chaseRedirects(redirs)
	}
	// Ask each remaining owner of a page still owing diffs directly (the
	// steady state has none); owners can always serve their own diffs.
	// Direct forbids directory redirects — this is the forwarding chain's
	// backstop, so the owner must answer with payload even when its
	// delegation pointer says otherwise.
	pairs := nd.pairScratch[:0]
	for _, pg := range nd.inflightPages {
		for _, n := range nd.pages[pg].pending {
			pairs = append(pairs, fetchPair{int(n.owner), pg})
		}
	}
	nd.pairScratch = pairs
	if len(pairs) > 0 {
		nd.applyReplies(nd.request(pairs, true, true))
		for _, pg := range nd.inflightPages {
			if pend := nd.pages[pg].pending; len(pend) > 0 {
				panic(fmt.Sprintf("tmk: node %d cannot resolve notices for page %d: %+v",
					nd.ID, pg, pend))
			}
		}
	}
	// Drop the round's pointers so the recycled array does not keep
	// replies alive until its next use.
	clear(nd.inflight)
	nd.inflight, nd.inflightPages = nd.inflight[:0], nd.inflightPages[:0]
}

// applyReplies applies every diff of the completed exchanges pds in one
// pass and returns the redirects they carried (none off scale), in a list
// of their own. Diffs from different responders may overlap (migratory and
// falsely shared pages), and only a global sort preserves vector-time
// order. The merge buffer is consumed by applyDiffs before this node
// issues another fetch. Each Pending then goes back to the node's free
// list, its reply keeping its capacity for the next serve (which starts
// it at length zero) and its Diffs cleared first, so no cached array
// outlives its exchange there.
func (nd *Node) applyReplies(pds []*host.Pending) []wire.PageOwner {
	all := nd.dfScratch[:0]
	var redirs []wire.PageOwner
	for _, pd := range pds {
		all = append(all, pd.Reply.Diffs...)
		redirs = append(redirs, pd.Reply.Redirects...)
	}
	nd.applyDiffs(all)
	clear(all)
	nd.dfScratch = all[:0]
	for _, pd := range pds {
		clear(pd.Reply.Diffs)
		nd.pdFree = append(nd.pdFree, pd)
	}
	return redirs
}

// serveDiffs runs at the responder (inside the transport's request
// handler): it flushes its own outstanding modifications for the requested
// pages and returns every cached diff the requester lacks, including diffs
// created by third parties (the source of the diff accumulation the paper
// describes for IS). The requester is described entirely by the request —
// its id and per-page applied timestamps — and the reply is wire values.
// The responder's CPU costs are charged by the vm operations.
//
// In scale mode a page this responder has already delegated (dirNext set
// by an earlier payload serve) is answered with a redirect to the
// delegate instead of a payload, unless the requester set Direct — the
// chain-exhausted fallback that must reach this responder's own diffs.
// The delegation then moves to the requester, so forwarding chains stay
// short (the previous delegate serves at most one redirect-routed
// requester before the pointer moves past it) and consecutive readers of
// a hot page serve each other instead of queueing on the writer.
//
// Every page's selection and redirect is appended straight into rep, the
// requester's reply (see host.Server), reusing its capacity; the reply's
// accounted size is returned.
func (nd *Node) serveDiffs(req *wire.DiffRequest, rep *wire.DiffReply) int {
	reqID, bytes := int(req.Req), 16
	for i, p32 := range req.Pages {
		pg := int(p32)
		if nd.sys.scale && !req.Direct {
			if nxt := nd.dirNext[pg]; nxt >= 0 && int(nxt) != reqID {
				rep.Redirects = append(rep.Redirects, wire.PageOwner{Page: int32(pg), Owner: nxt})
				nd.dirNext[pg] = int32(reqID)
				nd.Stats.DirRedirects++
				bytes += 8
				continue
			}
		}
		k := len(rep.Diffs)
		for _, d := range nd.collectDiffs(reqID, pg, req.Applied[i]) {
			rep.Diffs = append(rep.Diffs, d.toWire())
			bytes += d.wireBytes()
		}
		if len(rep.Diffs) > k && nd.dirNext != nil {
			nd.dirNext[pg] = int32(reqID)
		}
	}
	if len(rep.Diffs) > 0 {
		nd.Stats.DiffServes++
	}
	return bytes
}

// collectDiffs flushes page pg if locally dirty and returns every cached
// diff a requester described by (reqID, applied) lacks, replacing the
// accumulated candidates by the newest whole snapshot alone when it
// subsumes them all. It is the per-page core of serveDiffs; the lock-scope
// piggyback path reuses it with the applied floors the acquire request
// carried for bound pages (chain trimming, see acquireFloors), falling
// back to a zero floor — the full cached chain — for pages the floors
// missed. Either floor keeps per-creator chains gap-free: the receiver
// prunes notices by applied coverage, so a chain gap would silently drop
// the missing intervals' content.
func (nd *Node) collectDiffs(reqID, pg int, applied []int32) []*storedDiff {
	nd.flushLocalDiff(pg, false)
	// The candidate list is consumed by the caller before the next
	// collectDiffs call on this node, so one scratch buffer suffices (the
	// pointers it holds are cache entries, retained by the page table anyway).
	cand := nd.cdScratch[:0]
	var best *storedDiff // newest whole snapshot, if any
	for _, d := range nd.pages[pg].diffs {
		if int(d.Creator) == reqID || !d.helps(applied) {
			continue
		}
		cand = append(cand, d)
		if d.Whole && (best == nil || subsumes(d, best)) {
			best = d
		}
	}
	// A whole snapshot that subsumes every other candidate is sent
	// alone: the requester gets the full page once instead of the
	// accumulated overlapping diffs.
	if best != nil {
		all := true
		for _, d := range cand {
			if d != best && !subsumes(best, d) {
				all = false
				break
			}
		}
		if all {
			cand = append(cand[:0], best)
		}
	}
	nd.cdScratch = cand
	return cand
}

// applyDiffs merges received diffs, oldest coverage first, updating the
// applied timestamps, pruning satisfied notices, caching the diffs for
// later forwarding, and revalidating pages whose notices are all applied.
// The diffs are sorted as (wire value, order key) pairs in node scratch,
// each key computed once. A received diff is filed only if it is applied:
// a diff that still helps when its turn comes is copied into a cache entry
// of its own (newEntry), sharing the wire value's arrays (see storedDiff
// for why that is sound), and a duplicate or stale one is never filed.
func (nd *Node) applyDiffs(in []wire.Diff) {
	reply := nd.sortScratch[:0]
	for i := range in {
		d := storedDiff{Diff: in[i]}
		reply = append(reply, stagedDiff{&in[i], d.orderKey()})
	}
	// slices.SortStableFunc keeps SliceStable's ordering semantics without
	// the reflection machinery (which allocates per call).
	slices.SortStableFunc(reply, func(a, b stagedDiff) int {
		return cmp.Or(cmp.Compare(a.w.Page, b.w.Page), cmp.Compare(a.key, b.key),
			cmp.Compare(a.w.Creator, b.w.Creator), cmp.Compare(a.w.To, b.w.To))
	})
	// reply is page-sorted, so applied pages can be pruned in order after
	// the pass by watching for page transitions — no set needed.
	lastTouched := -1
	for _, s := range reply {
		pg := int(s.w.Page)
		d := storedDiff{Diff: *s.w, coverSum: s.key}
		if !d.helps(nd.pages[pg].applied) {
			continue
		}
		nd.Mem.ApplyRuns(nd.p, pg, d.Runs)
		nd.recordApplied(nd.newEntry(d))
		if pg != lastTouched {
			if lastTouched >= 0 {
				nd.prunePending(lastTouched)
			}
			lastTouched = pg
		}
	}
	if lastTouched >= 0 {
		nd.prunePending(lastTouched)
	}
	// The scratch keeps the slice header only: drop the pointers into in so
	// no received array is retained past its cache entry.
	clear(reply)
	nd.sortScratch = reply[:0]
}

// stagedDiff is a received diff waiting for its turn in applyDiffs: the
// wire value, left where the caller holds it, and its order key.
type stagedDiff struct {
	w   *wire.Diff
	key int64
}

// recordApplied performs the bookkeeping for a diff whose runs were just
// merged into memory: the applied/words statistics, the applied-timestamp
// advancement, and caching the diff for later forwarding.
func (nd *Node) recordApplied(d *storedDiff) {
	applied := nd.pages[d.Page].applied
	nd.Stats.DiffsApplied++
	nd.Stats.WordsApplied += int64(vm.RunsWords(d.Runs))
	if d.Whole {
		for o, c := range d.Covers {
			if c > applied[o] {
				applied[o] = c
			}
		}
	} else if d.To > applied[d.Creator] {
		applied[d.Creator] = d.To
	}
	nd.storeDiff(d)
}

// prunePending drops satisfied notices and restores read access when a
// page has no outstanding modifications left.
func (nd *Node) prunePending(page int) {
	e := &nd.pages[page]
	pend := e.pending[:0]
	for _, n := range e.pending {
		if n.idx > e.applied[n.owner] {
			pend = append(pend, n)
		}
	}
	e.pending = pend
	if len(pend) == 0 && nd.Mem.Prot(page) == vm.NoAccess {
		nd.Mem.SetProt(nd.p, page, vm.ReadOnly)
	}
}
