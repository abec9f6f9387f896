package tmk

import (
	"time"

	"sdsm/internal/shm"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// wsyncRequest is a registered Validate_w_sync awaiting the next
// synchronization operation.
type wsyncRequest struct {
	at    AccessType
	pages []int
	full  []bool // parallel to pages: which a *_ALL request covers whole (fullyCovered)
}

// Validate informs the run-time that the calling processor is about to
// access the given regions, normalized (shm.Normalize), with the declared
// pattern (Section 3.1.1).
// Outstanding diffs for all named pages are fetched in one exchange per
// responder (communication aggregation); the consistency actions depend on
// the access type (consistency overhead elimination for the *_ALL types).
// With async, the processor continues computing and the fetched data is
// applied at the first access or the next synchronization point.
func (nd *Node) Validate(at AccessType, regions []shm.Region, async bool) {
	nd.p.Begin()
	defer nd.p.End()
	nd.Mem.BeginProtBatch()
	defer nd.Mem.FlushProtBatch(nd.p)
	nd.Stats.Validates++
	pages := pagesOf(nd.vpScratch[:0], regions)
	nd.vpScratch = pages
	nd.p.Charge(time.Duration(len(pages)) * nd.sys.Costs.ValidatePerPage)

	full := fullyCovered(nd.fcScratch[:0], at, regions, pages)
	nd.fcScratch = full
	effective := func(i int) AccessType {
		if at.noTwin() && !full[i] {
			return AccReadWrite
		}
		return at
	}

	if !at.fetches() {
		partial := nd.vnScratch[:0]
		for i, pg := range pages {
			if full[i] {
				nd.discardObligations(pg)
				nd.applyAccessType(pg, at)
			} else {
				partial = append(partial, pg)
			}
		}
		nd.vnScratch = partial
		if len(partial) > 0 {
			nd.fetchPages(partial, false)
			for _, pg := range partial {
				nd.applyAccessType(pg, AccReadWrite)
			}
		}
		return
	}

	need := nd.vnScratch[:0]
	for _, pg := range pages {
		if len(nd.pages[pg].pending) > 0 {
			need = append(need, pg)
		}
	}
	nd.vnScratch = need
	if async {
		for i, pg := range pages {
			if len(nd.pages[pg].pending) > 0 {
				nd.deferMode(pg, effective(i))
			}
		}
		nd.fetchPages(need, true)
		for i, pg := range pages {
			if !nd.pages[pg].deferred {
				nd.applyAccessType(pg, effective(i))
			}
		}
		return
	}
	nd.fetchPages(need, false)
	for i, pg := range pages {
		nd.applyAccessType(pg, effective(i))
	}
}

// ValidateWSync registers a Validate whose data fetch is piggybacked on
// the next synchronization operation (lock acquire or barrier). The
// registration keeps its own page list and which of those pages the
// regions cover whole, never the regions: the caller may reuse them as
// soon as the call returns. Both lists are carved from the node's
// wsRegPages and wsRegFull, which live until consumeWSync rewinds them.
func (nd *Node) ValidateWSync(at AccessType, regions []shm.Region) {
	nd.p.Begin()
	defer nd.p.End()
	k, f := len(nd.wsRegPages), len(nd.wsRegFull)
	nd.wsRegPages = pagesOf(nd.wsRegPages, regions)
	pages := nd.wsRegPages[k:len(nd.wsRegPages):len(nd.wsRegPages)]
	nd.wsRegFull = fullyCovered(nd.wsRegFull, at, regions, pages)
	full := nd.wsRegFull[f:len(nd.wsRegFull):len(nd.wsRegFull)]
	nd.p.Charge(time.Duration(len(pages)) * nd.sys.Costs.ValidatePerPage)
	nd.Stats.Validates++
	nd.wsync = append(nd.wsync, wsyncRequest{at: at, pages: pages, full: full})
}

// fullyCovered appends to dst, for each of pages in turn, whether a *_ALL
// Validate's normalized regions cover it completely. The
// consistency-disabling treatment (no fetch for WRITE_ALL, no twin for
// both *_ALL types) is sound only for those: a page shared with another
// processor's data keeps twin-based detection so its foreign words are
// never misattributed. Normalized regions ascend and neither overlap nor
// touch, so a page is covered only by one region holding all of it, and
// one ascending walk over pages and regions finds it. dst is returned
// unchanged for the other access types, which never consult it.
func fullyCovered(dst []bool, at AccessType, regions []shm.Region, pages []int) []bool {
	if !at.noTwin() {
		return dst
	}
	r := 0
	for _, pg := range pages {
		end := (pg + 1) * shm.PageWords
		for r < len(regions) && regions[r].Hi < end {
			r++
		}
		dst = append(dst, r < len(regions) && regions[r].Lo <= pg*shm.PageWords)
	}
	return dst
}

// discardObligations marks every known remote interval as applied for a
// page that is about to be entirely overwritten. Correct only under exact
// compiler analysis, as the paper requires.
func (nd *Node) discardObligations(pg int) {
	e := &nd.pages[pg]
	for o, v := range nd.vc {
		e.applied[o] = max(e.applied[o], v)
	}
	e.pending = e.pending[:0]
}

// applyAccessType performs the per-page consistency action of a Validate
// once the page's data is current.
func (nd *Node) applyAccessType(pg int, at AccessType) {
	switch {
	case at == AccRead:
		if nd.Mem.Prot(pg) == vm.NoAccess {
			nd.Mem.SetProt(nd.p, pg, vm.ReadOnly)
		}
	case at.noTwin():
		nd.enableWrite(pg, true)
	default:
		nd.enableWrite(pg, false)
	}
}

// consumeWSync applies the consistency actions of registered
// Validate_w_sync requests after a synchronization operation has delivered
// (some of) their data. Pages with still-outstanding notices are left
// invalid; accessing them faults and fetches the remainder, as the paper
// describes. Leftover deferred modes from asynchronous Validates are
// dropped (their pages were never accessed in the phase).
func (nd *Node) consumeWSync() {
	for _, ws := range nd.wsync {
		for i, pg := range ws.pages {
			if len(nd.pages[pg].pending) > 0 {
				continue
			}
			at := ws.at
			if at.noTwin() && !ws.full[i] {
				at = AccReadWrite
			}
			nd.applyAccessType(pg, at)
		}
	}
	nd.wsync = nd.wsync[:0]
	nd.wsRegPages, nd.wsRegFull = nd.wsRegPages[:0], nd.wsRegFull[:0]
	for pg := 0; nd.ndeferred > 0; pg++ {
		nd.undefer(pg)
	}
}

const tagPush = 101

// Push replaces a barrier with a point-to-point exchange (Section 3.1.2).
// The caller has already intersected the sections: send[i] is what this
// processor wrote before the replaced barrier that processor i reads after
// it, as normalized regions, and from[i] says whether processor i sends
// this one anything. Each message is gathered out of memory into a buffer
// and chunk list from the sender's store (takePushBuf), which stay the
// sender's: the receiver reads them in place on the in-process transports
// and hands them back to the sender's free list once it has applied the
// message (pushApplied). What arrives is written in place, without twinning
// or diffing. Only the received sections are made consistent; the run-time
// records them as applied so the write notices arriving at the next real
// barrier do not re-invalidate them. Push only reads send and from.
func (nd *Node) Push(send [][]shm.Region, from []bool) {
	nd.p.Begin()
	defer nd.p.End()
	nd.Mem.BeginProtBatch()
	defer nd.Mem.FlushProtBatch(nd.p)
	nd.completeInflight()
	nd.closeInterval()
	nd.Stats.Pushes++
	s := nd.sys
	n := s.N()
	if n == 1 {
		nd.consumeWSync()
		return
	}
	myIvl := nd.vc[nd.ID]

	// Send phase.
	for len(nd.pushSent) < n {
		nd.pushSent = append(nd.pushSent, nil)
	}
	for i, regions := range send {
		if i == nd.ID || len(regions) == 0 {
			continue
		}
		words := 0
		for _, r := range regions {
			words += r.Words()
		}
		b := nd.st.takePushBuf(words, len(regions))
		buf := b.vals
		for k, r := range regions {
			vals := buf[:r.Words():r.Words()]
			buf = buf[copy(vals, nd.Mem.Data()[r.Lo:r.Hi]):]
			b.chunks[k] = wire.Chunk{Lo: int32(r.Lo), Vals: vals}
		}
		nd.pushSent[i] = append(nd.pushSent[i], b)
		nd.p.Charge(time.Duration(words) * s.Costs.TwinPerWord) // gather memcpy
		s.NW.Send(nd.p, i, tagPush, wire.Push{Ivl: myIvl, Chunks: b.chunks}, 16+16*len(regions)+words*shm.WordBytes)
	}

	// Receive phase, in sender order for determinism.
	for i, sends := range from {
		if i == nd.ID || !sends {
			continue
		}
		m := s.NW.Recv(nd.p, i, tagPush)
		pl := m.Payload.(wire.Push)
		for _, ch := range pl.Chunks {
			nd.applyPushChunk(i, pl.Ivl, ch)
		}
		s.Nodes[i].st.pushApplied(nd.ID)
	}
	nd.consumeWSync()
}

// pushBuf is the storage one Push message is gathered into: its values
// and the chunk list that slices them.
type pushBuf struct {
	vals   []float64
	chunks []wire.Chunk
}

// takePushBuf returns a gather buffer sized to words values and k chunks,
// taken off the free list: the smallest free one large enough, or else a
// free one given new storage for what it lacks, so a free list that holds
// a buffer for every message in flight makes none.
func (st *Store) takePushBuf(words, k int) pushBuf {
	pick := -1
	for i, b := range st.pushFree {
		if cap(b.vals) >= words && (pick < 0 || cap(b.vals) < cap(st.pushFree[pick].vals)) {
			pick = i
		}
	}
	if pick < 0 {
		pick = len(st.pushFree) - 1 // none is large enough: regrow one, if there is one
	}
	var b pushBuf
	if pick >= 0 {
		b = st.pushFree[pick]
		last := len(st.pushFree) - 1
		st.pushFree[pick], st.pushFree[last] = st.pushFree[last], pushBuf{}
		st.pushFree = st.pushFree[:last]
	}
	if cap(b.vals) < words {
		b.vals = make([]float64, words)
	}
	if cap(b.chunks) < k {
		b.chunks = make([]wire.Chunk, k)
	}
	return pushBuf{vals: b.vals[:words], chunks: b.chunks[:k]}
}

// pushApplied returns to the free list the oldest buffer this store's node
// sent to receiver to, which has just applied that message. A sender may
// run several Pushes ahead of a receiver, so its buffers queue per
// receiver; messages from one sender to one receiver are applied in the
// order sent, so the oldest is the one applied. The receiver calls it under
// the protocol token, as the sender takes and queues buffers. On a socket
// transport the receiver applied a decoded copy and the sender's buffer
// was free once the frame was encoded, but the same rule returns it.
func (st *Store) pushApplied(to int) {
	q := st.pushSent[to]
	st.pushFree = append(st.pushFree, q[0])
	copy(q, q[1:])
	q[len(q)-1] = pushBuf{}
	st.pushSent[to] = q[:len(q)-1]
}

// applyPushChunk writes received data in place, page by page, marking the
// sender's interval applied so later write notices do not invalidate the
// pushed data.
func (nd *Node) applyPushChunk(sender int, ivl int32, ch wire.Chunk) {
	lo := int(ch.Lo)
	hi := int(ch.Lo) + len(ch.Vals)
	for lo < hi {
		pg := lo / shm.PageWords
		pageEnd := (pg + 1) * shm.PageWords
		end := hi
		if pageEnd < end {
			end = pageEnd
		}
		nd.Mem.ApplyRuns(nd.p, pg, []wire.Run{{Off: int32(lo - pg*shm.PageWords), Vals: ch.Vals[lo-int(ch.Lo) : end-int(ch.Lo)]}})
		nd.touch(pg) // pushed data moves the image without a diff store
		// A page only counts as applied when the chunk delivers all of it;
		// partially pushed pages keep their obligations (the paper: Push
		// guarantees consistency only for the received sections).
		if row := nd.pages[pg].applied; ivl > row[sender] && end-lo == shm.PageWords {
			row[sender] = ivl
		}
		nd.prunePending(pg)
		if nd.Mem.Prot(pg) == vm.NoAccess {
			nd.Mem.SetProt(nd.p, pg, vm.ReadOnly)
		}
		lo = end
	}
}
