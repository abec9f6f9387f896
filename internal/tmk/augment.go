package tmk

import (
	"slices"
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
		var partial []int
		for i, pg := range pages {
			if full[i] {
				nd.discardObligations(pg)
				nd.applyAccessType(pg, at)
			} else {
				partial = append(partial, pg)
			}
		}
		if len(partial) > 0 {
			nd.fetchPages(partial, false)
			for _, pg := range partial {
				nd.applyAccessType(pg, AccReadWrite)
			}
		}
		return
	}

	var need []int
	for _, pg := range pages {
		if len(nd.pages[pg].pending) > 0 {
			need = append(need, pg)
		}
	}
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
// soon as the call returns.
func (nd *Node) ValidateWSync(at AccessType, regions []shm.Region) {
	nd.p.Begin()
	defer nd.p.End()
	nd.vpScratch = pagesOf(nd.vpScratch[:0], regions)
	pages := slices.Clone(nd.vpScratch)
	nd.p.Charge(time.Duration(len(pages)) * nd.sys.Costs.ValidatePerPage)
	nd.Stats.Validates++
	nd.wsync = append(nd.wsync, wsyncRequest{at: at, pages: pages, full: fullyCovered(nil, at, regions, pages)})
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
	clear(nd.wsync) // drop the registrations' page lists; the list itself is reused
	nd.wsync = nd.wsync[:0]
	for pg := 0; nd.ndeferred > 0; pg++ {
		nd.undefer(pg)
	}
}

const tagPush = 101

// Push replaces a barrier with a point-to-point exchange (Section 3.1.2).
// The caller has already intersected the sections: send[i] is what this
// processor wrote before the replaced barrier that processor i reads after
// it, as normalized regions, and from[i] says whether processor i sends
// this one anything. Each message is gathered out of memory into one
// buffer sized to it; what arrives is written in place, without twinning
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
	for i, regions := range send {
		if i == nd.ID || len(regions) == 0 {
			continue
		}
		words := 0
		for _, r := range regions {
			words += r.Words()
		}
		buf := make([]float64, words)
		pl := wire.Push{Ivl: myIvl, Chunks: make([]wire.Chunk, len(regions))}
		for k, r := range regions {
			vals := buf[:r.Words():r.Words()]
			buf = buf[copy(vals, nd.Mem.Data()[r.Lo:r.Hi]):]
			pl.Chunks[k] = wire.Chunk{Lo: int32(r.Lo), Vals: vals}
		}
		nd.p.Charge(time.Duration(words) * s.Costs.TwinPerWord) // gather memcpy
		s.NW.Send(nd.p, i, tagPush, pl, 16+16*len(regions)+words*shm.WordBytes)
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
	}
	nd.consumeWSync()
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
