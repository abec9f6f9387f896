package tmk

import (
	"math/bits"

	"sdsm/internal/wire"
)

// Serve delegation for large machines (DESIGN.md §12).
//
// The base protocol routes every diff fetch by write notices alone: the
// requester asks the noticed owners, so a page written by one node and
// read by many turns its writer into a serve hot spot — at 64 or 128
// nodes the writer answers one request per reader per epoch while
// everyone else answers none. Scale mode (EnableScale) keeps that routing
// and adds a responder-side delegation, adapted to this protocol's
// "anyone who applied the chain can serve it" property:
//
//   - dirNext[pg] is the node this responder most recently shipped pg's
//     chain to. A later request for the page is answered with a redirect
//     to that delegate instead of a payload, and the delegation moves to
//     the new requester — so the k-th reader of a hot page is served by
//     the (k-1)-th, spreading the serve load across the reader chain
//     while the writer answers one payload plus cheap redirects. Every
//     new write or learned notice drops the page's delegation (the
//     delegate's copy is stale for the new interval), and every barrier
//     departure drops them all.
//
// Forwarding is requester-driven: serve handlers run under the
// machine-wide protocol token and must never issue requests of their own
// (an in-handler forward would deadlock), so the responder only returns
// the delegate and the requester follows the chain (chaseRedirects), hop
// capped and cycle checked. A chain that exhausts falls back to a Direct
// fetch from the noticed owner — who can always serve its own diffs —
// through completeInflight's retry, so a stale delegation can delay but
// never lose an update; the retry's unresolved-notice panic stays the
// backstop. Memory content never depends on delegation at all: routing
// only picks who serves an identical chain.

// EnableScale switches the machine to scale mode: the serve delegation
// above, plus span-compressed, broadcast-once accounting for the barrier
// fetch-list relay (see relayFetchedBytes and runBarrier). Must be called
// after New and before Run. Off, the protocol and its accounting are
// bit-identical to a machine without delegation — the paper tables and
// the adapt goldens pin that.
func (s *System) EnableScale() {
	s.scale = true
	for _, nd := range s.Nodes {
		nd.dirNext = make([]int32, nd.Mem.Pages())
		nd.forgetDirectory()
	}
}

// forgetDirectory drops every delegation (-1: none). Mid-epoch
// delegations depend on serve order, which the concurrent backends do not
// reproduce, so every barrier departure starts the next epoch from none;
// so do a restore's wipe and EnableScale. Off scale there is nothing to
// drop: the base protocol calls it at every departure.
func (nd *Node) forgetDirectory() {
	for pg := range nd.dirNext {
		nd.dirNext[pg] = -1
	}
}

// noteWritten records a write to pg, local or learned from a notice: any
// delegation of the page is stale.
func (nd *Node) noteWritten(pg int) {
	if nd.dirNext == nil {
		return
	}
	nd.dirNext[pg] = -1
}

// dirHopCap bounds a forwarding chase. IVY's probable-owner graph gives
// chains logarithmic in machine size under path compression; the +2
// absorbs the mid-epoch staleness delegation allows before the Direct
// fallback takes over.
func (nd *Node) dirHopCap() int {
	return 2 + bits.Len(uint(nd.sys.N()))
}

// chaseRedirects follows the delegations a fetch round returned instead
// of payloads: pages still pending are re-requested from their delegates,
// hop by hop, until served, cycled, or hop capped. Pages a chase cannot
// resolve are left pending for the caller's Direct retry
// (completeInflight), counted as fallbacks.
func (nd *Node) chaseRedirects(redirs []wire.PageOwner) {
	hopCap := nd.dirHopCap()
	visited := map[int]map[int]bool{} // page -> responders already asked
	for hop := 0; hop < hopCap && len(redirs) > 0; hop++ {
		pairs := nd.pairScratch[:0]
		for _, po := range redirs {
			pg, owner := int(po.Page), int(po.Owner)
			if len(nd.pages[pg].pending) == 0 || owner == nd.ID {
				continue
			}
			if owner < 0 || owner >= nd.sys.N() {
				// A redirect is a wire value: one naming a rank outside
				// this job's set can only come from a corrupt reply, and
				// must not become a request to a rank that does not exist.
				// Leave the page to the Direct fallback, which asks the
				// noticed owner.
				nd.Stats.DirFallbacks++
				continue
			}
			if visited[pg][owner] {
				continue // cycle: leave the page to the Direct fallback
			}
			if visited[pg] == nil {
				visited[pg] = map[int]bool{}
			}
			visited[pg][owner] = true
			pairs = append(pairs, fetchPair{owner, pg})
		}
		nd.pairScratch = pairs
		if len(pairs) == 0 {
			break
		}
		pds := nd.request(pairs, false, true)
		nd.Stats.DirHops += int64(len(pds))
		redirs = nd.applyReplies(pds)
	}
	for pg := range visited {
		if len(nd.pages[pg].pending) > 0 {
			nd.Stats.DirFallbacks++
		}
	}
}

// relayFetchedBytes is the accounted wire size of one relayed barrier
// fetch list under the active mode: the flat version-2 formula off scale
// (8 + 4 per page, pinned by the paper-era goldens), the version-7
// raw-or-span size under scale — dense epoch working sets cost two words
// per contiguous run instead of one per page.
func (s *System) relayFetchedBytes(pages []int32) int {
	if s.scale {
		return wire.FetchedBytes(pages)
	}
	return adaptFetchedBytes(len(pages))
}

// ServeBalance summarizes how evenly diff-serve load spread across the
// machine: the maximum and mean per-node count of diff requests answered
// with payload. The scaling table reports max/mean; the directory's job
// is keeping it near 1 on single-writer many-reader pages.
func (s *System) ServeBalance() (max int64, mean float64) {
	var total int64
	for _, nd := range s.Nodes {
		c := nd.Stats.DiffServes
		total += c
		if c > max {
			max = c
		}
	}
	if n := len(s.Nodes); n > 0 {
		mean = float64(total) / float64(n)
	}
	return max, mean
}
