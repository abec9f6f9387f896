package tmk

import (
	"math/bits"
	"slices"

	"sdsm/internal/host"
	"sdsm/internal/wire"
)

// Distributed per-page ownership directory (DESIGN.md §12).
//
// The base protocol routes every diff fetch by write notices alone: the
// requester asks the noticed owners, so a page written by one node and
// read by many turns its writer into a serve hot spot — at 64 or 128
// nodes the writer answers one request per reader per epoch while
// everyone else answers none. Scale mode (EnableScale) adds an IVY-style
// dynamic manager per page, adapted to this protocol's "anyone who
// applied the chain can serve it" property:
//
//   - dirOwner[pg] is the requester-side probable owner — the last
//     writer as this node learned it (learnInterval), itself after a
//     local write (closeInterval/splitInterval), or whatever a
//     forwarding chain taught it (chaseRedirects).
//
//   - dirNext[pg] is the responder-side delegation: the node this
//     responder most recently shipped pg's chain to. A later request for
//     the page is answered with a redirect to that delegate instead of a
//     payload, and the delegation moves to the new requester — so the
//     k-th reader of a hot page is served by the (k-1)-th, spreading the
//     serve load across the reader chain while the writer answers one
//     payload plus cheap redirects. Every new write or learned notice
//     clears the delegation (the delegate's copy is stale for the new
//     interval).
//
// Forwarding is requester-driven: serve handlers run under the
// machine-wide protocol token and must never issue requests of their own
// (an in-handler forward would deadlock), so the responder only returns
// the hint and the requester follows the chain (chaseRedirects), hop
// capped and cycle checked. A chain that exhausts falls back to a Direct
// fetch from the noticed owner — who can always serve its own diffs —
// through completeInflight's retry, so directory staleness can delay but
// never lose an update; the retry's unresolved-notice panic stays the
// backstop.
//
// Determinism: mid-epoch hints depend on serve order, which the
// concurrent backends do not reproduce. At every barrier departure
// resetDirectory rebuilds both arrays from the merged notice set alone —
// identical at every node and on every backend — so the post-barrier
// directory state is a pure function of relayed observations, the same
// replicated-decision rule the adaptive layer follows (package-comment
// invariant four). Memory content never depends on the directory at all;
// routing only picks who serves an identical chain.

// EnableScale switches the machine to scale mode: the per-page ownership
// directory above, plus span-compressed, broadcast-once accounting for
// the barrier fetch-list relay (see relayFetchedBytes and runBarrier).
// Must be called after New and before Run. Off, the protocol and its
// accounting are bit-identical to a machine without the directory — the
// paper tables and the adapt goldens pin that.
func (s *System) EnableScale() {
	s.scale = true
	for _, nd := range s.Nodes {
		nd.dirOwner = make([]int32, nd.Mem.Pages())
		nd.dirNext = make([]int32, nd.Mem.Pages())
		nd.forgetDirectory()
	}
}

// forgetDirectory clears every probable-owner hint and delegation (-1:
// none). Off scale there is nothing to clear.
func (nd *Node) forgetDirectory() {
	for pg := range nd.dirOwner {
		nd.dirOwner[pg] = -1
		nd.dirNext[pg] = -1
	}
}

// OwnerHint returns a node's current probable-owner hint for a page (-1
// unknown). Deterministic across backends only at barrier points, where
// resetDirectory has rebuilt the directory from the merged notice set.
func (nd *Node) OwnerHint(pg int) int {
	if nd.dirOwner == nil {
		return -1
	}
	return int(nd.dirOwner[pg])
}

// noteWritten records a local write: this node is the page's probable
// owner and any previous delegation is stale.
func (nd *Node) noteWritten(pg int) {
	if nd.dirOwner == nil {
		return
	}
	nd.dirOwner[pg] = int32(nd.ID)
	nd.dirNext[pg] = -1
}

// noteRemoteWrite records a learned write notice: the writer becomes the
// probable owner and this node's delegation for the page is stale.
func (nd *Node) noteRemoteWrite(pg, owner int) {
	if nd.dirOwner == nil {
		return
	}
	nd.dirOwner[pg] = int32(owner)
	nd.dirNext[pg] = -1
}

// dirHopCap bounds a forwarding chase. IVY's probable-owner graph gives
// chains logarithmic in machine size under path compression; the +2
// absorbs the mid-epoch staleness this weaker (hint, not invariant)
// directory allows before the Direct fallback takes over.
func (nd *Node) dirHopCap() int {
	return 2 + bits.Len(uint(nd.sys.N()))
}

// chaseRedirects follows the forwarding hints a fetch round returned
// instead of payloads: pages still pending are re-requested from their
// hinted owners, hop by hop, until served, cycled, or hop capped. Each
// hop rewrites dirOwner, so the chain shortens for this node's next
// fault. Pages a chase cannot resolve are left pending for the caller's
// Direct retry (completeInflight), counted as fallbacks.
func (nd *Node) chaseRedirects(redirs []wire.PageOwner) {
	hopCap := nd.dirHopCap()
	visited := map[int]map[int]bool{} // page -> responders already asked
	for hop := 0; hop < hopCap && len(redirs) > 0; hop++ {
		reqs := map[int][]int{} // responder -> pages
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
			nd.dirOwner[pg] = po.Owner
			reqs[owner] = append(reqs[owner], pg)
		}
		if len(reqs) == 0 {
			break
		}
		redirs = redirs[:0]
		var round []wire.Diff
		for _, r := range sortedKeys(reqs) {
			slices.Sort(reqs[r])
			pd := nd.startFetch(r, slices.Compact(reqs[r]), false)
			host.Await(nd.p, pd, nd.sys.Costs)
			nd.Stats.DirHops++
			rep := pd.Reply.(wire.DiffReply)
			round = append(round, rep.Diffs...)
			redirs = append(redirs, rep.Redirects...)
		}
		nd.applyDiffs(round)
	}
	for pg := range visited {
		if len(nd.pages[pg].pending) > 0 {
			nd.Stats.DirFallbacks++
		}
	}
}

// resetDirectory rebuilds the node's directory at a barrier departure as
// a pure function of the merged notice set: every hint is cleared, then
// each page written in any interval the machine now knows about points
// at the interval with the causally latest closing time. All nodes hold
// identical notice sets after a departure, so every replica computes the
// same directory. Called before lastBar advances; it walks the full log,
// not just the epoch's delta, so pages untouched this epoch still get
// deterministic hints rather than retaining schedule-dependent mid-epoch
// values.
//
// The decision must also be identical across BACKENDS, and the raw
// interval log is not: serve-path splits (splitInterval) appear at
// schedule-dependent chain positions, and a twin-based page that stays
// dirty across a close is re-noticed with an empty extent — whether that
// happens depends on when the invalidate-path flush raced the close. Two
// filters restore determinism. Candidates are only the refs that carry a
// fresh write extent (Whole or extHi > 0) in non-split intervals: split
// refs peek the extent the next close records anyway, and empty-extent
// re-notices carry no write fact at all, so what survives is exactly one
// ref per genuine (writer, epoch, page) write — the same set on every
// backend. The winner among a page's candidates is the causally latest:
// each candidate is keyed by how many of the page's candidates its
// closing time knows (iv.vc[c] ≥ candidate index — a comparison whose
// outcome only depends on the barrier structure, not on how splits and
// re-notices inflate either side's chain). Ties — concurrent writers of
// a falsely shared page — break on the larger creator id.
//
// A no-op off scale: the base protocol calls it at every departure.
func (nd *Node) resetDirectory() {
	if nd.dirOwner == nil {
		return
	}
	nd.forgetDirectory()
	type cand struct {
		owner int
		idx   int32
		vc    []int32
	}
	// Candidate order is (owner asc, epoch asc) — identical everywhere.
	cands := map[int][]cand{}
	for o := range nd.vc {
		for idx := int32(1); idx <= nd.vc[o]; idx++ {
			iv := nd.know[o][idx-1]
			if iv.Split {
				continue
			}
			for _, ref := range iv.Pages {
				if !ref.Whole && ref.ExtHi == 0 {
					continue // dirty-persist re-notice: no new write fact
				}
				pg := int(ref.Page)
				cands[pg] = append(cands[pg], cand{owner: o, idx: idx, vc: iv.VC})
			}
		}
	}
	for pg, cs := range cands {
		best, bestKey := 0, -1
		for i, c := range cs {
			key := 0
			for _, d := range cs {
				if c.vc[d.owner] >= d.idx {
					key++
				}
			}
			if key > bestKey || (key == bestKey && c.owner > cs[best].owner) {
				best, bestKey = i, key
			}
		}
		nd.dirOwner[pg] = int32(cs[best].owner)
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
