package tmk

import (
	"sort"

	"sdsm/internal/adapt"
	"sdsm/internal/obs"
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
	fetched map[int]bool // pages demand-fetched since the last barrier departure
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
// predicted critical-section working set on the grant (see lockGrant in
// sync.go). Must be called after New and before Run.
func (s *System) EnableAdapt(cfg adapt.Config) {
	s.adaptCfg = cfg
	for _, nd := range s.Nodes {
		nd.ad = &adaptNode{det: adapt.New(cfg), fetched: map[int]bool{}}
		nd.ad.det.LogTrans = s.trace != nil
	}
}

// adaptOn reports whether the machine runs the adaptive protocol.
func (s *System) adaptOn() bool { return s.Nodes[0].ad != nil }

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
		nd.ad.fetched[page] = true
	}
}

// fetchedSorted returns the epoch's demand-fetched pages, sorted.
func (nd *Node) fetchedSorted() []int32 {
	if len(nd.ad.fetched) == 0 {
		return nil
	}
	out := make([]int32, 0, len(nd.ad.fetched))
	for pg := range nd.ad.fetched {
		out = append(out, int32(pg))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// adaptFetchedBytes is the accounted wire size of one relayed fetch list.
func adaptFetchedBytes(pages int) int { return 8 + 4*pages }

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
// receive phases already pair up on all backends.
func (nd *Node) adaptStep(oldBar []int32, fetched []wire.NodePages) {
	s := nd.sys
	ep := adapt.Epoch{Writers: map[int][]adapt.WriteExt{}, Readers: map[int][]int{}}
	for o := range nd.vc {
		for idx := oldBar[o] + 1; idx <= nd.vc[o]; idx++ {
			for _, ref := range nd.know[o][idx-1].Pages {
				pg := int(ref.Page)
				ws := ep.Writers[pg]
				if n := len(ws); n > 0 && ws[n-1].Node == o {
					// The owner closed several intervals covering the page
					// this epoch (a lazy-flush split): union the extents, an
					// unknown extent poisoning the union to unknown.
					if ws[n-1].Hi == 0 || ref.ExtHi == 0 {
						ws[n-1].Lo, ws[n-1].Hi = 0, 0
					} else {
						if int(ref.ExtLo) < ws[n-1].Lo {
							ws[n-1].Lo = int(ref.ExtLo)
						}
						if int(ref.ExtHi) > ws[n-1].Hi {
							ws[n-1].Hi = int(ref.ExtHi)
						}
					}
					continue
				}
				ep.Writers[pg] = append(ws, adapt.WriteExt{Node: o, Lo: int(ref.ExtLo), Hi: int(ref.ExtHi)})
			}
		}
	}
	for _, np := range fetched {
		for _, pg := range np.Pages {
			ep.Readers[int(pg)] = append(ep.Readers[int(pg)], int(np.Node))
		}
	}
	nd.ad.det.Advance(ep)
	if nd.ID == 0 {
		// Detector transitions are machine-global (every replica counts the
		// same ones); node 0 reports them so the aggregate is not N-fold.
		st := nd.ad.det.Stats
		nd.Stats.AdaptPromotions = st.Promotions
		nd.Stats.AdaptSplits = st.Splits
		nd.Stats.AdaptJoins = st.SectionJoins
		nd.Stats.AdaptDecays = st.Decays
		if nd.tr != nil {
			vt, wt := int64(nd.p.Now()), nd.tr.WallNow()
			for _, t := range nd.ad.det.Trans {
				nd.tr.Emit(obs.Event{
					Kind: obs.EvAdapt, VT: vt, WT: wt,
					Page: int32(t.Page), A: int32(t.Kind),
				})
			}
		}
	}

	// The exchange schedule: for every page written this epoch and bound
	// to update, its producer — or, for split-bound pages, each writing
	// pair member — pushes this epoch's own diffs to every bound consumer
	// but itself, one aggregated message per consumer.
	pages := make([]int, 0, len(ep.Writers))
	for pg := range ep.Writers {
		pages = append(pages, pg)
	}
	sort.Ints(pages)
	sends := map[int][]int{} // consumer -> pages this node pushes
	recvs := map[int]bool{}  // producers this node expects a push from
	route := func(producer int, consumers []int, pg int) {
		for _, c := range consumers {
			if c == producer {
				continue
			}
			if producer == nd.ID {
				sends[c] = append(sends[c], pg)
			} else if c == nd.ID {
				recvs[producer] = true
			}
		}
	}
	for _, pg := range pages {
		ws := ep.Writers[pg]
		if pair, _, consumers, ok := nd.ad.det.Split(pg); ok {
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
			continue // conflicting writers: the detector just decayed it
		}
		prod, consumers, ok := nd.ad.det.Push(pg)
		if !ok || prod != ws[0].Node {
			continue
		}
		route(prod, consumers, pg)
	}

	// Send phase: flush the pushed pages' outstanding modifications (the
	// same lazy flush a serve would trigger) and ship every own diff the
	// epoch produced, coalesced into one section span per contiguous run
	// of compatible headers (wire.CoalesceDiffs), one message per bound
	// consumer.
	consumers := make([]int, 0, len(sends))
	for c := range sends {
		consumers = append(consumers, c)
	}
	sort.Ints(consumers)
	for _, c := range consumers {
		var ds []wire.Diff
		for _, pg := range sends[c] {
			if nd.dirty[pg] {
				nd.flushLocalDiff(pg, false)
			}
			for _, d := range nd.diffs[pg] {
				if int(d.Creator) == nd.ID && d.To > oldBar[nd.ID] {
					ds = append(ds, d.toWire())
				}
			}
			nd.Stats.AdaptPagesPushed++
		}
		u := wire.Update{Epoch: int32(nd.Stats.Barriers), Spans: wire.CoalesceDiffs(ds)}
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
	producers := make([]int, 0, len(recvs))
	for q := range recvs {
		producers = append(producers, q)
	}
	sort.Ints(producers)
	for _, q := range producers {
		m := s.NW.Recv(nd.p, q, tagAdapt)
		nd.applyDiffs(wire.ExpandSpans(m.Payload.(wire.Update).Spans))
	}
	nd.ad.fetched = map[int]bool{}
}
