package tmk

import (
	"time"

	"sdsm/internal/adapt"
	"sdsm/internal/obs"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// Protocol event tracing (DESIGN.md §11). This file holds every event the
// protocol emits and the only tests of the node's tracer: the protocol
// calls one trace* helper per event, unconditionally, and each helper
// returns at once when the tracer is nil. A helper issues no cost-model
// charge and, off, touches nothing but that nil test, so with tracing off
// the protocol's virtual times, accounted bytes, and allocation counts are
// byte-identical to an untraced build. That is re-proved by measurement,
// not by the guard's position: the alloc gates (TestInterpInnerLoopAllocs,
// TestNetBarrierFlurryAllocs, TestWSyncBarrierAllocs), the golden tables,
// and the benchmark's untraced sim-base row.
//
// Emit sites run inside protocol sections — serialized machine-wide by the
// protocol token — except serves on the real backend, which run on the
// requester's goroutine against the responder's ring; the per-node ring
// mutex covers that.

// EnableTrace attaches an observability machine: one ring tracer per node,
// plus the vm layer's twin/diff hook. Must be called after New and before
// Run. The caller picks the clock domain when building m (obs.NewMachine):
// virtual timeline on sim, wall on real/net.
func (s *System) EnableTrace(m *obs.Machine) {
	s.trace = m
	for i, nd := range s.Nodes {
		nd.tr = m.Nodes[i]
		nd.Mem.Trace = m.Nodes[i]
	}
}

// tracing reports whether the node records events.
func (nd *Node) tracing() bool { return nd.tr != nil }

// traceStart returns the (virtual, wall) stamps that open a span, for the
// helper that later closes it; zeros when tracing is off.
func (nd *Node) traceStart() (time.Duration, int64) {
	if nd.tr == nil {
		return 0, 0
	}
	return nd.p.Now(), nd.tr.WallNow()
}

// traceFault closes a fault-service span opened at Fault entry (the start
// stamps are the deferred call's arguments, evaluated at entry).
func (nd *Node) traceFault(page int, acc vm.Access, vt time.Duration, wt int64) {
	if nd.tr == nil {
		return
	}
	var a int32
	if acc == vm.Write {
		a = 1
	}
	e := obs.Event{
		Kind: obs.EvFault, VT: int64(vt), WT: wt,
		Dur: int64(nd.p.Now() - vt), WDur: nd.tr.WallNow() - wt,
		Page: int32(page), A: a,
	}
	nd.tr.Emit(e)
	nd.sys.trace.FaultNS.Observe(e.Dur)
}

// traceFetchReq records an outgoing diff request to responder r for pages
// pgs, advancing the pair's flow sequence.
func (nd *Node) traceFetchReq(r int, pgs []int) {
	if nd.tr == nil {
		return
	}
	nd.tr.Emit(obs.Event{
		Kind: obs.EvFetchReq, VT: int64(nd.p.Now()), WT: nd.tr.WallNow(),
		Page: int32(pgs[0]), Peer: int32(r), A: int32(len(pgs)),
		Seq: nd.tr.NextFetchSeq(r),
	})
}

// traceServe records a served diff exchange, opened at vt/wt, on the
// responder's ring and feeds the chain-length histogram (diffs per
// requested page).
func (nd *Node) traceServe(req int, pages []int32, out []wire.Diff, bytes int, vt time.Duration, wt int64) {
	if nd.tr == nil {
		return
	}
	var pg int32
	if len(pages) > 0 {
		pg = pages[0]
	}
	for _, want := range pages {
		var chain int64
		for i := range out {
			if out[i].Page == want {
				chain++
			}
		}
		if chain > 0 {
			nd.sys.trace.ChainLen.Observe(chain)
		}
	}
	nd.tr.Emit(obs.Event{
		Kind: obs.EvServe, VT: int64(vt), WT: wt,
		Dur: int64(nd.p.Now() - vt), WDur: nd.tr.WallNow() - wt,
		Page: pg, Peer: int32(req), A: int32(len(out)), B: int32(bytes),
		Seq: nd.tr.NextServeSeq(req),
	})
}

// traceNotices records one write-notice event per page of the interval the
// node just closed (extents in words; C is the interval index).
func (nd *Node) traceNotices(iv wire.Interval, idx int32) {
	if nd.tr == nil {
		return
	}
	vt, wt := int64(nd.p.Now()), nd.tr.WallNow()
	for _, ref := range iv.Pages {
		nd.tr.Emit(obs.Event{
			Kind: obs.EvNotice, VT: vt, WT: wt,
			Page: ref.Page, A: ref.ExtLo, B: ref.ExtHi, C: idx,
		})
	}
}

// traceBarArrive records the node's arrival at barrier id and returns the
// stamps that open its barrier-wait span.
func (nd *Node) traceBarArrive(id int) (time.Duration, int64) {
	vt, wt := nd.traceStart()
	if nd.tr != nil {
		nd.tr.Emit(obs.Event{
			Kind: obs.EvBarArrive, VT: int64(vt), WT: wt,
			A: int32(id), B: int32(nd.Stats.Barriers),
		})
	}
	return vt, wt
}

// traceBarDepart closes the barrier-wait span opened at arrival and feeds
// the barrier-wait histogram.
func (nd *Node) traceBarDepart(id int, avt time.Duration, awt int64) {
	if nd.tr == nil {
		return
	}
	e := obs.Event{
		Kind: obs.EvBarDepart, VT: int64(avt), WT: awt,
		Dur: int64(nd.p.Now() - avt), WDur: nd.tr.WallNow() - awt,
		A: int32(id), B: int32(nd.Stats.Barriers),
	}
	nd.tr.Emit(e)
	nd.sys.trace.BarrierNS.Observe(e.Dur)
}

// traceWSync records, on the responder's ring, the diffs it contributed to
// requester req's Validate_w_sync for page pg (nothing when it had none).
func (nd *Node) traceWSync(pg, req int, served int32) {
	if nd.tr == nil || served == 0 {
		return
	}
	nd.tr.Emit(obs.Event{
		Kind: obs.EvWSync, VT: int64(nd.p.Now()), WT: nd.tr.WallNow(),
		Page: int32(pg), Peer: int32(req), A: served,
	})
}

// traceGrant records a grant of lock l on the ring of its granter nd (which
// may be a peer of the acquirer running this code) and feeds the
// grant-bytes histogram. It numbers the grant: l.grantSeq is the flow
// sequence the acquirer's EvLockAcq reads back.
func (nd *Node) traceGrant(l *lock, to int, g *wire.Grant) {
	if nd.tr == nil {
		return
	}
	l.grantSeq++
	nd.tr.Emit(obs.Event{
		Kind: obs.EvLockGrant, VT: int64(nd.p.Now()), WT: nd.tr.WallNow(),
		Peer: int32(to), A: int32(l.id), B: g.Bytes, C: int32(len(g.Pushed)),
		Seq: l.grantSeq,
	})
	nd.sys.trace.GrantBytes.Observe(int64(g.Bytes))
}

// traceLockAcq closes the lock-wait span opened at Acquire entry. seq links
// the acquisition to the grant that satisfied it (0: no grant crossed
// nodes — single node, or a self-reacquire).
func (nd *Node) traceLockAcq(id int, seq int32, avt time.Duration, awt int64) {
	if nd.tr == nil {
		return
	}
	nd.tr.Emit(obs.Event{
		Kind: obs.EvLockAcq, VT: int64(avt), WT: awt,
		Dur: int64(nd.p.Now() - avt), WDur: nd.tr.WallNow() - awt,
		A: int32(id), Seq: seq,
	})
}

// traceLockRel records the release of lock id.
func (nd *Node) traceLockRel(id int) {
	if nd.tr == nil {
		return
	}
	nd.tr.Emit(obs.Event{
		Kind: obs.EvLockRel, VT: int64(nd.p.Now()), WT: nd.tr.WallNow(),
		A: int32(id),
	})
}

// traceAdapt records the barrier detector's transitions of the epoch just
// advanced (node 0 only: they are machine-global).
func (nd *Node) traceAdapt(trans []adapt.Transition) {
	if nd.tr == nil {
		return
	}
	vt, wt := int64(nd.p.Now()), nd.tr.WallNow()
	for _, t := range trans {
		nd.tr.Emit(obs.Event{
			Kind: obs.EvAdapt, VT: vt, WT: wt,
			Page: int32(t.Page), A: int32(t.Kind),
		})
	}
}

// traceCkpt records a written recovery record of the given encoded size.
func (nd *Node) traceCkpt(bytes int, full bool, epoch int32) {
	if nd.tr == nil {
		return
	}
	var b int32
	if full {
		b = 1
	}
	nd.tr.Emit(obs.Event{
		Kind: obs.EvCkpt, VT: int64(nd.p.Now()), WT: nd.tr.WallNow(),
		A: int32(bytes), B: b, C: epoch,
	})
}

// traceRecover records one phase of this node's injected failure, stamped
// vt/wt: 0 the death (an instant), 1 the completed restore (the span the
// stamps opened).
func (nd *Node) traceRecover(phase int32, vt time.Duration, wt int64) {
	if nd.tr == nil {
		return
	}
	e := obs.Event{Kind: obs.EvRecover, VT: int64(vt), WT: wt, A: phase, Peer: int32(nd.ID)}
	if phase == 1 {
		e.Dur, e.WDur = int64(nd.p.Now()-vt), nd.tr.WallNow()-wt
	}
	nd.tr.Emit(e)
}
