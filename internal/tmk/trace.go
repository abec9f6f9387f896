package tmk

import (
	"time"

	"sdsm/internal/obs"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// Protocol event tracing (DESIGN.md §11). Every emit site in the protocol
// is guarded by a nil check on the node's tracer, issues no cost-model
// charges, and allocates nothing: with tracing off the protocol's virtual
// times, accounted bytes, and allocation counts are byte-identical to an
// untraced build (the PR 6 alloc gate and the golden tables pin this).
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
		if nd.ad != nil {
			nd.ad.det.LogTrans = true
		}
	}
}

// traceFault closes a fault-service span opened at Fault entry (the start
// stamps are the deferred call's arguments, evaluated at entry).
func (nd *Node) traceFault(page int, acc vm.Access, vt time.Duration, wt int64) {
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

// traceFetchReq records an outgoing diff request to responder r covering
// npages pages (pg is the first), advancing the pair's flow sequence.
func (nd *Node) traceFetchReq(pg, r, npages int) {
	nd.tr.Emit(obs.Event{
		Kind: obs.EvFetchReq, VT: int64(nd.p.Now()), WT: nd.tr.WallNow(),
		Page: int32(pg), Peer: int32(r), A: int32(npages),
		Seq: nd.tr.NextFetchSeq(r),
	})
}

// traceServe records a served diff exchange on the responder's ring and
// feeds the chain-length histogram (diffs per requested page).
func (nd *Node) traceServe(req int, pages []int32, out []wire.Diff, bytes int, vt time.Duration, wt int64) {
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
	vt, wt := int64(nd.p.Now()), nd.tr.WallNow()
	for _, ref := range iv.Pages {
		nd.tr.Emit(obs.Event{
			Kind: obs.EvNotice, VT: vt, WT: wt,
			Page: ref.Page, A: ref.ExtLo, B: ref.ExtHi, C: idx,
		})
	}
}

// traceBarDepart closes the barrier-wait span opened at arrival and feeds
// the barrier-wait histogram.
func (nd *Node) traceBarDepart(id int, epoch int32, avt time.Duration, awt int64) {
	e := obs.Event{
		Kind: obs.EvBarDepart, VT: int64(avt), WT: awt,
		Dur: int64(nd.p.Now() - avt), WDur: nd.tr.WallNow() - awt,
		A: int32(id), B: epoch,
	}
	nd.tr.Emit(e)
	nd.sys.trace.BarrierNS.Observe(e.Dur)
}

// traceGrant records a lock grant on the granter's ring (called with the
// granter node, which may be a peer of the acquirer running this code) and
// feeds the grant-bytes histogram. seq is the grant's flow sequence, read
// back by the acquirer's EvLockAcq.
func (s *System) traceGrant(granter *Node, lockID, to int, g wire.Grant, seq int32) {
	granter.tr.Emit(obs.Event{
		Kind: obs.EvLockGrant, VT: int64(granter.p.Now()), WT: granter.tr.WallNow(),
		Peer: int32(to), A: int32(lockID), B: g.Bytes, C: int32(len(g.Pushed)),
		Seq: seq,
	})
	s.trace.GrantBytes.Observe(int64(g.Bytes))
}

// traceLockAcq closes the lock-wait span opened at Acquire entry. seq links
// the acquisition to the grant that satisfied it (0: no grant crossed
// nodes — single node, or a self-reacquire).
func (nd *Node) traceLockAcq(id int, seq int32, avt time.Duration, awt int64) {
	nd.tr.Emit(obs.Event{
		Kind: obs.EvLockAcq, VT: int64(avt), WT: awt,
		Dur: int64(nd.p.Now() - avt), WDur: nd.tr.WallNow() - awt,
		A: int32(id), Seq: seq,
	})
}
