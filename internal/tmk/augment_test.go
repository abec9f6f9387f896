package tmk

import (
	"testing"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
)

// TestAsyncValidateSingleFaultDrainsAllModes: the paper's asynchronous
// Validate finishes in the page fault handler; one fault must complete the
// deferred consistency actions for every page of the Validate, not fault
// once per page.
func TestAsyncValidateSingleFaultDrainsAllModes(t *testing.T) {
	const pages = 6
	s := testSystem(2, pages*shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: 0, Hi: pages * shm.PageWords})
			d := nd.Mem.Data()
			for i := range d {
				d[i] = float64(i)
			}
		}
		nd.Barrier(1)
		if nd.ID == 1 {
			nd.Validate(AccRead, region(0, pages*shm.PageWords), true)
			before := nd.Mem.Counters.ReadFaults
			// Touch every page; only the first may fault.
			for pg := 0; pg < pages; pg++ {
				if got := r(nd, pg*shm.PageWords+1); got != float64(pg*shm.PageWords+1) {
					t.Errorf("page %d stale: %v", pg, got)
				}
			}
			if faults := nd.Mem.Counters.ReadFaults - before; faults > 1 {
				t.Errorf("async validate caused %d faults, want at most 1", faults)
			}
		}
		nd.Barrier(2)
	})
}

// TestPushPartialPageKeepsObligations: a push chunk covering part of a
// page must not mark the page applied — the unpushed words still carry
// their write notices.
func TestPushPartialPageKeepsObligations(t *testing.T) {
	s := testSystem(2, shm.PageWords)
	run(t, s, func(nd *Node) {
		half := shm.PageWords / 2
		if nd.ID == 0 {
			nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: 0, Hi: shm.PageWords})
			d := nd.Mem.Data()
			for i := 0; i < shm.PageWords; i++ {
				d[i] = float64(i) + 1
			}
		}
		// Push only the first half of the page to node 1.
		reads := [][]shm.Region{0: {}, 1: {{Lo: 0, Hi: half}}}
		writes := [][]shm.Region{0: {{Lo: 0, Hi: half}}, 1: {}}
		pushAs(nd, reads, writes)
		nd.Barrier(1)
		if nd.ID == 1 {
			// The pushed half is present; reading the other half must fault
			// and fetch (obligation retained).
			before := nd.Mem.Counters.ReadFaults
			if got := r(nd, half+5); got != float64(half+5)+1 {
				t.Errorf("unpushed half stale: %v", got)
			}
			if nd.Mem.Counters.ReadFaults == before {
				t.Error("partial push should have left the page's obligation in place")
			}
		}
		nd.Barrier(2)
	})
}

// TestPushFullPageSkipsRefetch: a fully pushed page must not be
// re-invalidated by the notices arriving at the next barrier. As in the
// compiler's output, the pushed section is written under WRITE_ALL (a
// plain twin-based page stays dirty across the interval close and is
// conservatively re-noticed, which would legitimately re-invalidate).
func TestPushFullPageSkipsRefetch(t *testing.T) {
	s := testSystem(2, shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			nd.Validate(AccWriteAll, region(0, shm.PageWords), false)
			nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: 0, Hi: shm.PageWords})
			d := nd.Mem.Data()
			for i := 0; i < shm.PageWords; i++ {
				d[i] = 7
			}
		}
		all := shm.Region{Lo: 0, Hi: shm.PageWords}
		pushAs(nd, [][]shm.Region{0: {}, 1: {all}}, [][]shm.Region{0: {all}, 1: {}})
		nd.Barrier(1)
		if nd.ID == 1 {
			before := nd.Mem.Counters.ReadFaults
			if got := r(nd, 9); got != 7 {
				t.Errorf("pushed value = %v", got)
			}
			if nd.Mem.Counters.ReadFaults != before {
				t.Error("fully pushed page re-faulted after the barrier")
			}
		}
		nd.Barrier(2)
	})
}

// TestPushBuffersWaitForTheirReceiver: the receiver of a Push reads the
// sender's gathered buffer in place, so the sender may gather into it again
// only once the receiver has applied it, not at its own next Push. Rank 0
// pushes a pattern of the epoch to rank 1 every epoch and receives nothing;
// rank 1 computes for long before every receive, so rank 0 runs several
// epochs ahead. Every epoch's words must arrive as they were sent, on sim
// and on the real-concurrency host, and every buffer must be back on rank
// 0's free list at the end.
func TestPushBuffersWaitForTheirReceiver(t *testing.T) {
	const epochs = 12
	chunks := []shm.Region{{Lo: 3, Hi: 40}, {Lo: 100, Hi: 101}, {Lo: 300, Hi: shm.PageWords}}
	want := func(it, addr int) float64 { return float64(1000*(it+1) + addr) }
	send := [][][]shm.Region{{nil, chunks}, {nil, nil}}
	from := [][]bool{{false, false}, {true, false}}
	for _, backend := range []string{"sim", "real"} {
		t.Run(backend, func(t *testing.T) {
			var h host.Host = sim.NewEngine(2)
			if backend == "real" {
				h = host.NewReal(2)
			}
			layout := shm.NewLayout()
			layout.Alloc("mem", shm.PageWords)
			s := New(h, host.NewNetwork(h, model.SP2()), layout)
			run(t, s, func(nd *Node) {
				for it := 0; it < epochs; it++ {
					if nd.ID == 0 {
						for _, c := range chunks {
							nd.Mem.EnsureWrite(nd.p, c)
							for a := c.Lo; a < c.Hi; a++ {
								nd.Mem.Data()[a] = want(it, a)
							}
						}
					} else {
						nd.p.Advance(10 * time.Millisecond)
						time.Sleep(time.Millisecond) // the real host does not schedule by virtual time
					}
					nd.Push(send[nd.ID], from[nd.ID])
					if nd.ID == 0 {
						continue
					}
					for _, c := range chunks {
						for a := c.Lo; a < c.Hi; a++ {
							if got := nd.Mem.Data()[a]; got != want(it, a) {
								t.Errorf("epoch %d, word %d: got %v, want %v", it, a, got, want(it, a))
								return
							}
						}
					}
				}
			})
			st := s.Nodes[0].st
			if len(st.pushSent[1]) != 0 {
				t.Errorf("%d buffers still queued for rank 1 after it applied every message", len(st.pushSent[1]))
			}
			if backend == "sim" && len(st.pushFree) < 2 {
				t.Errorf("rank 0 holds %d free buffers; the test wants it several Pushes ahead of rank 1", len(st.pushFree))
			}
		})
	}
}

// TestWriteAllPartialPageFallsBackToTwin: WRITE_ALL on a section that only
// partially covers a page must keep twin-based detection for that page, so
// the other processor's half survives.
func TestWriteAllPartialPageFallsBackToTwin(t *testing.T) {
	s := testSystem(2, shm.PageWords)
	run(t, s, func(nd *Node) {
		half := shm.PageWords / 2
		mine := shm.Region{Lo: nd.ID * half, Hi: (nd.ID + 1) * half}
		for iter := 0; iter < 3; iter++ {
			nd.Validate(AccWriteAll, []shm.Region{mine}, false)
			nd.Mem.EnsureWrite(nd.p, mine)
			d := nd.Mem.Data()
			for w := mine.Lo; w < mine.Hi; w++ {
				d[w] = float64(iter*10 + nd.ID + 1)
			}
			nd.Barrier(1)
			other := shm.Region{Lo: (1 - nd.ID) * half, Hi: (2 - nd.ID) * half}
			nd.Mem.EnsureRead(nd.p, other)
			if got := nd.Mem.Data()[other.Lo]; got != float64(iter*10+(1-nd.ID)+1) {
				t.Errorf("iter %d node %d: other half = %v", iter, nd.ID, got)
			}
			nd.Barrier(2)
		}
	})
}

// TestValidateWSyncOnLockCarriesGrantDiffs: the lock-grant path serves the
// registered sections ("the requested data is piggy-backed on the
// response").
func TestValidateWSyncConsumedOncePerSync(t *testing.T) {
	s := testSystem(2, shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			nd.Acquire(5)
			w(nd, 0, 42)
			nd.Release(5)
		} else {
			nd.p.Advance(5 * time.Millisecond)
			nd.ValidateWSync(AccRead, region(0, 16))
			nd.Acquire(5)
			if len(nd.wsync) != 0 {
				t.Error("wsync registration not consumed at acquire")
			}
			nd.Release(5)
		}
	})
}

// TestDiffAccumulationAvoidedByWholeNotices compares the bytes fetched by
// a late reader in the migratory pattern: twin-based writers make the
// reader pull every writer's overlapping diff, WRITE_ALL writers let it
// pull one whole page.
func TestDiffAccumulationAvoidedByWholeNotices(t *testing.T) {
	runChain := func(writeAll bool) int64 {
		const n = 4
		s := testSystem(n, shm.PageWords)
		if err := s.Run(func(nd *Node) {
			nd.p.Advance(time.Duration(nd.ID) * time.Millisecond)
			nd.Acquire(1)
			if writeAll {
				nd.Validate(AccReadWriteAll, region(0, shm.PageWords), false)
			}
			nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: 0, Hi: shm.PageWords})
			d := nd.Mem.Data()
			for i := 0; i < shm.PageWords; i++ {
				d[i] = float64(nd.ID*1000 + i)
			}
			nd.Release(1)
			nd.Barrier(1)
			if nd.ID == 0 {
				before := s.NW.Stats().Bytes
				nd.Validate(AccRead, region(0, shm.PageWords), false)
				_ = r(nd, 5)
				_ = before
			}
			nd.Barrier(2)
		}); err != nil {
			t.Fatal(err)
		}
		return s.NW.Stats().Bytes
	}
	accum := runChain(false)
	whole := runChain(true)
	if whole >= accum {
		t.Fatalf("WRITE_ALL chain moved %d bytes, twin chain %d; accumulation not avoided", whole, accum)
	}
}

// TestSixteenProcessors exercises the system beyond the paper's count.
func TestSixteenProcessors(t *testing.T) {
	const n = 16
	s := testSystem(n, n*shm.PageWords)
	run(t, s, func(nd *Node) {
		for iter := 0; iter < 2; iter++ {
			w(nd, nd.ID*shm.PageWords+iter, float64(100*nd.ID+iter))
			nd.Barrier(1)
			peer := (nd.ID + 1) % n
			if got := r(nd, peer*shm.PageWords+iter); got != float64(100*peer+iter) {
				t.Errorf("iter %d: node %d read %v from peer %d", iter, nd.ID, got, peer)
			}
			nd.Barrier(2)
		}
	})
}

// TestProtBatchingAccounting: a Validate over a contiguous section must
// charge one protection run, not one op per page.
func TestProtBatchingAccounting(t *testing.T) {
	const pages = 16
	s := testSystem(2, pages*shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			before := nd.Mem.Counters.ProtOps
			nd.Validate(AccWriteAll, region(0, pages*shm.PageWords), false)
			ops := nd.Mem.Counters.ProtOps - before
			if ops > 2 {
				t.Errorf("WRITE_ALL over %d contiguous pages charged %d protection ops, want 1-2", pages, ops)
			}
		}
		nd.Barrier(1)
	})
}
