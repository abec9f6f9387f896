//go:build !race

// Pinned allocation ceilings for the zero-allocation wire path and the
// interpreter's inner loop. These are assertions, not benchmarks: a
// hot-path change that reintroduces steady-state allocations fails
// `go test` outright instead of silently shifting a benchmark number. They
// are excluded under the race detector, whose runtime instrumentation
// allocates on its own account.

package sdsm_test

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"sdsm/internal/adapt"
	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/harness"
	"sdsm/internal/host"
	"sdsm/internal/interp"
	"sdsm/internal/ir"
	"sdsm/internal/model"
	"sdsm/internal/obs"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/svc"
	"sdsm/internal/tmk"
	"sdsm/internal/wire"
)

// TestNetBarrierFlurryAllocs pins the machine-wide allocation rate of one
// steady-state barrier epoch on the net backend (4 nodes: twin/diff
// creation, write notices, the departure flurry, one diff RPC per node).
// Before the pooled wire path this cost ~636 allocations per epoch, 95.2
// while every twin-diff run was an append of its own and every received
// diff a cache entry, 91.0–91.2 while every exchange boxed its request and
// made its Pending and applied rows, and every filed diff its entry and
// cover row, 71.2–71.6 while every closed interval made its page list
// and vector time and every diff its runs, and 46.9–47.5 while a decode
// arena refilled in chunks of 128 elements and every request made its
// record, map entry and queued frame and boxed copies of its request and
// reply, and 24.6–24.8 while the barrier master boxed every departure it
// handed; measured 16.7–16.9 now, a departure handed by pointer. The
// fixture's readers are lent no arena, so each decodes into one of its
// own, never rewound, and makes each departure, request and reply it
// decodes on the heap. The ceiling leaves about 5% for runtime noise, so
// a regression on the encode buffers, decode arena, frame reuse, or
// protocol scratch paths fails loudly.
//
// Bytes are pinned twice on a 2-core Xeon. Per epoch, 12 060–12 220 B
// (12 730–12 790 B while departures were boxed, 12 280–12 430 B while
// the arena refilled in chunks of 128 elements, 12 350–12 470 B while
// every frame took two reads and a writer wakeup):
// a frame buffer that escapes the pool fails it. The figure rose with the
// slab, whose blocks grow to 8 192 elements, so the difference of a 160-
// and a 40-epoch machine holds a larger unused tail; the ceiling is 4 %
// above the highest. Per machine — NewNet, one epoch,
// Close — 262–266 KB, ceiling 5 % above (300–310 KB before, 334–341 KB
// while a FrameReader kept its buffer when its stream ended): the eight
// read-ahead buffers of a 4-rank machine are the pool's, and a reader
// that makes its own, or keeps it, fails it.
func TestNetBarrierFlurryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pinning needs the long flurry run")
	}
	const ceiling, byteCeiling, machineCeiling = 18, 12700, 277000
	per, bytes := memPerIter(t, 40, 160, func(iters int) error { return runBarrierFlurry(4, iters) })
	if per > ceiling {
		t.Fatalf("net barrier flurry allocates %.1f/epoch, ceiling %d (was ~636 before pooling; the wire path regressed)", per, ceiling)
	}
	if bytes > byteCeiling {
		t.Fatalf("net barrier flurry allocates %.0f B/epoch, ceiling %d (a frame buffer escapes the pool)", bytes, byteCeiling)
	}
	_, machine := memPerIter(t, 5, 20, func(machines int) error {
		for range machines {
			if err := runBarrierFlurry(4, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if machine > machineCeiling {
		t.Fatalf("a net machine allocates %.0f B, ceiling %d (a read-ahead buffer escapes the pool)", machine, machineCeiling)
	}
	t.Logf("net barrier flurry: %.1f allocs, %.0f B per epoch, %.0f B per machine (ceilings %d, %d B, %d B)", per, bytes, machine, ceiling, byteCeiling, machineCeiling)
}

// TestWireEncodePooledAllocs pins the encode path proper at zero
// steady-state allocations: encoding the dominant net-backend payload
// into a pooled buffer must reuse the freelist storage outright once the
// buffer has grown to size.
func TestWireEncodePooledAllocs(t *testing.T) {
	f := benchDiffReply()
	per := testing.AllocsPerRun(200, func() {
		buf := wire.GetBuf()
		enc, err := wire.AppendFrame(buf[:0], f)
		if err != nil {
			panic(err)
		}
		wire.PutBuf(enc)
	})
	if per > 0 {
		t.Fatalf("pooled encode allocates %.1f/op, want 0", per)
	}
}

// TestInterpInnerLoopAllocs pins the interpreter's vectorized inner loop
// (execVector: resolve every reference of the assignment, ensure the
// spans, call the kernel) at zero allocations: the executor's scratch is
// sized when the program is lowered, so a 4-point stencil column costs
// nothing per column, where resolving each reference through a fresh index
// slice once cost one allocation per reference plus one per loop (6 here).
// stagedProg is the same bar for the two operand forms the executor copies
// into its scratch before the kernel runs — a broadcast element and a
// strided traversal: the scratch grows to the longest loop once, not per
// loop.
func TestInterpInnerLoopAllocs(t *testing.T) {
	for name, prog := range map[string]*ir.Program{"stencil": stencilProg(), "staged": stagedProg()} {
		per := allocsPerIter(t, 64, 1024, func(cols int) error {
			interp.RunSeq(prog, rsd.Env{"m": 32, "cols": cols, "iters": 1})
			return nil
		})
		// A regression costs at least one allocation per loop; the margin
		// absorbs the handful of mallocs by which two runs of the process differ.
		if per > 0.1 {
			t.Fatalf("%s: interp inner loop allocates %.2f/loop, want 0", name, per)
		}
	}
}

// stagedProg is stencilProg's nest around an elimination step: every
// element of a column of a less the column's first element of b (one word,
// broadcast) times a row of the cols×m array c (a stride of cols words).
func stagedProg() *ir.Program {
	i, j, m, cols := rsd.Var("i"), rsd.Var("j"), rsd.Var("m"), rsd.Var("cols")
	return &ir.Program{
		Name:   "staged",
		Arrays: []ir.ArrayDecl{{Name: "a", Dims: []rsd.Lin{m, cols}}, {Name: "b", Dims: []rsd.Lin{m, cols}}, {Name: "c", Dims: []rsd.Lin{cols, m}}},
		Params: []rsd.Sym{"m", "cols", "iters"},
		Body: []ir.Stmt{ir.Loop{Var: "j", Lo: rsd.Const(2), Hi: cols.Plus(-1), Body: []ir.Stmt{
			ir.Loop{Var: "i", Lo: rsd.Const(2), Hi: m.Plus(-1), Body: []ir.Stmt{ir.Assign{
				LHS: ir.At("a", i, j),
				RHS: []ir.Ref{ir.At("a", i, j), ir.At("b", rsd.Const(1), j), ir.At("c", j, i)},
				Fn: func(d []float64, s [][]float64) {
					a, head, row := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)]
					for t := range d {
						d[t] = a[t] - head[t]*row[t]
					}
				},
				Cost: time.Nanosecond,
			}}},
		}}},
	}
}

// TestPushMemoAllocs pins a repeated PushStmt whose section bounds do not
// move at zero allocations per execution: the interpreter evaluates the
// bounds into scratch, finds them unchanged and hands the runtime the
// send lists it built the first time, where every execution used to cost
// a fresh environment plus 2·nprocs Concrete.Regions/Normalize results
// (internal/interp's TestPushMemo covers the bounds that do move).
func TestPushMemoAllocs(t *testing.T) {
	sec := []rsd.Section{{Array: "a", Dims: []rsd.Bound{rsd.Dense(rsd.Const(2), rsd.Var("m").Plus(-1)), rsd.Dense(rsd.Var("j"), rsd.Var("j"))}}}
	dims := []rsd.Lin{rsd.Var("m"), rsd.Var("m")}
	prog := &ir.Program{
		Name:   "pushes",
		Arrays: []ir.ArrayDecl{{Name: "a", Dims: dims}},
		Params: []rsd.Sym{"m", "iters"},
		Body: []ir.Stmt{ir.Loop{Var: "j", Lo: rsd.Const(3), Hi: rsd.Const(3), Body: []ir.Stmt{
			ir.Loop{Var: "k", Lo: rsd.Const(1), Hi: rsd.Var("iters"), Body: []ir.Stmt{
				ir.PushStmt{ReplacedBarrier: 1, Reads: sec, Writes: sec},
			}},
		}}},
	}
	per := allocsPerIter(t, 64, 1024, func(iters int) error {
		interp.RunSeq(prog, rsd.Env{"m": 32, "iters": iters})
		return nil
	})
	if per > 0.1 {
		t.Fatalf("repeated Push with unchanged bounds allocates %.2f/execution, want 0", per)
	}
}

// TestValidateMemoAllocs pins a repeated ValidateStmt whose section bounds
// do not move at zero allocations per execution, like the Push above and
// through the same memo: the bounds go into scratch, compare equal, and the
// run-time is handed the region set built the first time. Every execution
// used to cost a Concrete per section plus its Regions and a Normalize —
// 42 % of the objects a compiler-optimised run allocated.
func TestValidateMemoAllocs(t *testing.T) {
	sec := []rsd.Section{{Array: "a", Dims: []rsd.Bound{rsd.Dense(rsd.Const(2), rsd.Var("m").Plus(-1)), rsd.Dense(rsd.Var("j"), rsd.Var("j").Plus(1))}}}
	dims := []rsd.Lin{rsd.Var("m"), rsd.Var("m")}
	prog := &ir.Program{
		Name:   "validates",
		Arrays: []ir.ArrayDecl{{Name: "a", Dims: dims}},
		Params: []rsd.Sym{"m", "iters"},
		Body: []ir.Stmt{ir.Loop{Var: "j", Lo: rsd.Const(3), Hi: rsd.Const(3), Body: []ir.Stmt{
			ir.Loop{Var: "k", Lo: rsd.Const(1), Hi: rsd.Var("iters"), Body: []ir.Stmt{
				ir.ValidateStmt{At: ir.ReadWrite, Secs: sec},
			}},
		}}},
	}
	per := allocsPerIter(t, 64, 1024, func(iters int) error {
		interp.RunSeq(prog, rsd.Env{"m": 32, "iters": iters})
		return nil
	})
	if per > 0.1 {
		t.Fatalf("repeated Validate with unchanged bounds allocates %.2f/execution, want 0", per)
	}
}

// TestWSyncBarrierAllocs pins the allocations of one warmed
// Validate_w_sync barrier epoch on sim (4 nodes, each rewriting its own
// page and registering all four) at what its protocol messages cost — the
// four boxed departures, and under one object besides: measured 4.7, the
// registrations' page lists, the needs
// their arrivals present and the master's served lists carved from node
// scratch. The arrival's applied rows (one slab and row list per
// registration), the page list cloned per registration and the served
// lists made per requester cost 35.7, the interval record, the diff and
// the cache entries already carved from each rank's store. The interval's
// page list and vector time and the diff's runs cost 51.7, a cache entry
// and cover row per filed diff and the exchange's own allocations 71.4,
// and a copy per applied row and an append per diff run 87.4 before that.
// The master's responder resolution adds nothing to that (it reads a table
// into node scratch; internal/tmk's TestWSyncResponderAllocs pins the call
// itself at zero), where the log scan it replaced built a map and a slice
// per requested page per requester.
func TestWSyncBarrierAllocs(t *testing.T) {
	const n, ceiling = 4, 5
	per := allocsPerIter(t, 40, 160, func(iters int) error {
		e := sim.NewEngine(n)
		layout := shm.NewLayout()
		arr := layout.Alloc("mem", n*shm.PageWords)
		sys := tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
		return sys.Run(func(nd *tmk.Node) {
			for it := 0; it < iters; it++ {
				lo := arr.Base + nd.ID*shm.PageWords
				nd.Mem.EnsureWrite(nd.Proc(), shm.Region{Lo: lo, Hi: lo + 64})
				nd.Mem.Data()[lo+it%64] = float64(it)
				nd.ValidateWSync(tmk.AccRead, []shm.Region{arr.Whole()})
				nd.Barrier(1)
			}
		})
	})
	if per > ceiling {
		t.Fatalf("Validate_w_sync barrier epoch allocates %.1f, ceiling %d", per, ceiling)
	}
	t.Logf("Validate_w_sync barrier epoch: %.1f allocs (ceiling %d)", per, ceiling)
}

// TestFetchRoundAllocs pins the allocations of one aggregated fetch round on
// sim, 8 nodes: nodes 1–7 each rewrite 8 words of each of their 8 pages and
// barrier, then node 0 Validates the whole array for reading — one exchange
// per writer, 56 pages — and the machine barriers again. The round groups
// its (responder, page) pairs in one sorted scratch list and awaits its
// exchanges from the in-flight list itself, and an exchange and the cache
// entries it files allocate nothing in steady state
// (TestDiffExchangeAllocs), nor do the seven writers' interval records and
// 56 diffs, carved from their ranks' stores: measured 24.5 allocations per
// epoch. While every closed interval made its page list and vector time
// and every diff its runs, the epoch cost 167.7; while every exchange
// boxed its request and reply and made its Pending, reply and applied
// rows, and every filed diff its entry and cover row, 375.1; a copy per
// applied row, an append per diff run and per served diff, and a cache
// entry per received diff 452.1; a responder-keyed map of page slices, its
// sorted key list and a per-round await list 481.1 before that.
func TestFetchRoundAllocs(t *testing.T) {
	const n, pages, ceiling = 8, 8, 25.5
	per := allocsPerIter(t, 40, 160, func(iters int) error {
		e := sim.NewEngine(n)
		layout := shm.NewLayout()
		arr := layout.Alloc("mem", n*pages*shm.PageWords)
		sys := tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
		return sys.Run(func(nd *tmk.Node) {
			for it := 0; it < iters; it++ {
				for pg := 0; nd.ID > 0 && pg < pages; pg++ {
					lo := arr.Base + (nd.ID*pages+pg)*shm.PageWords
					nd.Mem.EnsureWrite(nd.Proc(), shm.Region{Lo: lo, Hi: lo + 8})
					nd.Mem.Data()[lo+it%8] = float64(it)
				}
				nd.Barrier(1)
				if nd.ID == 0 {
					nd.Validate(tmk.AccRead, []shm.Region{arr.Whole()}, false)
				}
				nd.Barrier(2)
			}
		})
	})
	if per > ceiling {
		t.Fatalf("a Validate fetch round epoch allocates %.1f, ceiling %.1f", per, ceiling)
	}
	t.Logf("Validate fetch round epoch: %.1f allocs (ceiling %.1f)", per, ceiling)
}

// TestDiffExchangeAllocs pins one fault's diff exchange at a number of
// allocations that does not grow with the runs in the diff it carries. On
// sim, 2 nodes: every epoch node 0 rewrites every other word of one page, r
// one-word runs, and barriers; node 1 reads the page — one fault, one
// exchange, one r-run twin diff created at the serve — and barriers again.
// A diff's runs share one value buffer, and the diff, the exchange —
// request, applied rows, Pending and reply — the cache entries and cover
// row it files and the interval records live in the ranks' stores, so
// what is left is the barriers' boxed departures. Measured: 4.2
// allocations per epoch at r = 8 and at 256; 10.1 while every closed
// interval made its page list and vector time and every diff its run list
// and value buffer. While every exchange boxed its request and reply,
// made its Pending and applied rows and cloned its reply, and every filed
// diff made its entry and cover row, the epoch cost 19.1; when every run
// was an append of its own, every received diff a cache entry and every
// applied row a copy of its own, 30.1 at r = 8 and 283.1 at 256.
func TestDiffExchangeAllocs(t *testing.T) {
	const ceiling = 4.4
	perEpoch := func(r int) float64 {
		return allocsPerIter(t, 40, 160, func(iters int) error {
			e := sim.NewEngine(2)
			layout := shm.NewLayout()
			arr := layout.Alloc("mem", shm.PageWords)
			sys := tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
			return sys.Run(func(nd *tmk.Node) {
				for it := 0; it < iters; it++ {
					if nd.ID == 0 {
						nd.Mem.EnsureWrite(nd.Proc(), arr.Whole())
						for w := 0; w < r; w++ {
							nd.Mem.Data()[arr.Base+2*w] = float64(it + 1)
						}
					}
					nd.Barrier(1)
					if nd.ID == 1 {
						nd.Mem.EnsureRead(nd.Proc(), arr.Whole())
					}
					nd.Barrier(2)
				}
			})
		})
	}
	few, many := perEpoch(8), perEpoch(256)
	t.Logf("diff exchange epoch: %.1f allocs at 8 runs, %.1f at 256 (ceiling %.1f)", few, many, ceiling)
	if many > few+1 || few > ceiling || many > ceiling {
		t.Fatalf("a diff exchange epoch allocates %.1f at 8 runs and %.1f at 256; want equal within 1 and at most %.1f", few, many, ceiling)
	}
}

// TestNetworkExchangeAllocs pins the in-process request/reply seam at zero
// allocations: on sim, 2 nodes, node 0 issues one diff request to node 1
// and awaits it, the request and the Pending reused every time, and the
// server appends its reply into the Pending's, whose capacity the first
// exchange grew. The seam itself used to box the request and the reply
// into interfaces and make the Pending.
func TestNetworkExchangeAllocs(t *testing.T) {
	e := sim.NewEngine(2)
	nw := host.NewNetwork(e, model.SP2())
	nw.Serve(func(p host.Proc, at int, req *wire.DiffRequest, rep *wire.DiffReply) int {
		rep.Diffs = append(rep.Diffs, wire.Diff{Page: req.Pages[0], Creator: int32(at)})
		return 64
	})
	req := &wire.DiffRequest{Pages: []int32{3}, Applied: [][]int32{{0, 0}}}
	var pd host.Pending
	per := -1.0
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			per = testing.AllocsPerRun(100, func() {
				nw.StartRequest(p, 1, req, 16, &pd)
				host.Await(p, &pd, nw.Costs())
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.Reply.Diffs) != 1 || pd.Reply.Diffs[0].Page != 3 || pd.Bytes != 64 {
		t.Fatalf("reply %+v (%d bytes), want page 3's one diff in 64", pd.Reply, pd.Bytes)
	}
	if per != 0 {
		t.Fatalf("a Network request/reply with a reused Pending allocates %.1f, want 0", per)
	}
}

// adaptEpochAllocs measures the machine-wide allocations of one steady-state
// barrier epoch on sim, 4 nodes: every node rewrites a slice of each of its
// own `pages` pages, barriers, and — when consumed — reads the same slices
// of its neighbour's pages, then barriers again. With adapt armed the
// consumed pattern is bound after three cycles and the reads are served by
// pushes; the unconsumed one never binds, so all adapt adds to it is the
// observation and the detector.
func adaptEpochAllocs(t *testing.T, pages int, consumed, armed bool) float64 {
	const n = 4
	return allocsPerIter(t, 40, 160, func(iters int) error {
		e := sim.NewEngine(n)
		layout := shm.NewLayout()
		arr := layout.Alloc("mem", n*pages*shm.PageWords)
		sys := tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
		if armed {
			sys.EnableAdapt(adapt.Config{})
		}
		return sys.Run(func(nd *tmk.Node) {
			for it := 0; it < iters; it++ {
				for pg := 0; pg < pages; pg++ {
					lo := arr.Base + (nd.ID*pages+pg)*shm.PageWords
					nd.Mem.EnsureWrite(nd.Proc(), shm.Region{Lo: lo, Hi: lo + 8})
					nd.Mem.Data()[lo+it%8] = float64(it)
				}
				nd.Barrier(1)
				for pg := 0; consumed && pg < pages; pg++ {
					lo := arr.Base + ((nd.ID+1)%n*pages+pg)*shm.PageWords
					nd.Mem.EnsureRead(nd.Proc(), shm.Region{Lo: lo, Hi: lo + 8})
				}
				nd.Barrier(2)
			}
		})
	})
}

// TestAdaptEpochAllocs pins what arming adapt adds to a steady-state barrier
// epoch at nothing that grows with the pages written. On a pattern nobody
// consumes, adapt is the observation and the detector alone, and they
// allocate nothing once their scratch has grown (they used to cost two maps,
// two sorted key lists and a slice and a map per page: +4 232 allocations
// per epoch at 64 pages a node). On a bound producer→consumer pattern the
// pushes replace the faults, and the update exchange must not allocate more
// than the demand fetches it removes (it used to: 10 625 against 3 103).
func TestAdaptEpochAllocs(t *testing.T) {
	for _, pages := range []int{2, 64} {
		for _, consumed := range []bool{false, true} {
			off := adaptEpochAllocs(t, pages, consumed, false)
			on := adaptEpochAllocs(t, pages, consumed, true)
			slack := 2.0
			if consumed {
				// One update message per consumer where the faults had none
				// to send, now that an exchange allocates nothing: measured
				// +16.3 at 2 pages, +28 at 64 (+18 and −934 while every
				// exchange and filed diff allocated).
				slack = 32
			}
			if on > off+slack {
				t.Errorf("%d pages a node, consumed=%v: %.1f allocs/epoch with adapt armed, %.1f without; want within %.0f",
					pages, consumed, on, off, slack)
			}
			t.Logf("%d pages a node, consumed=%v: %.1f allocs/epoch armed, %.1f off", pages, consumed, on, off)
		}
	}
}

// TestWriteAllCloseAllocs pins a steady-state WRITE_ALL epoch — Validate
// WRITE_ALL, overwrite every page, close the interval (a Push that sends
// nothing) — at nothing, whatever the pages snapshotted. Node 0 of 2
// works alone. Each close snapshots every page whole, a snapshot nobody
// was handed is re-taken into its own storage, and the interval record's
// page list and vector time and its log entry are carved from the rank's
// store. Measured: 0 allocations per epoch at 8 pages and at 64; 2 while
// every close made its interval record. When every close made a new cache
// entry, coverage row and run list per page, and every Validate a map of
// the pages it covered whole, the same epoch cost 28 at 8 pages and 205 at
// 64.
func TestWriteAllCloseAllocs(t *testing.T) {
	const ceiling = 1
	perEpoch := func(pages int) float64 {
		return allocsPerIter(t, 40, 160, func(iters int) error {
			e := sim.NewEngine(2)
			layout := shm.NewLayout()
			arr := layout.Alloc("mem", pages*shm.PageWords)
			sys := tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
			whole := []shm.Region{arr.Whole()}
			send, from := make([][]shm.Region, 2), make([]bool, 2)
			return sys.Run(func(nd *tmk.Node) {
				for it := 0; nd.ID == 0 && it < iters; it++ {
					nd.Validate(tmk.AccWriteAll, whole, false)
					nd.Mem.EnsureWrite(nd.Proc(), arr.Whole())
					for w := arr.Base; w < arr.Base+arr.Words(); w += 64 {
						nd.Mem.Data()[w] = float64(it)
					}
					nd.Push(send, from)
				}
			})
		})
	}
	few, many := perEpoch(8), perEpoch(64)
	t.Logf("WRITE_ALL close epoch: %.1f allocs at 8 pages, %.1f at 64 (ceiling %d)", few, many, ceiling)
	if few > ceiling || many > ceiling {
		t.Fatalf("a WRITE_ALL close epoch allocates %.1f at 8 pages and %.1f at 64, ceiling %d whatever its pages", few, many, ceiling)
	}
}

// TestCheckpointRecordAllocs pins a steady-state recovery record at O(1)
// allocations and no bytes proportional to the image: the record aliases
// the live pages and is encoded straight into a buffer of the rank's
// store, where it stays uncopied. Two nodes each hold `pages` valid pages
// of their own and overwrite one eighth of them per barrier epoch
// (WRITE_ALL, so a page is clean again once its interval closes), so every
// incremental record frames an eighth of the image and, once the
// incremental records add up to a full one, the next is full: about one
// record in nine frames the whole image, at both sizes. Eight times the image must cost the same
// allocations and — within a fiftieth of the extra image, which amortised
// buffer regrowth stays far below — the same bytes. One allocation per
// framed page of a full record costs 16.9 allocations an epoch at 64 pages
// against 5.7 at 8 and fails it; when every epoch wrote one page, full
// records came once per image-size of epochs and the same allocation
// hid under the slack (7.3 against 6.5). Copying each frame and encoding
// from nil used to allocate several times the image per record: 3.5 MB an
// epoch at 64 pages.
func TestCheckpointRecordAllocs(t *testing.T) {
	const n, small, large = 2, 8, 64
	epoch := func(pages int) (allocs, bytes float64) {
		return memPerIter(t, 40, 160, func(iters int) error {
			e := sim.NewEngine(n)
			layout := shm.NewLayout()
			arr := layout.Alloc("mem", n*pages*shm.PageWords)
			sys := tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
			sys.EnableRecovery(tmk.RecoveryConfig{})
			return sys.Run(func(nd *tmk.Node) {
				own := arr.Base + nd.ID*pages*shm.PageWords
				nd.Mem.EnsureRead(nd.Proc(), shm.Region{Lo: own, Hi: own + pages*shm.PageWords}) // every full record frames every own page
				eighths := make([][]shm.Region, 8)
				for k := range eighths {
					lo := own + k*pages/8*shm.PageWords
					eighths[k] = []shm.Region{{Lo: lo, Hi: lo + pages/8*shm.PageWords}}
				}
				for it := 0; it < iters; it++ {
					part := eighths[it%8]
					nd.Validate(tmk.AccWriteAll, part, false)
					nd.Mem.EnsureWrite(nd.Proc(), part[0])
					for a := part[0].Lo; a < part[0].Hi; a += shm.PageWords {
						nd.Mem.Data()[a+it%8] = float64(it)
					}
					nd.Barrier(1)
				}
			})
		})
	}
	allocsS, bytesS := epoch(small)
	allocsL, bytesL := epoch(large)
	t.Logf("full record epoch: %d pages %.1f allocs %.0f B, %d pages %.1f allocs %.0f B", small, allocsS, bytesS, large, allocsL, bytesL)
	if allocsL > allocsS+2 {
		t.Errorf("a %d-page image costs %.1f allocs/epoch, a %d-page image %.1f: records allocate per page", large, allocsL, small, allocsS)
	}
	if extra := float64(n * (large - small) * shm.PageWords * 8); bytesL-bytesS > extra/50 {
		t.Errorf("a %d-page image costs %.0f B/epoch, a %d-page image %.0f: more than 2%% of the %.0f B of extra image",
			large, bytesL, small, bytesS, extra)
	}
}

// TestFreshRunReusesImages pins what a DSM run allocates for its node
// images once harness's idle list holds stores: nothing, whether it is a
// fresh harness.Run or an svc pool job, because both borrow from that one
// list. After one fresh run of jacobi/small at 8 ranks on sim, a second
// fresh run, and then the first and second jobs of the same spec through a
// new 8-slot svc.Pool, must each allocate fewer bytes than half of its 8
// images. Measured: 75 KiB against 8 × 131 072 words × 8 B = 8 192 KiB of
// images (bar 4 096 KiB); a run that makes its images allocates about
// 11 000 KiB, as the first fresh run here does. The opt column holds a
// compiler-optimised run to the same for its whole-page snapshot pages,
// counted directly as the allocations in the runtime's 4 KiB size class,
// one per page buffer an arena makes: a second fresh opt run must make
// fewer than 32, because releasing the first gave every cached snapshot
// page back to its arena. Measured: 0. A release that left the final
// Verify gather's shared snapshots to the garbage collector makes 111
// pages again per run, and one that skips the snapshot walk 126. (The bar
// was once the second base run's bytes plus 192 pages; a base run now
// allocates too little beside an opt run's compilation for bytes to show
// pages.)
func TestFreshRunReusesImages(t *testing.T) {
	const procs, pagesBar = 8, 32
	app, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.Config{App: app, Set: apps.Small, System: harness.Base, Procs: procs, Backend: harness.BackendSim}
	prog := app.Build(procs)
	images := procs * compiler.BuildLayout(prog, prog.Prepare(app.Sets[cfg.Set], procs)).Words() * 8
	alloc := func(run func() error) uint64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	fresh := func() error {
		_, err := harness.Run(cfg)
		return err
	}
	opt := cfg
	opt.System, opt.Verify = harness.Opt, true
	freshOpt := func() error {
		_, err := harness.Run(opt)
		return err
	}
	pool := svc.NewPool(procs)
	pooled := func() error {
		if r := pool.Run(wire.JobSpec{App: "jacobi", Set: "small", Procs: procs, Backend: "sim"}); r.Err != "" {
			return errors.New(r.Err)
		}
		return nil
	}
	first, second := alloc(fresh), alloc(fresh)
	pool1, pool2 := alloc(pooled), alloc(pooled)
	pages := func() uint64 { // the runtime's 4 KiB size class holds the page buffers
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		for _, c := range m.BySize {
			if c.Size == shm.PageWords*8 {
				return c.Mallocs
			}
		}
		t.Fatal("no size class of one page")
		return 0
	}
	pages0 := pages()
	opt1 := alloc(freshOpt)
	pages1 := pages()
	opt2 := alloc(freshOpt)
	made1, made2 := pages1-pages0, pages()-pages1
	t.Logf("jacobi/small p%d: %d KiB of images; fresh runs %d then %d KiB, pool jobs %d then %d KiB, opt runs %d then %d KiB making %d then %d pages",
		procs, images>>10, first>>10, second>>10, pool1>>10, pool2>>10, opt1>>10, opt2>>10, made1, made2)
	for _, c := range []struct {
		name  string
		bytes uint64
	}{{"a second fresh run", second}, {"a first pool job", pool1}, {"a second pool job", pool2}} {
		if c.bytes >= uint64(images/2) {
			t.Errorf("%s allocated %d KiB, at least half of its %d KiB of images: it made its images again", c.name, c.bytes>>10, images>>10)
		}
	}
	if made2 >= pagesBar {
		t.Errorf("a second opt run made %d pages (the first %d), at least %d: it made its snapshot pages again", made2, made1, pagesBar)
	}
}

// TestWarmRunAllocs pins what a warm run of jacobi/small at 8 ranks on sim
// allocates once harness's idle list holds the stores a first run grew:
// its images, protocol log and scratch are all warm, so what is left is
// the machine's own objects and the messages; the program comes lowered
// from harness's memo and runs on executors the last run gave back. The
// least of three warm runs is taken, since now and then one pays about 8
// objects and 4 KiB more that the runtime makes on its own account.
// Measured: 201 allocations and 22 672 B in each of 24 runs; 336 and
// 37 640 B (342 and 41 224 B once in 14 when all three paid the runtime's
// objects) while every machine lowered the program again and started its
// executors cold; 803 and 75 960 B while every run built its program
// and laid it out again and the barrier master boxed every departure;
// 805 and 77 528 B while interval records carried vector times and the
// interconnect counted traffic per node; while every run made its log
// afresh — interval records, diffs, cache entries and lists, the page
// table and the scratch — 3 210 and 1 454 504 B. The ceilings leave
// under 5 % over a 209 / 26 768 B run, one that pays the runtime's own.
func TestWarmRunAllocs(t *testing.T) {
	const allocsCeiling, bytesCeiling = 219, 28_100
	allocs, bytes := warmRunAllocs(t, "jacobi", harness.Base, harness.Config{Procs: 8})
	t.Logf("a warm jacobi/small p8 run: %d allocs, %d B (ceilings %d, %d B)", allocs, bytes, allocsCeiling, bytesCeiling)
	if allocs > allocsCeiling || bytes > bytesCeiling {
		t.Fatalf("a warm jacobi/small p8 run allocates %d objects and %d B, ceilings %d and %d B", allocs, bytes, allocsCeiling, bytesCeiling)
	}
}

// TestWarmRecoverRunAllocs pins a warm jacobi/small run at 8 ranks with
// checkpointing armed: each record is encoded into one of its store's
// record buffers — a full record into the spare, an incremental one after
// the chain's last — so what the run adds to TestWarmRunAllocs' is about
// one boxed wire.Checkpoint per record. Measured over 24 runs: 602–604
// allocations and 98 216–102 328 B; 737 and 113 184 B (740 and
// 117 280 B once in 6) while every machine lowered the program again and
// started its executors cold; 1 203 and 150 816 B while
// every run built its program and boxed its departures; 1 204 and
// 150 968 B while every record was full and a free list of buffers held
// the chain; 1 690 and 31 648 248 B while every run made an in-memory
// sink that copied each record into buffers regrown as full records grew.
// The ceilings leave under 5 % over the higher.
func TestWarmRecoverRunAllocs(t *testing.T) {
	const allocsCeiling, bytesCeiling = 634, 107_400
	allocs, bytes := warmRunAllocs(t, "jacobi", harness.Base, harness.Config{Procs: 8, Recover: true})
	t.Logf("a warm recovering jacobi/small p8 run: %d allocs, %d B (ceilings %d, %d B)", allocs, bytes, allocsCeiling, bytesCeiling)
	if allocs > allocsCeiling || bytes > bytesCeiling {
		t.Fatalf("a warm recovering jacobi/small p8 run allocates %d objects and %d B, ceilings %d and %d B", allocs, bytes, allocsCeiling, bytesCeiling)
	}
}

// TestTracedRunAllocs pins what tracing adds to a warm jacobi/small run at
// 8 ranks: the events it records, each a 64-byte obs.Event, times a small
// factor for each node's ring growing by append. Measured: 2 830 448 B
// traced against 75 448 B untraced, for 15 392 events (985 088 B of
// events), a factor of 2.8 — most of it the ring's doubling, whose arrays
// add up to twice its final capacity. The bar is a factor of 3. A
// tracer that made its whole ring up front allocated 32 MiB here.
func TestTracedRunAllocs(t *testing.T) {
	const factor = 3
	cfg := harness.Config{Procs: 8}
	_, plain := warmRunAllocs(t, "jacobi", harness.Base, cfg)
	cfg.Trace = true
	_, traced := warmRunAllocs(t, "jacobi", harness.Base, cfg)
	app, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	cfg.App, cfg.Set, cfg.System, cfg.Backend = app, apps.Small, harness.Base, harness.BackendSim
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	for _, n := range res.Trace.Nodes {
		events += uint64(n.Len()) + uint64(n.Dropped())
	}
	bar := plain + events*uint64(unsafe.Sizeof(obs.Event{}))*factor
	t.Logf("jacobi/small p8: %d B untraced, %d B traced for %d events (bar %d B)", plain, traced, events, bar)
	if events == 0 || traced > bar {
		t.Fatalf("a traced jacobi/small p8 run allocates %d B for %d events, more than %d B untraced plus %d× the events", traced, events, plain, factor)
	}
}

// TestWarmScaleRunAllocs pins a warm spmv/small run at 4 ranks in scale
// mode, the scale job of the service mix, by its allocation count and
// bytes. Measured: 124 allocations and 12 528 B; 176 and 17 536 B while
// every machine lowered the program again and started its executors
// cold; 396 and 35 744 B while
// every run built its program and laid it out again and the barrier
// master boxed every departure; 834 and 69 344 B while
// the relax kernel made a map of its touched pages and a sorted list of
// them on every call; 24 892 (6 840 864 B) while every node kept a
// probable-owner map and re-elected it from its whole interval log at
// every barrier departure. The ceilings leave under 5 %.
func TestWarmScaleRunAllocs(t *testing.T) {
	const allocsCeiling, bytesCeiling = 130, 13_150
	allocs, bytes := warmRunAllocs(t, "spmv", harness.Base, harness.Config{Procs: 4, Scale: true})
	t.Logf("a warm spmv/small p4 scale run: %d allocs, %d B (ceilings %d, %d B)", allocs, bytes, allocsCeiling, bytesCeiling)
	if allocs > allocsCeiling || bytes > bytesCeiling {
		t.Fatalf("a warm spmv/small p4 scale run allocates %d objects and %d B, ceilings %d and %d B", allocs, bytes, allocsCeiling, bytesCeiling)
	}
}

// warmRunAllocs runs app's small set as system under cfg's rank count,
// modes and backend (sim when it names none) four times and returns the
// least allocation count and bytes of the last three, warm, runs: the
// first grows the stores, and now and then a run pays a few objects the
// runtime makes on its own account.
func warmRunAllocs(t *testing.T, name string, system harness.SystemKind, cfg harness.Config) (allocs, bytes uint64) {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.App, cfg.Set, cfg.System = app, apps.Small, system
	if cfg.Backend == "" {
		cfg.Backend = harness.BackendSim
	}
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for i := range 4 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := harness.Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if i > 0 {
			allocs, bytes = min(allocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
	}
	return allocs, bytes
}

// TestWarmNetRunAllocs pins a warm gauss/small p4 base run on net, the
// socket path: its diffs, intervals and page refs are decoded into the
// decode arenas of the ranks' stores, its requests' records and queued
// request frames are reused, and what is left is the net machine itself
// (sockets, queues, goroutines): a departure, a diff request and a diff
// reply are carved whole from the decode arena, and each rank serves into
// the reply its store lends. Measured on a 2-core Xeon, over 14 runs:
// 344–368 allocations and 29 488–36 624 B, the real schedule moving
// them; 435–451 and 46 512–53 328 B while every machine lowered the
// program again and started its executors cold; 4 086 and 301 704 B
// while every run built its program, every
// decoded departure, request and reply was boxed and every Net's service
// loops regrew their replies; 9 920 and 4 748 216 B while every
// connection decoded into arena chunks of its own and every request made
// its record, its map entry, its queued frame and the boxed copies of its
// request and reply. The ceilings leave under 5 % over the highest.
func TestWarmNetRunAllocs(t *testing.T) {
	const allocsCeiling, bytesCeiling = 386, 38_450
	allocs, bytes := warmRunAllocs(t, "gauss", harness.Base, harness.Config{Procs: 4, Backend: harness.BackendNet})
	t.Logf("a warm gauss/small p4 net run: %d allocs, %d B (ceilings %d, %d B)", allocs, bytes, allocsCeiling, bytesCeiling)
	if allocs > allocsCeiling || bytes > bytesCeiling {
		t.Fatalf("a warm gauss/small p4 net run allocates %d objects and %d B, ceilings %d and %d B", allocs, bytes, allocsCeiling, bytesCeiling)
	}
}

// TestMachineBuildAllocs pins machine construction at a number of
// allocations independent of the address space: tmk.New for 8 nodes over
// 1 024 pages allocates what it does over 64, within a small constant. A
// node's per-page consistency state is one table carved from two slabs and
// the vm's per-page state is dense slices, so a page costs bytes, never an
// object — an applied row per page per node used to make this 7 680 apart.
func TestMachineBuildAllocs(t *testing.T) {
	const n, small, large, slack = 8, 64, 1024, 8
	build := func(pages int) float64 {
		layout := shm.NewLayout()
		layout.Alloc("mem", pages*shm.PageWords)
		return testing.AllocsPerRun(5, func() {
			e := sim.NewEngine(n) // with its network, the same at any size
			tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
		})
	}
	s, l := build(small), build(large)
	if l > s+slack {
		t.Fatalf("tmk.New allocates %.0f objects over %d pages, %.0f over %d; want within %d", l, large, s, small, slack)
	}
	t.Logf("tmk.New at %d nodes: %.0f allocs over %d pages, %.0f over %d", n, s, small, l, large)
}

// TestPushGatherAllocs pins what one Push message allocates at a number
// that does not grow with its chunks: the sender gathers every chunk out
// of memory into a buffer and chunk list from its store's free list, and
// the receiver, once it has applied the message, hands them back. The two
// ranks push k disjoint one-word chunks of their own page to each other
// every iteration, so neither runs ahead of the other (a rank that nobody
// pushes to can, and then needs a buffer per message in flight), and each
// checks that the peer's words arrived as written. Measured: 1 allocation
// per message (the boxed payload) at 32 chunks and at 256; 3 while every
// message made its buffer and chunk list (a one-way push costs that still,
// its sender running every iteration ahead). When Push intersected word
// lists and copied every chunk into a slice of its own, the message cost
// 53 at 32 chunks and 286 at 256.
func TestPushGatherAllocs(t *testing.T) {
	const ceiling = 1.1
	perMsg := func(k int) float64 {
		stale := 0
		perIter := allocsPerIter(t, 40, 160, func(iters int) error {
			e := sim.NewEngine(2)
			layout := shm.NewLayout()
			arr := layout.Alloc("mem", 2*shm.PageWords)
			sys := tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
			var chunks [2][]shm.Region
			for i := range chunks {
				for c := range k {
					lo := arr.Base + i*shm.PageWords + 2*c
					chunks[i] = append(chunks[i], shm.Region{Lo: lo, Hi: lo + 1})
				}
			}
			send := [][][]shm.Region{{nil, chunks[0]}, {chunks[1], nil}}
			from := [][]bool{{false, true}, {true, false}}
			return sys.Run(func(nd *tmk.Node) {
				data := nd.Mem.Data()
				for it := 0; it < iters; it++ {
					for _, r := range chunks[nd.ID] {
						data[r.Lo] = float64(it*1000 + r.Lo)
					}
					nd.Push(send[nd.ID], from[nd.ID])
					for _, r := range chunks[1-nd.ID] {
						if data[r.Lo] != float64(it*1000+r.Lo) {
							stale++
						}
					}
				}
			})
		})
		if stale > 0 {
			t.Fatalf("%d pushed words at %d chunks did not arrive as written", stale, k)
		}
		return perIter / 2
	}
	few, many := perMsg(32), perMsg(256)
	if few > ceiling || many > ceiling {
		t.Fatalf("one Push message allocates %.1f at 32 chunks and %.1f at 256, ceiling %.1f whatever its chunks", few, many, ceiling)
	}
	t.Logf("one Push message: %.2f allocs at 32 chunks, %.2f at 256 (ceiling %.1f)", few, many, ceiling)
}

// TestValidateMovingBoundsAllocs pins a repeated ValidateStmt whose
// bounds move on every execution at zero allocations once warmed, the
// shape of gauss's A[k+1:m, jfirst:m:8]: the regions are rebuilt into the
// memo's own storage, which the first execution grew to size, and one
// section's regions are not normalized again. When every rebuild made a
// fresh set — a Concrete, its region list grown by append, a Normalize —
// this cost 9.0 objects per execution.
func TestValidateMovingBoundsAllocs(t *testing.T) {
	const steps = 16 // executions per iteration, every one at new bounds
	m, k := rsd.Var("m"), rsd.Var("k")
	sec := []rsd.Section{{Array: "a", Dims: []rsd.Bound{
		rsd.Dense(k.Plus(1), m), {Lo: rsd.Const(3), Hi: m, Stride: 8},
	}}}
	prog := &ir.Program{
		Name:   "validates",
		Arrays: []ir.ArrayDecl{{Name: "a", Dims: []rsd.Lin{m, m}}},
		Params: []rsd.Sym{"m", "iters"},
		Body: []ir.Stmt{ir.Loop{Var: "it", Lo: rsd.Const(1), Hi: rsd.Var("iters"), Body: []ir.Stmt{
			ir.Loop{Var: "k", Lo: rsd.Const(1), Hi: rsd.Const(steps), Body: []ir.Stmt{
				ir.ValidateStmt{At: ir.ReadWrite, Secs: sec},
			}},
		}}},
	}
	per := allocsPerIter(t, 64, 1024, func(iters int) error {
		interp.RunSeq(prog, rsd.Env{"m": 64, "iters": iters})
		return nil
	}) / steps
	if per > 0.01 {
		t.Fatalf("a Validate whose bounds move allocates %.2f/execution, want 0", per)
	}
}

// TestWarmOptRunAllocs pins warm compiler-optimised runs at 8 ranks on
// sim, whose synchronisation goes through the augmented interface: gauss/
// small (a Validate_w_sync at every barrier) and fft/small (Push). Push
// gathers into buffers its receivers hand back, and the Validate_w_sync
// registrations, the needs they present and the master's served lists are
// carved from node scratch, and the program comes built, compiled, laid
// out and lowered from harness's memo, its executors' Validate/Push memos
// warm from the last run. Measured: gauss 193 allocations and 23 056 B,
// fft 600 and 51 920 B; 564 and 74 144 B, 1 871 and 707 520 B while every
// machine lowered the program again and rebuilt every plan, and a
// Validate and a queued acquire allocated; 3 029 and 263 192 B, 4 511 and
// 898 584 B while every run built and compiled its program and laid it
// out again and the barrier master boxed every departure; 14 000 and
// 3 141 320 B, 5 183 and 3 221 048 B while every Push made its buffer and
// chunk list and every barrier made its needs' rows, registrations' page
// lists and served lists afresh. The ceilings leave under 5 %.
func TestWarmOptRunAllocs(t *testing.T) {
	for _, c := range []struct {
		app                  string
		allocsCeiling, bCeil uint64
	}{
		{"gauss", 202, 24_200},
		{"fft", 630, 54_500},
	} {
		allocs, bytes := warmRunAllocs(t, c.app, harness.Opt, harness.Config{Procs: 8})
		t.Logf("a warm %s/small p8 opt run: %d allocs, %d B (ceilings %d, %d B)", c.app, allocs, bytes, c.allocsCeiling, c.bCeil)
		if allocs > c.allocsCeiling || bytes > c.bCeil {
			t.Errorf("a warm %s/small p8 opt run allocates %d objects and %d B, ceilings %d and %d B", c.app, allocs, bytes, c.allocsCeiling, c.bCeil)
		}
	}
}
