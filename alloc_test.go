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
	"runtime"
	"testing"
	"time"

	"sdsm/internal/adapt"
	"sdsm/internal/apps"
	"sdsm/internal/cluster"
	"sdsm/internal/compiler"
	"sdsm/internal/harness"
	"sdsm/internal/interp"
	"sdsm/internal/ir"
	"sdsm/internal/model"
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
// Before the pooled wire path this cost ~636 allocations per epoch; the
// ceiling pins the ≥80% reduction (measured ~107) with headroom for
// runtime noise, so a regression on the encode buffers, decode arena,
// frame reuse, or protocol scratch paths fails loudly.
func TestNetBarrierFlurryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pinning needs the long flurry run")
	}
	const ceiling = 127
	per := allocsPerIter(t, 40, 160, func(iters int) error { return runBarrierFlurry(4, iters) })
	if per > ceiling {
		t.Fatalf("net barrier flurry allocates %.1f/epoch, ceiling %d (was ~636 before pooling; the wire path regressed)", per, ceiling)
	}
	t.Logf("net barrier flurry: %.1f allocs/epoch (ceiling %d)", per, ceiling)
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
// page and registering all four) at what its protocol values cost — the
// interval, the arrival's applied rows, the twin and the diff: measured
// 103.4. The master's responder resolution adds nothing to that (it reads a
// table into node scratch; internal/tmk's TestWSyncResponderAllocs pins the
// call itself at zero), where the log scan it replaced built a map and a
// slice per requested page per requester: 131.4 for the same epoch.
func TestWSyncBarrierAllocs(t *testing.T) {
	const n, ceiling = 4, 115
	per := allocsPerIter(t, 40, 160, func(iters int) error {
		e := sim.NewEngine(n)
		layout := shm.NewLayout()
		arr := layout.Alloc("mem", n*shm.PageWords)
		sys := tmk.New(e, cluster.New(e, model.SP2()), layout)
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
		sys := tmk.New(e, cluster.New(e, model.SP2()), layout)
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
				// to send: measured +18 at 2 pages, −934 at 64.
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

// TestCheckpointRecordAllocs pins a steady-state full recovery record into
// MemSink at O(1) allocations and no bytes proportional to the image: the
// record aliases the live pages, is encoded into the node's reused buffer,
// and lands in a buffer the sink recycled from the chain it retires. Two
// nodes checkpoint an image of `pages` valid pages at every barrier; eight
// times the image must cost the same allocations and — within a fiftieth of
// the extra image, which amortised buffer regrowth stays far below — the
// same bytes. Copying each frame and encoding from nil used to allocate
// several times the image per record: 3.5 MB an epoch at 64 pages.
func TestCheckpointRecordAllocs(t *testing.T) {
	const n, small, large = 2, 8, 64
	epoch := func(pages int) (allocs, bytes float64) {
		return memPerIter(t, 40, 160, func(iters int) error {
			e := sim.NewEngine(n)
			layout := shm.NewLayout()
			arr := layout.Alloc("mem", pages*shm.PageWords)
			sys := tmk.New(e, cluster.New(e, model.SP2()), layout)
			sys.EnableRecovery(tmk.RecoveryConfig{})
			return sys.Run(func(nd *tmk.Node) {
				nd.Mem.EnsureRead(nd.Proc(), arr.Whole()) // every page valid: every full record frames it
				for it := 0; it < iters; it++ {
					lo := arr.Base + nd.ID*shm.PageWords
					nd.Mem.EnsureWrite(nd.Proc(), shm.Region{Lo: lo, Hi: lo + 8})
					nd.Mem.Data()[lo+it%8] = float64(it)
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
// images once harness's idle list holds arenas: nothing, whether it is a
// fresh harness.Run or an svc pool job, because both borrow from that one
// list. After one fresh run of jacobi/small at 8 ranks on sim, a second
// fresh run, and then the first and second jobs of the same spec through a
// new 8-slot svc.Pool, must each allocate fewer bytes than half of its 8
// images. Measured: 1 555 KiB against 8 × 131 072 words × 8 B = 8 192 KiB
// of images (bar 4 096 KiB); a run that makes its images allocates about
// 10 800 KiB, as the first fresh run here does.
func TestFreshRunReusesImages(t *testing.T) {
	const procs = 8
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
	pool := svc.NewPool(procs)
	pooled := func() error {
		if r := pool.Run(wire.JobSpec{App: "jacobi", Set: "small", Procs: procs, Backend: "sim"}); r.Err != "" {
			return errors.New(r.Err)
		}
		return nil
	}
	first, second := alloc(fresh), alloc(fresh)
	pool1, pool2 := alloc(pooled), alloc(pooled)
	t.Logf("jacobi/small p%d: %d KiB of images; fresh runs %d then %d KiB, pool jobs %d then %d KiB",
		procs, images>>10, first>>10, second>>10, pool1>>10, pool2>>10)
	for _, c := range []struct {
		name  string
		bytes uint64
	}{{"a second fresh run", second}, {"a first pool job", pool1}, {"a second pool job", pool2}} {
		if c.bytes >= uint64(images/2) {
			t.Errorf("%s allocated %d KiB, at least half of its %d KiB of images: it made its images again", c.name, c.bytes>>10, images>>10)
		}
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
			tmk.New(e, cluster.New(e, model.SP2()), layout)
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
// of memory into one buffer sized to the message, beside one exactly sized
// chunk list. Node 0 pushes k disjoint one-word chunks of one page to node
// 1 every iteration. Measured: 3 allocations per message (the buffer, the
// chunk list, the payload) at 32 chunks and at 256. When Push intersected
// word lists and copied every chunk into a slice of its own, the same
// message cost 53 at 32 chunks and 286 at 256.
func TestPushGatherAllocs(t *testing.T) {
	const ceiling = 4
	perMsg := func(k int) float64 {
		return allocsPerIter(t, 40, 160, func(iters int) error {
			e := sim.NewEngine(2)
			layout := shm.NewLayout()
			arr := layout.Alloc("mem", shm.PageWords)
			sys := tmk.New(e, cluster.New(e, model.SP2()), layout)
			chunks := make([]shm.Region, k)
			for c := range chunks {
				chunks[c] = shm.Region{Lo: arr.Base + 2*c, Hi: arr.Base + 2*c + 1}
			}
			send := [][][]shm.Region{{nil, chunks}, {nil, nil}}
			from := [][]bool{{false, false}, {true, false}}
			return sys.Run(func(nd *tmk.Node) {
				for it := 0; it < iters; it++ {
					nd.Push(send[nd.ID], from[nd.ID])
				}
			})
		})
	}
	few, many := perMsg(32), perMsg(256)
	if few > ceiling || many > ceiling {
		t.Fatalf("one Push message allocates %.1f at 32 chunks and %.1f at 256, ceiling %d whatever its chunks", few, many, ceiling)
	}
	t.Logf("one Push message: %.1f allocs at 32 chunks, %.1f at 256 (ceiling %d)", few, many, ceiling)
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
