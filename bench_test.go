// Package sdsm's top-level benchmarks and allocation gates cover the wire
// backend's hot paths. runBarrierFlurry, allocsPerIter and benchDiffReply
// are the fixtures alloc_test.go pins allocation counts with; the
// BenchmarkWire* benchmarks beside them time the wire codec (diff payload
// encode/decode, grant round trips), and BenchmarkAppRun,
// BenchmarkModeRun and BenchmarkNetRun time and count the allocations of
// whole runs of the paper's applications, of the configurations that arm
// the opt-in modes, and of the applications on the wire backend.
// Per-layer timings and the paper's tables are measured by the benchmark
// in bench/ (bash bench/run.sh) and printed by cmd/sdsm-experiments.
package sdsm_test

import (
	"runtime"
	"testing"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/host"
	"sdsm/internal/interp"
	"sdsm/internal/ir"
	"sdsm/internal/model"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/tmk"
	"sdsm/internal/wire"
)

// runBarrierFlurry is the net backend's steady-state barrier workload: n
// nodes each write a slice of their own page, barrier, read a neighbour's
// slice (a demand diff fetch), and barrier again, iters times. Every
// epoch exercises the full wire hot path — twin/diff creation, write
// notices, the departure flurry the master ships to every node, and one
// diff request/reply RPC per node — which is exactly the path the
// zero-allocation work targets.
func runBarrierFlurry(n, iters int) error {
	nw, err := host.NewNet(n, model.SP2())
	if err != nil {
		return err
	}
	defer nw.Close()
	layout := shm.NewLayout()
	arr := layout.Alloc("mem", n*shm.PageWords)
	sys := tmk.New(nw, nw, layout)
	return sys.Run(func(nd *tmk.Node) {
		const words = 64
		for it := 0; it < iters; it++ {
			lo := arr.Base + nd.ID*shm.PageWords
			nd.Mem.EnsureWrite(nd.Proc(), shm.Region{Lo: lo, Hi: lo + words})
			nd.Proc().BeginCompute()
			for w := lo; w < lo+words; w++ {
				nd.Mem.Data()[w] = float64(it + w)
			}
			nd.Proc().EndCompute()
			nd.Barrier(1)
			peer := arr.Base + ((nd.ID+1)%n)*shm.PageWords
			nd.Mem.EnsureRead(nd.Proc(), shm.Region{Lo: peer, Hi: peer + words})
			nd.Barrier(2)
		}
	})
}

// allocsPerIter measures the process-wide heap allocations one iteration
// of run costs in steady state: two runs differing only in iteration
// count cancel the setup/teardown allocations, leaving the per-iteration
// rate. The Mallocs counter is process-global, so callers must not run
// anything concurrently.
func allocsPerIter(tb testing.TB, base, extra int, run func(iters int) error) float64 {
	allocs, _ := memPerIter(tb, base, extra, run)
	return allocs
}

// memPerIter is allocsPerIter with the bytes allocated per iteration beside
// the allocation count.
func memPerIter(tb testing.TB, base, extra int, run func(iters int) error) (allocs, bytes float64) {
	measure := func(iters int) (uint64, uint64) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := run(iters); err != nil {
			tb.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	perIter := func(short, long uint64) float64 {
		if long < short {
			return 0
		}
		return float64(long-short) / float64(extra)
	}
	shortN, shortB := measure(base)
	longN, longB := measure(base + extra)
	return perIter(shortN, longN), perIter(shortB, longB)
}

// stencilProg is the interpreter's inner-loop fixture: iters sweeps of a
// 4-point stencil over the interior of an m×cols array, one vectorized
// loop of m-2 elements per column.
func stencilProg() *ir.Program {
	i, j, m := rsd.Var("i"), rsd.Var("j"), rsd.Var("m")
	dims := []rsd.Lin{m, rsd.Var("cols")}
	return &ir.Program{
		Name:   "stencil",
		Arrays: []ir.ArrayDecl{{Name: "a", Dims: dims}, {Name: "b", Dims: dims}},
		Params: []rsd.Sym{"m", "cols", "iters"},
		Body: []ir.Stmt{ir.Loop{Var: "it", Lo: rsd.Const(1), Hi: rsd.Var("iters"), Body: []ir.Stmt{
			ir.Loop{Var: "j", Lo: rsd.Const(2), Hi: rsd.Var("cols").Plus(-1), Body: []ir.Stmt{
				ir.Loop{Var: "i", Lo: rsd.Const(2), Hi: m.Plus(-1), Body: []ir.Stmt{ir.Assign{
					LHS: ir.At("a", i, j),
					RHS: []ir.Ref{ir.At("b", i.Plus(-1), j), ir.At("b", i.Plus(1), j), ir.At("b", i, j.Plus(-1)), ir.At("b", i, j.Plus(1))},
					Fn: func(d []float64, s [][]float64) {
						up, down, left, right := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)], s[3][:len(d)]
						for t := range d {
							d[t] = 0.25 * (up[t] + down[t] + left[t] + right[t])
						}
					},
					Cost: time.Nanosecond,
				}}},
			}},
		}}},
	}
}

// benchStencil runs b.N sweeps of the stencil over 32 interior columns of
// m-2 elements and reports the cost per unit of work, a unit being per
// elements of the sweep.
func benchStencil(b *testing.B, m, per int, unit string) {
	const cols = 34
	prog := stencilProg()
	b.ResetTimer()
	interp.RunSeq(prog, rsd.Env{"m": m, "cols": cols, "iters": b.N})
	work := float64(b.N) * float64((cols-2)*(m-2)/per)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/work, unit)
}

// BenchmarkInterpStencilColumn is the interpreter's per-element cost on the
// shape every regular application spends its time in: a 510-element column
// of a 4-point stencil (resolve five references, ensure five spans, run
// the tight loop), through the sequential target, so none of it is DSM.
func BenchmarkInterpStencilColumn(b *testing.B) { benchStencil(b, 512, 1, "ns/element") }

// BenchmarkInterpShortLoop is the same statement over 8-element columns:
// what one execution of an innermost loop costs before its first element.
func BenchmarkInterpShortLoop(b *testing.B) { benchStencil(b, 10, 8, "ns/loop") }

// BenchmarkInterpSeqJacobi is the sequential reference of a whole
// application (jacobi/small: init kernel, loop nests, barriers ignored),
// which every verified run pays once more on top of the DSM run.
func BenchmarkInterpSeqJacobi(b *testing.B) {
	app := apps.Jacobi()
	prog := app.Build(1)
	params := prog.Prepare(app.Sets[apps.Small], 1)
	for i := 0; i < b.N; i++ {
		interp.RunSeq(prog, params)
	}
}

// BenchmarkAppRun times one verified harness.Run per iteration for the
// five paper applications the benchmark's sim workloads run (jacobi at its
// large set, the others small), base and compiler-optimised, on sim at 8
// ranks: the whole-run host cost of each cell, allocations included. Every
// iteration borrows warm arenas from harness's idle list, as a steady
// stream of runs does.
func BenchmarkAppRun(b *testing.B) {
	for _, as := range [][2]string{{"jacobi", "large"}, {"gauss", "small"}, {"is", "small"}, {"shallow", "small"}, {"fft", "small"}} {
		app, err := apps.ByName(as[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range []harness.SystemKind{harness.Base, harness.Opt} {
			cfg := harness.Config{App: app, Set: apps.DataSet(as[1]), System: sys, Procs: 8, Backend: harness.BackendSim, Verify: true}
			b.Run(as[0]+"/"+string(sys), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := harness.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkModeRun is BenchmarkAppRun for the configurations that arm the
// opt-in modes: the seven of the benchmark's sim-modes workload and the
// four job specs of its svc-mix workload, each a verified harness.Run on
// sim over warm stores, named as the benchmark names them so a cell lines
// up with its harness.run_p50_ms.<name> row. The service's coordinator and
// pool are not in it: the cell is the job's run.
func BenchmarkModeRun(b *testing.B) {
	for _, m := range []struct {
		name, app, set string
		cfg            harness.Config
	}{
		{"jacobi-large-adapt", "jacobi", "large", harness.Config{Procs: 8, Adapt: true}},
		{"spmv-large-adapt", "spmv", "large", harness.Config{Procs: 8, Adapt: true}},
		{"jacobi-bound-adapt", "jacobi", "bound", harness.Config{Procs: 8, Adapt: true}},
		{"tsp-large-adapt", "tsp", "large", harness.Config{Procs: 8, Adapt: true}},
		{"is-small-adapt", "is", "small", harness.Config{Procs: 8, Adapt: true}},
		{"tsps-small-adapt-scale-p32", "tsps", "small", harness.Config{Procs: 32, Adapt: true, Scale: true}},
		{"jacobi-small-ckpt", "jacobi", "small", harness.Config{Procs: 8, Recover: true}},
		{"jacobi-small-p2", "jacobi", "small", harness.Config{Procs: 2}},
		{"spmv-small-scale-p4", "spmv", "small", harness.Config{Procs: 4, Scale: true}},
		{"tsp-small-p2", "tsp", "small", harness.Config{Procs: 2}},
		{"jacobi-bound-adapt-p2", "jacobi", "bound", harness.Config{Procs: 2, Adapt: true}},
	} {
		app, err := apps.ByName(m.app)
		if err != nil {
			b.Fatal(err)
		}
		cfg := m.cfg
		cfg.App, cfg.Set, cfg.System, cfg.Backend, cfg.Verify = app, apps.DataSet(m.set), harness.Base, harness.BackendSim, true
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := harness.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetRun is BenchmarkAppRun for the benchmark's net-base
// workload: the same five cells, base TreadMarks only, on the wire
// backend at 4 ranks, named as the benchmark names them. Every iteration
// builds a fresh host.Net — a switch, 4 endpoints, 8 sockets — as a run
// on that backend does, so the cell is where the socket path (wire
// framing, FrameQueue, the switch's routers, netpoll) shows in a profile.
func BenchmarkNetRun(b *testing.B) {
	for _, as := range [][2]string{{"jacobi", "large"}, {"gauss", "small"}, {"is", "small"}, {"shallow", "small"}, {"fft", "small"}} {
		app, err := apps.ByName(as[0])
		if err != nil {
			b.Fatal(err)
		}
		cfg := harness.Config{App: app, Set: apps.DataSet(as[1]), System: harness.Base, Procs: 4, Backend: harness.BackendNet, Verify: true}
		b.Run(as[0]+"-"+as[1]+"-tmk", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := harness.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetBarrierFlurry measures the wall and allocation cost of one
// barrier epoch (write + barrier + remote read + barrier, all nodes) on
// the net backend.
func BenchmarkNetBarrierFlurry(b *testing.B) {
	b.ReportAllocs()
	if err := runBarrierFlurry(4, b.N); err != nil {
		b.Fatal(err)
	}
}

// benchDiffReply builds a diff-reply frame like the ones the net backend
// ships on every fault: two page diffs of short runs, ~1.5 KB of payload.
func benchDiffReply() *wire.Frame {
	mk := func(page, creator int32) wire.Diff {
		d := wire.Diff{
			Page: page, Creator: creator, From: 4, To: 5,
			Covers: []int32{5, 3, 7, 1, 0, 2, 4, 9},
		}
		for off := int32(0); off < 512; off += 8 {
			d.Runs = append(d.Runs, wire.Run{Off: off, Vals: []float64{1, 2, 3, 4}})
		}
		return d
	}
	return &wire.Frame{
		Kind: wire.FReply, From: 1, To: 0, Tag: 9, Bytes: 1552, Time: 123456,
		Payload: &wire.DiffReply{Diffs: []wire.Diff{mk(3, 1), mk(4, 1)}},
	}
}

// BenchmarkWireEncodeDiffReply measures encoding the dominant net-backend
// payload (a diff fetch reply).
func BenchmarkWireEncodeDiffReply(b *testing.B) {
	f := benchDiffReply()
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendFrame(buf[:0], f)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkWireEncodePooled measures the production encode path: the
// same diff-reply payload through the frame buffer freelist, as the net
// backend's protocol goroutine encodes every outgoing frame. Steady
// state is allocation-free (pinned by TestWireEncodePooledAllocs).
func BenchmarkWireEncodePooled(b *testing.B) {
	f := benchDiffReply()
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		buf := wire.GetBuf()
		enc, err := wire.AppendFrame(buf[:0], f)
		if err != nil {
			b.Fatal(err)
		}
		n = len(enc)
		wire.PutBuf(enc)
	}
	b.SetBytes(int64(n))
}

// BenchmarkWireDecodeDiffReply measures the matching decode.
func BenchmarkWireDecodeDiffReply(b *testing.B) {
	buf, err := wire.AppendFrame(nil, benchDiffReply())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.ParseFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireGrantRoundTrip measures encode+decode of a lock grant with
// write notices, the per-synchronization payload of the wire backend.
func BenchmarkWireGrantRoundTrip(b *testing.B) {
	g := &wire.Grant{Bytes: 440}
	for idx := int32(1); idx <= 10; idx++ {
		g.Intervals = append(g.Intervals, wire.OwnedInterval{
			Owner: idx % 8, Idx: idx,
			IV: wire.Interval{
				Pages: []wire.PageRef{{Page: idx}, {Page: idx + 1, Whole: idx%3 == 0}},
			},
		})
	}
	f := &wire.Frame{Kind: wire.FHand, From: 2, To: 5, Tag: 1, Payload: g}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := wire.AppendFrame(nil, f)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.ParseFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPushedGrant builds a grant like the ones the lock-scope adaptive
// protocol ships on every bound hand-off: a few write notices plus
// piggybacked diffs for the predicted critical-section working set
// (~two pages of short runs).
func benchPushedGrant() *wire.Frame {
	g := &wire.Grant{Bytes: 2160}
	for idx := int32(1); idx <= 4; idx++ {
		g.Intervals = append(g.Intervals, wire.OwnedInterval{
			Owner: idx % 8, Idx: idx,
			IV: wire.Interval{
				Pages: []wire.PageRef{{Page: idx}, {Page: idx + 1}},
			},
		})
	}
	var pushed []wire.Diff
	for page := int32(3); page <= 4; page++ {
		d := wire.Diff{
			Page: page, Creator: 2, From: 4, To: 5,
			Covers: []int32{5, 3, 7, 1, 0, 2, 4, 9},
		}
		for off := int32(0); off < 512; off += 16 {
			d.Runs = append(d.Runs, wire.Run{Off: off, Vals: []float64{1, 2, 3, 4}})
		}
		pushed = append(pushed, d)
	}
	// The two pages share one header: they coalesce into a single section
	// span, as buildGrant ships them since wire version 4.
	g.Pushed = wire.CoalesceDiffs(nil, pushed)
	return &wire.Frame{Kind: wire.FHand, From: 2, To: 5, Tag: 1, Payload: g}
}

// BenchmarkWireEncodeGrantPiggyback measures encoding the lock-scope
// adaptive grant (write notices + piggybacked working-set diffs), the
// payload every bound lock hand-off ships on the net backend.
func BenchmarkWireEncodeGrantPiggyback(b *testing.B) {
	f := benchPushedGrant()
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendFrame(buf[:0], f)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkWireDecodeGrantPiggyback measures the matching decode.
func BenchmarkWireDecodeGrantPiggyback(b *testing.B) {
	buf, err := wire.AppendFrame(nil, benchPushedGrant())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.ParseFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}
