package compiler_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/host"
	"sdsm/internal/interp"
	"sdsm/internal/ir"
	"sdsm/internal/model"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
)

func opts(n int, params rsd.Env) compiler.Options {
	return compiler.Options{NProcs: n, Params: params, Aggregate: true, ConsElim: true, SyncMerge: true, Push: true, Async: true}
}

// TestJacobiTransformMatchesFigure2 checks the paper's worked example: the
// compiler must insert a WRITE_ALL Validate for b's copy-phase section and
// replace Barrier 2 with a Push exchanging boundary columns.
func TestJacobiTransformMatchesFigure2(t *testing.T) {
	a, _ := apps.ByName("jacobi")
	prog := a.Build(8)
	params := prog.Prepare(rsd.Env{"m": 512, "iters": 4}, 8)
	_, rep := compiler.Compile(prog, opts(8, params))
	text := rep.String()

	if !strings.Contains(text, "b[1:m, begin:end] WRITE_ALL after barrier 1") {
		t.Errorf("missing WRITE_ALL validate for b; report:\n%s", text)
	}
	if !strings.Contains(text, "barrier 2 replaced") {
		t.Errorf("Barrier 2 not replaced by Push; report:\n%s", text)
	}
	if !strings.Contains(text, "reads [b[1:m, begin-1:end+1]]") {
		t.Errorf("Push read section should be b[1:m, begin-1:end+1]; report:\n%s", text)
	}
	if !strings.Contains(text, "writes [b[1:m, begin:end]]") {
		t.Errorf("Push write section should be b[1:m, begin:end]; report:\n%s", text)
	}
	// Barrier 1 must survive: a global synchronization is needed to
	// restore release consistency.
	if strings.Contains(text, "barrier 1 replaced") {
		t.Errorf("Barrier 1 must not be replaced; report:\n%s", text)
	}
}

// TestJacobiSummary checks the Section 4.3 access analysis result for the
// first Jacobi loop nest.
func TestJacobiSummary(t *testing.T) {
	a, _ := apps.ByName("jacobi")
	prog := a.Build(8)
	// Find the time loop and its first segment (the stencil nest).
	loop := prog.Body[2].(ir.Loop)
	sum := compiler.Summarize(loop.Body[:1])
	var readB, writeA *compiler.Access
	for i := range sum.Accesses {
		acc := &sum.Accesses[i]
		switch acc.Sec.Array {
		case "b":
			readB = acc
		case "a":
			writeA = acc
		}
	}
	if readB == nil || !readB.Tag.Has(rsd.Read) || readB.Tag.Has(rsd.Write) {
		t.Fatalf("b access wrong: %+v", readB)
	}
	if got := readB.Sec.String(); got != "b[1:m, begin-1:end+1]" {
		t.Errorf("b section = %s, want b[1:m, begin-1:end+1] (paper Section 4.3)", got)
	}
	if writeA == nil || !writeA.Tag.Has(rsd.Write) || !writeA.Tag.Has(rsd.WriteFirst) {
		t.Fatalf("a must be {write, write-first}: %+v", writeA)
	}
}

// TestCopyPhaseWriteFirst: the copy loop writes b without reading it, so
// the summary must be {write, write-first} over full columns.
func TestCopyPhaseWriteFirst(t *testing.T) {
	a, _ := apps.ByName("jacobi")
	prog := a.Build(8)
	loop := prog.Body[2].(ir.Loop)
	sum := compiler.Summarize(loop.Body[2:3])
	for _, acc := range sum.Accesses {
		if acc.Sec.Array == "b" {
			if !acc.Tag.Has(rsd.WriteFirst) {
				t.Fatalf("b copy section lacks write-first: %v", acc)
			}
			if !acc.Exact {
				t.Fatalf("b copy section must be exact: %v", acc)
			}
			return
		}
	}
	t.Fatal("no b access found")
}

// TestGaussBlockedFromPush: the opaque owner conditional must keep Gauss
// from qualifying for Push while leaving the pivot-column read analyzable
// for Validate_w_sync.
func TestGaussBlockedFromPush(t *testing.T) {
	a, _ := apps.ByName("gauss")
	prog := a.Build(8)
	params := prog.Prepare(rsd.Env{"m": 128, "mpad": 512}, 8)
	_, rep := compiler.Compile(prog, opts(8, params))
	if len(rep.Pushes) != 0 {
		t.Errorf("Gauss must not get Push: %v", rep.Pushes)
	}
	found := false
	for _, w := range rep.WSyncs {
		if strings.Contains(w, "A[k+1:m, k:k] READ") {
			found = true
		}
	}
	if !found {
		t.Errorf("pivot column read should be merged with the barrier; report:\n%s", rep)
	}
}

// TestShallowBlockedByCallBoundaries: only aggregation and consistency
// elimination apply; no wsync, no push.
func TestShallowBlockedByCallBoundaries(t *testing.T) {
	a, _ := apps.ByName("shallow")
	prog := a.Build(8)
	params := prog.Prepare(rsd.Env{"m": 512, "mc": 64, "iters": 2}, 8)
	_, rep := compiler.Compile(prog, opts(8, params))
	if len(rep.Pushes) != 0 {
		t.Errorf("Shallow must not get Push: %v", rep.Pushes)
	}
	if len(rep.WSyncs) != 0 {
		t.Errorf("Shallow must not get Validate_w_sync (call boundaries): %v", rep.WSyncs)
	}
	if len(rep.Validates) == 0 {
		t.Error("Shallow should still get plain Validates per phase")
	}
}

// TestISGetsReadWriteAll: the bucket sections under locks must become
// READ&WRITE_ALL (and WRITE_ALL for the zero phase), the paper's example
// of partial analysis.
func TestISGetsReadWriteAll(t *testing.T) {
	a, _ := apps.ByName("is")
	prog := a.Build(8)
	params := prog.Prepare(rsd.Env{"keys": 1 << 14, "buckets": 1 << 13, "iters": 1}, 8)
	_, rep := compiler.Compile(prog, opts(8, params))
	text := rep.String()
	if !strings.Contains(text, "READ&WRITE_ALL") {
		t.Errorf("IS bucket accumulation should get READ&WRITE_ALL:\n%s", text)
	}
	if !strings.Contains(text, "buckets[blo0:bhi0] WRITE_ALL") {
		t.Errorf("IS zero phase should get WRITE_ALL:\n%s", text)
	}
	if len(rep.Pushes) != 0 {
		t.Errorf("IS must not get Push: %v", rep.Pushes)
	}
}

// TestFFTPushOnTransposeBarriers: exactly the two transpose barriers are
// replaced; the others survive (no data crosses processors there).
func TestFFTPushOnTransposeBarriers(t *testing.T) {
	a, _ := apps.ByName("fft")
	prog := a.Build(8)
	params := prog.Prepare(rsd.Env{"nx": 16, "ny": 32, "nz": 16, "iters": 2}, 8)
	_, rep := compiler.Compile(prog, opts(8, params))
	if len(rep.Pushes) != 2 {
		t.Fatalf("FFT should push exactly the two transpose barriers, got %d:\n%s", len(rep.Pushes), rep)
	}
	skipped := strings.Join(rep.Skipped, "\n")
	if !strings.Contains(skipped, "no cross-processor data") {
		t.Errorf("the local barriers should be skipped as useless pushes:\n%s", skipped)
	}
}

// TestLevelGating: disabling options removes the corresponding calls.
func TestLevelGating(t *testing.T) {
	a, _ := apps.ByName("jacobi")
	prog := a.Build(4)
	params := prog.Prepare(rsd.Env{"m": 256, "iters": 2}, 4)

	o := compiler.Options{NProcs: 4, Params: params, Aggregate: true}
	_, rep := compiler.Compile(prog, o)
	if len(rep.Pushes) != 0 || len(rep.WSyncs) != 0 {
		t.Error("aggregation-only level must not push or merge")
	}
	if strings.Contains(rep.String(), "WRITE_ALL") {
		t.Error("aggregation-only level must not use WRITE_ALL")
	}

	o.ConsElim = true
	_, rep = compiler.Compile(prog, o)
	if !strings.Contains(rep.String(), "WRITE_ALL") {
		t.Error("ConsElim level should produce WRITE_ALL")
	}

	base := compiler.Options{NProcs: 4, Params: params}
	out, rep := compiler.Compile(prog, base)
	if len(rep.Validates)+len(rep.WSyncs)+len(rep.Pushes) != 0 {
		t.Error("no-op options must not transform")
	}
	if countStmts(out.Body) != countStmts(prog.Body) {
		t.Error("no-op compile changed the program size")
	}
}

func countStmts(body []ir.Stmt) int {
	n := 0
	for _, st := range body {
		n++
		if l, ok := st.(ir.Loop); ok {
			n += countStmts(l.Body)
		}
	}
	return n
}

// TestContiguityGate: a section covering partial columns must not qualify
// for WRITE_ALL (rule 2 requires a contiguous address range).
func TestContiguityGate(t *testing.T) {
	a, _ := apps.ByName("jacobi")
	prog := a.Build(4)
	params := prog.Prepare(rsd.Env{"m": 256, "iters": 2}, 4)
	_, rep := compiler.Compile(prog, opts(4, params))
	for _, v := range rep.Validates {
		if strings.Contains(v, "a[2:m-1") && strings.Contains(v, "_ALL") {
			t.Errorf("partial-column section of a must not get *_ALL: %s", v)
		}
	}
}

// TestMGSBroadcastSection: the normalized vector read is merged with the
// barrier.
func TestMGSBroadcastSection(t *testing.T) {
	a, _ := apps.ByName("mgs")
	prog := a.Build(8)
	params := prog.Prepare(rsd.Env{"m": 512, "nvec": 64, "mpad": 512}, 8)
	_, rep := compiler.Compile(prog, opts(8, params))
	found := false
	for _, w := range rep.WSyncs {
		if strings.Contains(w, "V[1:m, i:i] READ") {
			found = true
		}
	}
	if !found {
		t.Errorf("vector i read should be merged with the barrier:\n%s", rep)
	}
	if len(rep.Pushes) != 0 {
		t.Errorf("MGS must not get Push: %v", rep.Pushes)
	}
}

// TestSectionsBoundInsideTheirRegionStayPut: a Validate or Push runs at the
// head of the region it serves, so a section that moves with a symbol
// rebound inside the region's loop nest (a Compute per trip; for a Push
// also the variable of the loop carrying the barrier) must be left to
// demand fetches and reported, not evaluated there with the symbol unbound.
func TestSectionsBoundInsideTheirRegionStayPut(t *testing.T) {
	j, sixteen := rsd.Var("j"), []rsd.Lin{rsd.Const(16)}
	nest := func(rhs rsd.Lin) ir.Stmt {
		return ir.Loop{Var: "j", Lo: rsd.Const(1), Hi: rsd.Const(8), Body: []ir.Stmt{
			ir.Compute{Sym: "off", Fn: func(e rsd.Env) int { return e["j"] % 2 }},
			ir.Assign{LHS: ir.At("a", j), RHS: []ir.Ref{ir.At("b", rhs)}, Fn: func(d []float64, s [][]float64) { copy(d, s[0]) }},
		}}
	}
	prog := &ir.Program{
		Name:   "minimal",
		Arrays: []ir.ArrayDecl{{Name: "a", Dims: sixteen}, {Name: "b", Dims: sixteen}},
		Body: []ir.Stmt{
			ir.Barrier{ID: 0},
			nest(j.Add(rsd.Var("off"))),
			ir.Loop{Var: "it", Lo: rsd.Const(1), Hi: rsd.Const(2), Body: []ir.Stmt{
				ir.Barrier{ID: 1}, nest(j.Add(rsd.Var("it"))), ir.Barrier{ID: 2}, nest(j),
			}},
		},
	}
	_, rep := compiler.Compile(prog, opts(2, rsd.Env{}))
	if text := strings.Join(append(rep.Validates, rep.WSyncs...), "\n"); strings.Contains(text, "off") {
		t.Errorf("a section over off was hoisted out of the nest that binds it:\n%s", rep)
	}
	for _, want := range []string{"b[off+1:off+8] after barrier 0: off is bound inside the region", "moves with it"} {
		if !strings.Contains(strings.Join(rep.Skipped, "\n"), want) {
			t.Errorf("report does not skip %q:\n%s", want, rep)
		}
	}
}

// simImage runs prog on an nprocs-node sim machine and returns the whole
// address space as node 0 sees it behind a closing barrier.
func simImage(t *testing.T, prog *ir.Program, params rsd.Env, nprocs int) []float64 {
	t.Helper()
	layout := compiler.BuildLayout(prog, params)
	e := sim.NewEngine(nprocs)
	sys := tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
	var image []float64
	err := interp.RunDSM(prog, sys, params, func(nd *tmk.Node) {
		nd.Barrier(1 << 20)
		if nd.ID != 0 {
			return
		}
		whole := shm.Region{Lo: 0, Hi: layout.Words()}
		nd.Validate(tmk.AccRead, []shm.Region{whole}, false)
		nd.Mem.EnsureRead(nd.Proc(), whole)
		image = slices.Clone(nd.Mem.Data()[:layout.Words()])
	})
	if err != nil {
		t.Fatal(err)
	}
	return image
}

// TestSubscriptOverTwoInductionVariables: a(i+4j), written and read under
// loops i and j, used to panic the summarizer. It now gets the range of the
// subscript over both loops as an inexact section — fetched by a Validate,
// never WRITE_ALL, never pushed — and the program computes the same words
// unmodified, at every optimisation level and sequentially, at 1, 3 and 8
// ranks.
func TestSubscriptOverTwoInductionVariables(t *testing.T) {
	const blocks, width = 8, 4
	i, j := rsd.Var("i"), rsd.Var("j")
	own := func(body ...ir.Stmt) ir.Stmt {
		return ir.Loop{Var: "j", Lo: rsd.Var("jlo"), Hi: rsd.Var("jhi"), Body: []ir.Stmt{
			ir.Loop{Var: "i", Lo: rsd.Const(1), Hi: rsd.Const(width), Body: body},
		}}
	}
	at := i.Add(j.Scale(width)).Plus(-width)              // 1..32, block j of width 4
	mirrored := at.Scale(-1).Plus(blocks*width + 1)       // the same, from the far end: other ranks' blocks
	sum := func(c float64) func([]float64, [][]float64) { // lhs = c + s0 + s1/2
		return func(d []float64, s [][]float64) {
			for t := range d {
				d[t] = c + s[0][t] + 0.5*s[1][t]
			}
		}
	}
	words := []rsd.Lin{rsd.Const(blocks * width)}
	prog := &ir.Program{
		Name:   "two-ivs",
		Arrays: []ir.ArrayDecl{{Name: "a", Dims: words}, {Name: "b", Dims: words}},
		Derived: []ir.DerivedParam{
			{Name: "jlo", Fn: func(e rsd.Env) int { return e["p"]*blocks/e["nprocs"] + 1 }},
			{Name: "jhi", Fn: func(e rsd.Env) int { return (e["p"] + 1) * blocks / e["nprocs"] }},
		},
		Body: []ir.Stmt{
			ir.Barrier{ID: 0},
			ir.Loop{Var: "it", Lo: rsd.Const(1), Hi: rsd.Const(3), Body: []ir.Stmt{
				own(ir.Assign{LHS: ir.At("a", at), RHS: []ir.Ref{ir.At("a", at), ir.At("b", mirrored)}, Fn: sum(1), Cost: time.Nanosecond}),
				ir.Barrier{ID: 1},
				own(ir.Assign{LHS: ir.At("b", at), RHS: []ir.Ref{ir.At("b", at), ir.At("a", mirrored)}, Fn: sum(0.25), Cost: time.Nanosecond}),
				ir.Barrier{ID: 2},
			}},
		},
	}
	_, want := interp.RunSeq(prog, rsd.Env{})
	for _, n := range []int{1, 3, 8} {
		for l, level := range compiler.Levels(n, rsd.Env{}) {
			opt, rep := compiler.Compile(prog, level)
			if text := rep.String(); strings.Contains(text, "_ALL") || len(rep.Pushes) > 0 {
				t.Errorf("%d ranks, level %d: an inexact section was trusted:\n%s", n, l, text)
			}
			if got := simImage(t, opt, rsd.Env{}, n); !slices.Equal(got, want) {
				t.Errorf("%d ranks, level %d: image differs from the sequential run", n, l)
			}
		}
	}
	_, rep := compiler.Compile(prog, opts(3, rsd.Env{}))
	if text := strings.Join(rep.Validates, "\n"); !strings.Contains(text, "a[4jlo-3:4jhi] READ&WRITE") {
		t.Errorf("no Validate over the range of a(i+4j-4):\n%s", rep)
	}
}
