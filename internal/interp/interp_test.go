package interp

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"sdsm/internal/compiler"
	"sdsm/internal/host"
	"sdsm/internal/ir"
	"sdsm/internal/model"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
)

// prog1d builds a tiny SPMD program over a 1-D array for testing.
func prog1d(body ...ir.Stmt) *ir.Program {
	return &ir.Program{
		Name:   "t",
		Arrays: []ir.ArrayDecl{{Name: "x", Dims: []rsd.Lin{rsd.Var("n")}}},
		Params: []rsd.Sym{"n"},
		Derived: []ir.DerivedParam{
			{Name: "lo", Fn: func(e rsd.Env) int { return e["p"]*e["n"]/e["nprocs"] + 1 }},
			{Name: "hi", Fn: func(e rsd.Env) int { return (e["p"] + 1) * e["n"] / e["nprocs"] }},
		},
		Body: body,
	}
}

// fill is the span kernel of `lhs = v`.
func fill(v float64) func([]float64, [][]float64) {
	return func(d []float64, _ [][]float64) {
		for t := range d {
			d[t] = v
		}
	}
}

// weighted is the span kernel of `lhs = c + Σ w[k]·rhs[k]`, summed in
// operand order.
func weighted(c float64, w ...float64) func([]float64, [][]float64) {
	return func(d []float64, s [][]float64) {
		for t := range d {
			v := c
			for k, wk := range w {
				v += wk * s[k][t]
			}
			d[t] = v
		}
	}
}

func TestSeqLoopAndAssign(t *testing.T) {
	i := rsd.Var("i")
	p := prog1d(
		ir.Loop{Var: "i", Lo: rsd.Const(1), Hi: rsd.Var("n"), Body: []ir.Stmt{
			ir.Assign{LHS: ir.At("x", i), Fn: fill(7), Cost: time.Nanosecond},
		}},
		ir.Loop{Var: "i", Lo: rsd.Const(2), Hi: rsd.Var("n"), Body: []ir.Stmt{
			ir.Assign{LHS: ir.At("x", i), RHS: []ir.Ref{ir.At("x", i.Plus(-1)), ir.At("x", i)},
				Fn: weighted(0, 1, 1), Cost: time.Nanosecond},
		}},
	)
	_, mem := RunSeq(p, rsd.Env{"n": 16})
	// Prefix-sum-like recurrence starting from 7s: x[i] = 7(i).
	for i := 1; i <= 16; i++ {
		if mem[i-1] != float64(7*i) {
			t.Fatalf("x[%d] = %v, want %d", i, mem[i-1], 7*i)
		}
	}
}

func TestSeqTimeCountsCosts(t *testing.T) {
	i := rsd.Var("i")
	p := prog1d(
		ir.Loop{Var: "i", Lo: rsd.Const(1), Hi: rsd.Var("n"), Body: []ir.Stmt{
			ir.Assign{LHS: ir.At("x", i), Fn: fill(1), Cost: 10 * time.Nanosecond},
		}},
	)
	if got := SeqTime(p, rsd.Env{"n": 100}); got != 1000*time.Nanosecond {
		t.Fatalf("SeqTime = %v, want 1µs", got)
	}
	if got := SeqTime(p, rsd.Env{"n": 100, "cscale": 5}); got != 5000*time.Nanosecond {
		t.Fatalf("scaled SeqTime = %v, want 5µs", got)
	}
}

func TestComputeBindsSymbols(t *testing.T) {
	i := rsd.Var("i")
	p := prog1d(
		ir.Compute{Sym: "start", Fn: func(e rsd.Env) int { return e["n"] / 2 }},
		ir.Loop{Var: "i", Lo: rsd.Var("start"), Hi: rsd.Var("n"), Body: []ir.Stmt{
			ir.Assign{LHS: ir.At("x", i), Fn: fill(3), Cost: time.Nanosecond},
		}},
	)
	_, mem := RunSeq(p, rsd.Env{"n": 10})
	for i := 1; i <= 10; i++ {
		want := 0.0
		if i >= 5 {
			want = 3
		}
		if mem[i-1] != want {
			t.Fatalf("x[%d] = %v, want %v", i, mem[i-1], want)
		}
	}
}

func TestIfBranches(t *testing.T) {
	i := rsd.Var("i")
	p := prog1d(
		ir.If{
			Cond: func(e rsd.Env) bool { return e["n"] > 5 },
			Then: []ir.Stmt{ir.Loop{Var: "i", Lo: rsd.Const(1), Hi: rsd.Const(1), Body: []ir.Stmt{
				ir.Assign{LHS: ir.At("x", i), Fn: fill(1), Cost: 0}}}},
			Else: []ir.Stmt{ir.Loop{Var: "i", Lo: rsd.Const(1), Hi: rsd.Const(1), Body: []ir.Stmt{
				ir.Assign{LHS: ir.At("x", i), Fn: fill(2), Cost: 0}}}},
		},
	)
	_, mem := RunSeq(p, rsd.Env{"n": 10})
	if mem[0] != 1 {
		t.Fatalf("then branch not taken: %v", mem[0])
	}
	_, mem = RunSeq(p, rsd.Env{"n": 4})
	if mem[0] != 2 {
		t.Fatalf("else branch not taken: %v", mem[0])
	}
}

func TestStridedLoop(t *testing.T) {
	i := rsd.Var("i")
	p := prog1d(
		ir.Loop{Var: "i", Lo: rsd.Const(1), Hi: rsd.Var("n"), Step: 3, Body: []ir.Stmt{
			ir.Assign{LHS: ir.At("x", i), Fn: fill(1), Cost: 0},
		}},
	)
	_, mem := RunSeq(p, rsd.Env{"n": 10})
	for i := 1; i <= 10; i++ {
		want := 0.0
		if (i-1)%3 == 0 {
			want = 1
		}
		if mem[i-1] != want {
			t.Fatalf("x[%d] = %v, want %v", i, mem[i-1], want)
		}
	}
}

func TestDSMMatchesSeqForSPMDSum(t *testing.T) {
	// Each processor fills its block; after a barrier, processor blocks are
	// combined by reading the neighbours' data.
	i := rsd.Var("i")
	mk := func() *ir.Program {
		return prog1d(
			ir.Loop{Var: "i", Lo: rsd.Var("lo"), Hi: rsd.Var("hi"), Body: []ir.Stmt{
				ir.Assign{LHS: ir.At("x", i), Fn: fill(2), Cost: time.Nanosecond},
			}},
			ir.Barrier{ID: 1},
			ir.Loop{Var: "i", Lo: rsd.Var("lo"), Hi: rsd.Var("hi"), Body: []ir.Stmt{
				ir.Assign{LHS: ir.At("x", i), RHS: []ir.Ref{ir.At("x", i)},
					Fn: weighted(0, 3), Cost: time.Nanosecond},
			}},
			ir.Barrier{ID: 2},
		)
	}
	params := rsd.Env{"n": 4096}
	_, want := RunSeq(mk(), params)

	prog := mk()
	layout := compiler.BuildLayout(prog, params)
	e := sim.NewEngine(4)
	nw := host.NewNetwork(e, model.SP2())
	sys := tmk.New(e, nw, layout)
	var got []float64
	err := RunDSM(prog, sys, params, func(nd *tmk.Node) {
		if nd.ID != 0 {
			return
		}
		arr := layout.Array("x")
		nd.Validate(tmk.AccRead, []shm.Region{arr.Whole()}, false)
		nd.Mem.EnsureRead(nd.Proc(), arr.Whole())
		got = append([]float64(nil), nd.Mem.Data()[arr.Base:arr.Base+arr.Words()]...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range got {
		if got[w] != want[w] {
			t.Fatalf("word %d: got %v want %v", w, got[w], want[w])
		}
	}
}

// TestLoweredRunRecyclesExecutors pins the idle list of a lowered
// program's executor sets: a machine that finishes hands its set to the
// next, which starts from the rank's environment with nothing a callback
// stored and its private state handed back to ir.Program.Local, which
// zeroes it; a run that fails drops its set; and a machine of another shape
// is refused before it takes one.
func TestLoweredRunRecyclesExecutors(t *testing.T) {
	const procs = 4
	handed, made := 0, 0 // Local calls given a last run's state, and calls in all
	p := prog1d(
		ir.Compute{Sym: "k", Fn: func(e rsd.Env) int { return e["lo"] + 1 }},
		ir.Kernel{Name: "mark", Run: func(ctx ir.KernelCtx) {
			e, runs := ctx.Env(), ctx.Local().(*int)
			if _, ok := e["mark"]; ok || *runs != 0 || e["k"] != e["lo"]+1 {
				panic(fmt.Sprintf("a run starts from the last one's state: view %v, private state %d", e, *runs))
			}
			e["mark"], *runs = 1, 1
		}},
		ir.Barrier{ID: 1},
	)
	p.Local = func(prev any) any {
		made++
		if runs, ok := prev.(*int); ok {
			handed++
			*runs = 0
			return runs
		}
		return new(int)
	}
	params := rsd.Env{"n": 4096}
	layout := compiler.BuildLayout(p, params)
	lp := Lower(p, layout, params, procs)
	machine := func(n int) *tmk.System {
		e := sim.NewEngine(n)
		return tmk.New(e, host.NewNetwork(e, model.SP2()), layout)
	}
	idle := func() [][]*executor {
		lp.idle.Lock()
		defer lp.idle.Unlock()
		return slices.Clone(lp.idle.sets)
	}

	if err := lp.Run(machine(procs)); err != nil {
		t.Fatal(err)
	}
	first := idle()
	if len(first) != 1 {
		t.Fatalf("after one machine the idle list holds %d sets, want 1", len(first))
	}
	if err := lp.Run(machine(procs)); err != nil {
		t.Fatalf("a machine on a recycled set: %v", err)
	}
	if again := idle(); len(again) != 1 || again[0][0] != first[0][0] {
		t.Fatalf("a second machine in sequence did not run on the first one's set")
	}
	if made != 2*procs || handed != procs {
		t.Fatalf("two machines called Local %d times, %d of them with the last run's state; want %d and %d",
			made, handed, 2*procs, procs)
	}
	if err := lp.Run(machine(procs), func(nd *tmk.Node) { panic("epilogue fails") }); err == nil {
		t.Fatal("a run whose epilogue panics returned no error")
	}
	if n := len(idle()); n != 0 {
		t.Fatalf("a failed run gave its set back: %d idle", n)
	}
	if err := lp.Run(machine(procs - 1)); err == nil {
		t.Fatal("a program lowered for 4 ranks ran on 3")
	}
	if err := lp.Run(machine(procs)); err != nil {
		t.Fatal(err)
	}
	if sets := idle(); len(sets) != 1 || sets[0][0] == first[0][0] {
		t.Fatalf("after a failed run the next machine did not make a set of its own")
	}
}

func TestKernelCtx(t *testing.T) {
	p := prog1d(
		ir.Kernel{
			Name: "fill",
			Accesses: []ir.TaggedSection{{
				Sec: rsd.Section{Array: "x", Dims: []rsd.Bound{
					rsd.Dense(rsd.Var("lo"), rsd.Var("hi")),
				}},
				Tag: rsd.Write | rsd.WriteFirst, Exact: true,
			}},
			Run: func(ctx ir.KernelCtx) {
				e := ctx.Env()
				lo, hi := e["lo"], e["hi"]
				a := ctx.Array("x").Index(lo)
				d := ctx.WriteRegion(a, ctx.Array("x").Index(hi)+1)
				for w := a; w <= ctx.Array("x").Index(hi); w++ {
					d[w] = 9
				}
				ctx.Charge(time.Microsecond)
			},
		},
	)
	_, mem := RunSeq(p, rsd.Env{"n": 8})
	for i := 0; i < 8; i++ {
		if mem[i] != 9 {
			t.Fatalf("x[%d] = %v", i+1, mem[i])
		}
	}
	if got := SeqTime(p, rsd.Env{"n": 8}); got != time.Microsecond {
		t.Fatalf("kernel charge = %v", got)
	}
}

// pushRecorder is a target that keeps copies of what a Push hands the
// runtime, and the send slices themselves.
type pushRecorder struct {
	seqTarget
	send  [][][]shm.Region
	from  [][]bool
	sends [][][]shm.Region
}

func (r *pushRecorder) push(send [][]shm.Region, from []bool) {
	clone := make([][]shm.Region, len(send))
	for i := range send {
		clone[i] = slices.Clone(send[i])
	}
	r.send, r.from, r.sends = append(r.send, clone), append(r.from, slices.Clone(from)), append(r.sends, send)
}

// TestPushMemo is the correctness half of the Push memo. Every rank's
// executor runs three Pushes four times: one whose read sections slide
// with k across block boundaries, one whose sections stand still, and one
// whose two write sections overlap, so that what it sends is right only
// because the crossing regions are normalized. For every rank and peer,
// what reaches the runtime must be what word-list intersection of every
// rank's full region sets gives (refPlan), and the fixed Push must be
// handed the very slices it was handed the first time.
func TestPushMemo(t *testing.T) {
	const nprocs, n, iters = 3, 48, 4
	k, p, lo := rsd.Var("k"), rsd.Var("p"), rsd.Var("lo")
	x := func(lo, hi rsd.Lin) rsd.Section { return rsd.Section{Array: "x", Dims: []rsd.Bound{rsd.Dense(lo, hi)}} }
	block := []rsd.Section{x(lo, rsd.Var("hi"))}
	// Rank 0 reads into rank 1's block, rank 2 into its last words.
	start := lo.Add(p.Scale(-8)).Plus(14)
	sliding := []rsd.Section{x(start.Add(k), start.Add(k).Plus(2))}
	fixed := []rsd.Section{x(start.Plus(1), start.Plus(3))}
	// The second write section starts below the first: what the two share
	// with a read section comes out of order and overlapping.
	overlapping := []rsd.Section{x(lo.Plus(1), rsd.Var("hi")), x(lo, rsd.Var("hi"))}
	pushes := [][2][]rsd.Section{{sliding, block}, {fixed, block}, {sliding, overlapping}}
	body := []ir.Stmt{}
	for b, rw := range pushes {
		body = append(body, ir.PushStmt{ReplacedBarrier: b + 1, Reads: rw[0], Writes: rw[1]})
	}
	prog := prog1d(ir.Loop{Var: "k", Lo: rsd.Const(1), Hi: rsd.Const(iters), Body: body})
	params := rsd.Env{"n": n}
	layout := compiler.BuildLayout(prog, params)
	lp := Lower(prog, layout, params, nprocs)
	recs := make([]*pushRecorder, nprocs)
	for rank := range recs {
		recs[rank] = &pushRecorder{}
		newExecutor(lp, rank, recs[rank]).exec(lp.body)
	}
	crossed := 0
	for it := 0; it < iters; it++ {
		for b, rw := range pushes {
			reads, writes := make([][]shm.Region, nprocs), make([][]shm.Region, nprocs)
			for i := range reads {
				env := prog.Env(params, i, nprocs)
				env["k"] = it + 1
				ref := &refExecutor{layout: layout}
				reads[i], writes[i] = ref.regions(rw[0], env), ref.regions(rw[1], env)
			}
			for rank, rec := range recs {
				send, from := refPlan(rank, reads, writes)
				got := len(pushes)*it + b
				if !slices.EqualFunc(rec.send[got], send, slices.Equal) || !slices.Equal(rec.from[got], from) {
					t.Fatalf("k=%d push %d rank %d: send %v from %v, want %v %v", it+1, b+1, rank, rec.send[got], rec.from[got], send, from)
				}
				for i := range send {
					if len(send[i]) > 0 {
						crossed++
					}
				}
				for i := range send {
					if b == 1 && it > 0 && len(send[i]) > 0 && &rec.sends[got][i][0] != &rec.sends[b][i][0] {
						t.Fatalf("k=%d rank %d: the fixed Push was handed a new slice for rank %d", it+1, rank, i)
					}
				}
			}
		}
	}
	if crossed < 2*iters {
		t.Fatalf("only %d non-empty sends: the sections barely cross", crossed)
	}
}

// panicOf runs f and returns what it panicked with, "" if it did not.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestRangeCheckEndpoints: a loop that runs off the end of an array stops
// with shm.Array.Index's message whether it runs as spans or iteration by
// iteration (the same loop with a second statement in its body) — the
// subscripts are affine, so checking both ends of the span checks all of
// it. The tree-walker checked the first iteration only and let the
// vectorized loop write into the next column.
func TestRangeCheckEndpoints(t *testing.T) {
	i, j := rsd.Var("i"), rsd.Var("j")
	one := fill(1)
	for _, tc := range []struct {
		name string
		ref  ir.Ref
		want string
	}{
		{"past the last row", ir.At("a", i, j), "shm: index 9 out of range [1,8] in dim 0 of a"},
		{"below the first row", ir.At("a", i.Scale(-1).Plus(9), i), "shm: index 0 out of range [1,8] in dim 0 of a"},
		{"two rows a step", ir.At("a", i.Scale(2).Plus(-1), j), "shm: index 9 out of range [1,8] in dim 0 of a"},
	} {
		prog := func(body ...ir.Stmt) *ir.Program {
			dims := []rsd.Lin{rsd.Const(8), rsd.Const(9)}
			return &ir.Program{Name: "t", Arrays: []ir.ArrayDecl{{Name: "a", Dims: dims}, {Name: "b", Dims: dims}},
				Body: []ir.Stmt{ir.Loop{Var: "j", Lo: rsd.Const(1), Hi: rsd.Const(1), Body: []ir.Stmt{
					ir.Loop{Var: "i", Lo: rsd.Const(1), Hi: rsd.Const(9), Body: body},
				}}}}
		}
		vector := prog(ir.Assign{LHS: tc.ref, Fn: one})
		scalar := prog(ir.Assign{LHS: tc.ref, Fn: one}, ir.Assign{LHS: ir.At("b", rsd.Const(1), rsd.Const(1)), Fn: one})
		if got := panicOf(func() { RunSeq(vector, rsd.Env{}) }); got != tc.want {
			t.Errorf("%s, vectorized: panic %q, want %q", tc.name, got, tc.want)
		}
		if got := panicOf(func() { RunSeq(scalar, rsd.Env{}) }); got != tc.want {
			t.Errorf("%s, iteration by iteration: panic %q, want %q", tc.name, got, tc.want)
		}
		if got := panicOf(func() { refRunSeq(scalar, rsd.Env{}) }); got != tc.want {
			t.Errorf("%s, reference iteration by iteration: panic %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCallForms counts the kernel calls of one 8-iteration loop over column
// 5 of a 32×32 array for each shape that decides executor.call's form: one
// call where a span is allowed — a rule that only ever answers "element by
// element" is as wrong as one that never does — and eight, of one element
// each, where an iteration may read what an earlier one wrote or the
// destination is not a span. Each is also compared with the oracle.
func TestCallForms(t *testing.T) {
	const lo, n, col, m = 4, 8, 5, 32
	i, j := rsd.Var("i"), rsd.Var("j")
	a := func(row, col rsd.Lin) ir.Ref { return ir.At("a", row, col) }
	for _, tc := range []struct {
		name  string
		lhs   ir.Ref
		rhs   []ir.Ref
		calls int
	}{
		{"another array", a(i, j), []ir.Ref{ir.At("b", i, j)}, 1},
		{"exact alias", a(i, j), []ir.Ref{a(i, j), ir.At("b", i, j)}, 1},
		{"one back", a(i, j), []ir.Ref{a(i.Plus(-1), j)}, n},
		{"one forward", a(i, j), []ir.Ref{a(i.Plus(1), j)}, n},
		{"a span ahead", a(i, j), []ir.Ref{a(i.Plus(n), j)}, 1},
		{"broadcast from inside", a(i, j), []ir.Ref{a(i, j), a(rsd.Const(lo+n-1), j)}, n},
		{"broadcast from outside", a(i, j), []ir.Ref{a(i, j), a(rsd.Const(lo-1), j)}, 1},
		{"strided, crossing", a(i, j), []ir.Ref{a(j, i)}, n},
		{"strided, clear", a(i, j), []ir.Ref{a(i.Scale(2).Plus(lo), j)}, 1},
		{"strided, another array", a(i, j), []ir.Ref{ir.At("b", j, i)}, 1},
		{"strided destination", a(i.Scale(2), j), []ir.Ref{ir.At("b", i, j)}, n},
		{"fixed destination", a(rsd.Const(lo), j), []ir.Ref{ir.At("b", i, j)}, n},
		{"no operand", a(i, j), nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls, elems := 0, 0
			w := make([]float64, len(tc.rhs))
			for k := range w {
				w[k] = 0.5
			}
			sum := weighted(1, w...)
			dims := []rsd.Lin{rsd.Const(m), rsd.Const(m)}
			prog := &ir.Program{Name: "t", Arrays: []ir.ArrayDecl{{Name: "a", Dims: dims}, {Name: "b", Dims: dims}},
				Body: []ir.Stmt{
					// a and b start as their 1-based word numbers, b's negated.
					ir.Kernel{Run: func(ctx ir.KernelCtx) {
						a, b := ctx.Array("a").Base, ctx.Array("b").Base
						data := ctx.WriteRegion(min(a, b), max(a, b)+m*m)
						for w := 0; w < m*m; w++ {
							data[a+w], data[b+w] = float64(w+1), -float64(w+1)
						}
					}},
					ir.Loop{Var: "j", Lo: rsd.Const(col), Hi: rsd.Const(col), Body: []ir.Stmt{
						ir.Loop{Var: "i", Lo: rsd.Const(lo), Hi: rsd.Const(lo + n - 1), Body: []ir.Stmt{
							ir.Assign{LHS: tc.lhs, RHS: tc.rhs, Cost: time.Nanosecond, Fn: func(d []float64, s [][]float64) {
								calls, elems = calls+1, elems+len(d)
								sum(d, s)
							}},
						}},
					}},
				}}
			_, got := RunSeq(prog, rsd.Env{})
			if calls != tc.calls || elems != n {
				t.Errorf("%d kernel calls over %d elements, want %d over %d", calls, elems, tc.calls, n)
			}
			_, want := refRunSeq(prog, rsd.Env{})
			sameImage(t, got, want.mem)
		})
	}
}
