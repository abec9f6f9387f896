package interp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/host"
	"sdsm/internal/ir"
	"sdsm/internal/model"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
	"sdsm/internal/vm"
)

// The lowered executor against the tree-walker it replaced
// (reference_test.go): the same program on both must leave the same memory
// word for word, charge the same compute time and — on the sim backend,
// where the schedule is a function of the calls made — drive the run-time
// through the same faults, fetches, messages and virtual time.

// outcome is everything a run on sim leaves behind.
type outcome struct {
	image       []float64
	time        time.Duration
	vm          vm.Counters
	ps          tmk.ProtocolStats
	msgs, bytes int64
}

type dsmRunner func(*ir.Program, *tmk.System, rsd.Env, ...func(*tmk.Node)) error

// runSim runs prog on a fresh nprocs-node sim machine and gathers the whole
// address space at node 0 behind a closing barrier (a program whose last
// synchronization was a Push is consistent only for the pushed sections).
func runSim(t *testing.T, run dsmRunner, prog *ir.Program, params rsd.Env, nprocs int) outcome {
	t.Helper()
	layout := compiler.BuildLayout(prog, params)
	e := sim.NewEngine(nprocs)
	nw := host.NewNetwork(e, model.SP2())
	sys := tmk.New(e, nw, layout)
	var out outcome
	err := run(prog, sys, params, func(nd *tmk.Node) {
		nd.Barrier(1 << 20)
		if nd.ID != 0 {
			return
		}
		whole := shm.Region{Lo: 0, Hi: layout.Words()}
		nd.Validate(tmk.AccRead, []shm.Region{whole}, false)
		nd.Mem.EnsureRead(nd.Proc(), whole)
		out.image = slices.Clone(nd.Mem.Data()[:layout.Words()])
	})
	if err != nil {
		t.Fatal(err)
	}
	out.time = sys.MaxTime()
	out.vm, out.ps = sys.Stats()
	st := nw.Stats()
	out.msgs, out.bytes = st.Msgs, st.Bytes
	return out
}

// sameImage fails at the first word two memory images differ in.
func sameImage(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("image of %d words, reference has %d", len(got), len(want))
	}
	for w := range want {
		// NaN never equals itself; the bits would, but no program here
		// produces one, so a NaN is a failure worth seeing.
		if got[w] != want[w] {
			t.Fatalf("word %d: lowered %v, reference %v", w, got[w], want[w])
		}
	}
}

// sameOnSim runs build's program on both executors at nprocs ranks and
// returns the image both left. build is called once per run: kernels may
// keep state in their closures.
func sameOnSim(t *testing.T, build func() (*ir.Program, rsd.Env), nprocs int) []float64 {
	t.Helper()
	prog, params := build()
	got := runSim(t, RunDSM, prog, params, nprocs)
	prog, params = build()
	want := runSim(t, refRunDSM, prog, params, nprocs)
	sameImage(t, got.image, want.image)
	if got.time != want.time {
		t.Errorf("virtual time %v, reference %v", got.time, want.time)
	}
	if got.vm != want.vm {
		t.Errorf("vm counters %+v, reference %+v", got.vm, want.vm)
	}
	if got.ps != want.ps {
		t.Errorf("protocol stats %+v, reference %+v", got.ps, want.ps)
	}
	if got.msgs != want.msgs || got.bytes != want.bytes {
		t.Errorf("%d messages / %d bytes, reference %d / %d", got.msgs, got.bytes, want.msgs, want.bytes)
	}
	return got.image
}

// sameSeq runs build's program sequentially on both executors.
func sameSeq(t *testing.T, build func() (*ir.Program, rsd.Env)) {
	t.Helper()
	prog, params := build()
	_, got := runSeq(prog, params)
	prog, params = build()
	_, want := refRunSeq(prog, params)
	sameImage(t, got.mem, want.mem)
	if got.elapsed != want.elapsed {
		t.Errorf("SeqTime %v, reference %v", got.elapsed, want.elapsed)
	}
}

// TestLoweredMatchesReferenceApps: every application, unmodified and
// compiler-optimised, sequentially and at 1, 3 and 8 ranks (short mode: 3).
func TestLoweredMatchesReferenceApps(t *testing.T) {
	ranks := []int{1, 3, 8}
	if testing.Short() {
		ranks = []int{3}
	}
	for _, app := range apps.All() {
		build := func(nprocs int, opt bool) func() (*ir.Program, rsd.Env) {
			return func() (*ir.Program, rsd.Env) {
				prog := app.Build(nprocs)
				params := prog.Prepare(app.Sets[apps.Small], nprocs)
				if opt {
					prog, _ = compiler.Compile(prog, app.BestOptions(nprocs, params))
				}
				return prog, params
			}
		}
		t.Run(app.Name+"/seq", func(t *testing.T) { sameSeq(t, build(1, false)) })
		for _, n := range ranks {
			t.Run(fmt.Sprintf("%s/base/%d", app.Name, n), func(t *testing.T) { sameOnSim(t, build(n, false), n) })
			t.Run(fmt.Sprintf("%s/opt/%d", app.Name, n), func(t *testing.T) { sameOnSim(t, build(n, true), n) })
		}
	}
}

// Generated programs. Two M×N arrays a and b; ranks own columns of the
// first cols of them, in blocks (begin..end) or cyclically. A phase writes
// one array in the rank's own columns and reads the other anywhere, so
// barrier-separated phases are free of data races, and every subscript is
// fitted to its array by interval arithmetic over the ranges of the symbols
// it mentions.
const (
	genM, genN = 64, 64
	genCols    = 12 // columns the ranks partition
	genRows    = 8  // iterations of a row loop

	// The rows of a dependence phase's loops, with room below for an operand
	// that starts two rows back.
	depLo, depHi = 6, depLo + genRows - 1
)

// span is the range of values a symbol takes during a run, on any rank.
type span struct{ lo, hi int }

type generator struct {
	rnd    *rand.Rand
	nprocs int
	ranges map[rsd.Sym]span
	shapes map[string]int // what the programs so far contained, by name
}

func (g *generator) pick(vals ...int) int { return vals[g.rnd.Intn(len(vals))] }

// fit returns a subscript over syms with coefficients in {-1, 0, 1, 2}
// whose every value lies in [1, extent]; force, if set, is a (symbol,
// coefficient) the subscript must carry.
func (g *generator) fit(extent int, syms []rsd.Sym, force map[rsd.Sym]int) rsd.Lin {
	for {
		l, lo, hi := rsd.Const(0), 0, 0
		for _, s := range syms {
			k, ok := force[s]
			if !ok {
				k = g.pick(-1, 0, 0, 1, 1, 2)
			}
			l = l.Add(rsd.Var(s).Scale(k))
			r := g.ranges[s]
			lo, hi = lo+min(k*r.lo, k*r.hi), hi+max(k*r.lo, k*r.hi)
		}
		if slack := extent - (hi - lo + 1); slack >= 0 {
			return l.Plus(1 - lo + g.rnd.Intn(slack+1))
		}
	}
}

// assign builds `w(row, j) = Σ weight·operand + c` for the row loop over i:
// the row subscript moves by rowStep per iteration (negative: the reference
// moves backwards and the loop must run iteration by iteration), operands
// are 1 to 4 references of r, subscripts over syms, plus sometimes the
// element of w above or below the one written (a loop-carried dependence:
// iteration t must see what t-1 stored).
func (g *generator) assign(w, r string, rowStep int, syms []rsd.Sym) ir.Assign {
	row := g.fit(genM-2, []rsd.Sym{"i"}, map[rsd.Sym]int{"i": rowStep}).Plus(1)
	a := ir.Assign{LHS: ir.At(w, row, rsd.Var("j")), Cost: time.Duration(1+g.rnd.Intn(40)) * time.Nanosecond}
	for n := 1 + g.rnd.Intn(4); n > 0; n-- {
		a.RHS = append(a.RHS, ir.At(r, g.fit(genM, syms, nil), g.fit(genN, syms, nil)))
	}
	if g.rnd.Intn(3) == 0 {
		a.RHS = append(a.RHS, ir.At(w, row.Plus(g.pick(-1, 1)), rsd.Var("j")))
		g.shapes["carried"]++
	}
	if rowStep < 0 {
		g.shapes["backward"]++
	}
	weights := make([]float64, len(a.RHS))
	for k := range weights {
		weights[k] = float64(g.pick(1, 2, 3)) / float64(4*len(a.RHS))
	}
	c := float64(g.rnd.Intn(16))
	a.Fn = weighted(c, weights...)
	return a
}

// columns draws a phase's column distribution: the loop over the rank's own
// columns, in blocks or cyclically, with an empty body. Phases that may
// run in one barrier epoch on different ranks must share one draw, or one
// rank writes block columns while another writes cyclic ones — a
// write-write race whose image depends on diff order.
func (g *generator) columns() ir.Loop {
	if g.rnd.Intn(2) == 0 {
		g.shapes["cyclic"]++
		return ir.Loop{Var: "j", Lo: rsd.Var("p").Plus(1), Hi: rsd.Const(genCols), Step: g.nprocs}
	}
	return ir.Loop{Var: "j", Lo: rsd.Var("begin"), Hi: rsd.Var("end")}
}

// phase builds one loop nest writing w from r over the column loop cols
// (columns), around one to three statements — row loops (vectorized when
// alone in the column loop and not backwards), a middle loop k around a row
// loop, a Compute binding "off" from the live column variable, a
// single-element assignment.
func (g *generator) phase(w, r string, cols ir.Loop) ir.Stmt {
	syms := []rsd.Sym{"i", "j", "p", "begin", "end"}
	if _, ok := g.ranges["it"]; ok {
		syms = append(syms, "it")
	}
	rows := func(syms []rsd.Sym) ir.Stmt {
		return ir.Loop{Var: "i", Lo: rsd.Const(1), Hi: rsd.Const(genRows), Body: []ir.Stmt{
			g.assign(w, r, g.pick(1, 1, 1, 2, 0, -1), syms),
		}}
	}
	for n := 1 + g.rnd.Intn(3); n > 0; n-- {
		switch g.rnd.Intn(5) {
		case 0:
			cols.Body = append(cols.Body,
				// "i" is dead here: a name no live loop binds reads as zero.
				ir.Compute{Sym: "off", Fn: func(e rsd.Env) int { return (e["j"] + e["p"] + e["i"]) % 3 }},
				rows(slices.Concat(syms, []rsd.Sym{"off"})))
			g.shapes["compute"]++
		case 1:
			cols.Body = append(cols.Body, ir.Loop{Var: "k", Lo: rsd.Const(0), Hi: rsd.Const(2), Body: []ir.Stmt{rows(slices.Concat(syms, []rsd.Sym{"k"}))}})
			g.shapes["depth3"]++
		case 2:
			one := g.assign(w, r, 0, syms[1:])
			one.LHS = ir.At(w, rsd.Const(genM), rsd.Var("j"))
			cols.Body = append(cols.Body, one)
			g.shapes["scalar"]++
		default:
			cols.Body = append(cols.Body, rows(syms))
		}
	}
	return cols
}

// reversed is weighted visiting the span from its last element to its
// first, which the kernel contract leaves a kernel free to do.
func reversed(c float64, w ...float64) func([]float64, [][]float64) {
	return func(d []float64, s [][]float64) {
		for t := len(d) - 1; t >= 0; t-- {
			v := c
			for k, wk := range w {
				v += wk * s[k][t]
			}
			d[t] = v
		}
	}
}

// dependence builds, over the rank's own block of columns of w, one row loop
// for each shape that decides how executor.call may run a kernel: as one
// span on memory itself, as one span with operands staged, or one element
// per call because an iteration reads what an earlier one wrote. Where the
// wrong form would be a wrong answer the kernel is one that shows it — copy
// when the operand is the element before, last-to-first when it is the
// element after. Every reference to w stays in the rank's block (the
// transposed one runs its rows over begin..end), so the phase is as free
// of races as any other; operands of r are fitted anywhere. The array c
// accumulates the column after every shape.
func (g *generator) dependence(w, r string) ir.Stmt {
	i, j := rsd.Var("i"), rsd.Var("j")
	own := func(row rsd.Lin) ir.Ref { return ir.At(w, row, j) }
	syms := []rsd.Sym{"i", "j", "p", "begin", "end"}
	other := func() ir.Ref { return ir.At(r, g.fit(genM, syms, nil), g.fit(genN, syms, nil)) }
	const lo, hi = depLo, depHi
	inside, outside := rsd.Const(lo+g.rnd.Intn(genRows)), rsd.Const(g.pick(1, lo-1, hi+1, genM))
	cols := ir.Loop{Var: "j", Lo: rsd.Var("begin"), Hi: rsd.Var("end")}
	// What a shape left in the column goes into c before the next overwrites it.
	fold := ir.Loop{Var: "i", Lo: rsd.Const(1), Hi: rsd.Const(2 * depHi), Body: []ir.Stmt{
		ir.Assign{LHS: ir.At("c", i, j), RHS: []ir.Ref{ir.At("c", i, j), own(i)}, Fn: weighted(0, 0.5, 1), Cost: time.Nanosecond},
	}}
	for _, sh := range []struct {
		name   string
		lo, hi rsd.Lin
		a      ir.Assign
	}{
		{"alias", rsd.Const(lo), rsd.Const(hi),
			ir.Assign{LHS: own(i), RHS: []ir.Ref{own(i), other()}, Fn: weighted(0.5, 0.5, 0.25)}},
		{"back", rsd.Const(lo), rsd.Const(hi),
			ir.Assign{LHS: own(i), RHS: []ir.Ref{own(i.Plus(-1))}, Fn: func(d []float64, s [][]float64) { copy(d, s[0]) }}},
		{"forward", rsd.Const(lo), rsd.Const(hi),
			ir.Assign{LHS: own(i), RHS: []ir.Ref{own(i.Plus(1)), other()}, Fn: reversed(1, 0.5, 0.25)}},
		{"broadcast-inside", rsd.Const(lo), rsd.Const(hi),
			ir.Assign{LHS: own(i), RHS: []ir.Ref{own(i), own(inside)}, Fn: weighted(0, 0.75, 0.5)}},
		{"broadcast-outside", rsd.Const(lo), rsd.Const(hi),
			ir.Assign{LHS: own(i), RHS: []ir.Ref{own(i), own(outside), other()}, Fn: reversed(0, 0.5, 0.25, 0.25)}},
		// Row j of the block, read along the columns: it crosses column j at
		// the diagonal.
		{"transposed", rsd.Var("begin"), rsd.Var("end"),
			ir.Assign{LHS: own(i), RHS: []ir.Ref{ir.At(w, j, i), other()}, Fn: weighted(2, 0.5, 0.5)}},
		// Every second row from two before the span: iteration lo+1 reads
		// what iteration lo stored, later ones read ahead of the writes.
		{"strided-carried", rsd.Const(lo), rsd.Const(hi),
			ir.Assign{LHS: own(i), RHS: []ir.Ref{own(i.Scale(2).Plus(-lo - 2))}, Fn: weighted(1, 0.5)}},
		{"strided-clear", rsd.Const(lo), rsd.Const(hi),
			ir.Assign{LHS: own(i), RHS: []ir.Ref{own(i.Scale(2).Plus(hi)), other()}, Fn: weighted(0, 0.5, 0.5)}},
		{"strided-destination", rsd.Const(lo), rsd.Const(hi),
			ir.Assign{LHS: own(i.Scale(2)), RHS: []ir.Ref{own(i.Scale(2).Plus(-1)), other()}, Fn: weighted(0, 0.5, 0.5)}},
		{"no-operand", rsd.Const(lo), rsd.Const(hi - 2),
			ir.Assign{LHS: own(i), Fn: func(d []float64, _ [][]float64) { clear(d) }}},
	} {
		sh.a.Cost = time.Duration(1+g.rnd.Intn(40)) * time.Nanosecond
		cols.Body = append(cols.Body, ir.Loop{Var: "i", Lo: sh.lo, Hi: sh.hi, Body: []ir.Stmt{sh.a}}, fold)
		g.shapes[sh.name]++
	}
	return cols
}

// dependenceProgram is the skeleton around dependence phases only.
func (g *generator) dependenceProgram() (*ir.Program, rsd.Env) {
	prog, params := g.skeleton()
	g.ranges["i"] = span{1, 2 * depHi}
	prog.Body = append(prog.Body, ir.Loop{Var: "it", Lo: rsd.Const(1), Hi: rsd.Var("iters"), Body: []ir.Stmt{
		g.dependence("a", "b"), ir.Barrier{ID: 1}, g.dependence("b", "a"), ir.Barrier{ID: 2},
	}}, ir.Barrier{ID: 3})
	return prog, params
}

// ownColumns is the declared access of the kernels: rows 1..M of the
// rank's block of columns.
func ownColumns(array string, tag rsd.Tag) ir.TaggedSection {
	return ir.TaggedSection{
		Sec: rsd.Section{Array: array, Dims: []rsd.Bound{
			rsd.Dense(rsd.Const(1), rsd.Const(genM)), rsd.Dense(rsd.Var("begin"), rsd.Var("end")),
		}},
		Tag: tag, Exact: true,
	}
}

// skeleton builds what every generated program starts from: the arrays, the
// block partition, the ranges of the symbols subscripts are fitted over, and
// a body that fills both arrays as a function of position — by a kernel that
// finds its columns in the environment by name — before a barrier.
func (g *generator) skeleton() (*ir.Program, rsd.Env) {
	dims := []rsd.Lin{rsd.Const(genM), rsd.Const(genN)}
	prog := &ir.Program{
		Name:   "generated",
		Arrays: []ir.ArrayDecl{{Name: "a", Dims: dims}, {Name: "b", Dims: dims}, {Name: "x", Dims: []rsd.Lin{rsd.Const(8)}}, {Name: "c", Dims: dims}},
		Params: []rsd.Sym{"iters"},
		Derived: []ir.DerivedParam{
			{Name: "begin", Fn: func(e rsd.Env) int { return e["p"]*genCols/e["nprocs"] + 1 }},
			{Name: "end", Fn: func(e rsd.Env) int { return (e["p"] + 1) * genCols / e["nprocs"] }},
		},
	}
	params := rsd.Env{"iters": 1 + g.rnd.Intn(3)}
	g.ranges = map[rsd.Sym]span{
		"i": {1, genRows}, "j": {1, genCols}, "k": {0, 2}, "off": {0, 2},
		"p": {0, g.nprocs - 1}, "begin": {1, genCols}, "end": {0, genCols},
	}
	fill := ir.Kernel{
		Name:     "fill",
		Accesses: []ir.TaggedSection{ownColumns("a", rsd.Write|rsd.WriteFirst), ownColumns("b", rsd.Write|rsd.WriteFirst)},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			for _, name := range []string{"a", "b"} {
				arr := ctx.Array(name)
				for j := e["begin"]; j <= e["end"]; j++ {
					data := ctx.WriteRegion(arr.Index(1, j), arr.Index(genM, j)+1)
					for i := 1; i <= genM; i++ {
						data[arr.Index(i, j)] = float64((i*7+j*13+len(name))%23) / 23
					}
				}
			}
			ctx.Charge(time.Microsecond)
		},
	}
	prog.Body = []ir.Stmt{fill, ir.Barrier{ID: 0}}
	return prog, params
}

// program builds the seed's program for g.nprocs ranks.
func (g *generator) program() (*ir.Program, rsd.Env) {
	prog, params := g.skeleton()
	// A kernel between phases: scales the rank's block of a by a factor
	// that depends on the live iteration variable, read by name.
	scale := ir.Kernel{
		Name:     "scale",
		Accesses: []ir.TaggedSection{ownColumns("a", rsd.Read|rsd.Write)},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			arr := ctx.Array("a")
			for j := e["begin"]; j <= e["end"]; j++ {
				lo, hi := arr.Index(1, j), arr.Index(genM, j)+1
				ctx.ReadRegion(lo, hi)
				data := ctx.WriteRegion(lo, hi)
				for w := lo; w < hi; w++ {
					data[w] *= 1 - 1/float64(4*e["it"])
				}
			}
			ctx.Charge(time.Duration(e["it"]) * time.Microsecond)
		},
	}
	// A lock-guarded read-modify-write of one shared word.
	count := []ir.Stmt{
		ir.LockAcquire{ID: rsd.Const(1)},
		ir.Assign{LHS: ir.At("x", rsd.Const(1)), RHS: []ir.Ref{ir.At("x", rsd.Const(1))},
			Fn: weighted(1, 1), Cost: time.Nanosecond},
		ir.LockRelease{ID: rsd.Const(1)},
	}

	if g.rnd.Intn(4) == 0 {
		// No iteration loop: the phases alone, nests of depth up to 3.
		prog.Body = append(prog.Body, g.phase("a", "b", g.columns()), ir.Barrier{ID: 1}, g.phase("b", "a", g.columns()), ir.Barrier{ID: 2})
		return prog, params
	}
	g.ranges["it"] = span{1, params["iters"]}
	odd := func(e rsd.Env) bool { return (e["it"]+e["p"])%2 == 1 }
	first := g.phase("a", "b", g.columns())
	// The branches run in the same epoch on different ranks: one column
	// distribution, rows and operands drawn apart.
	cols := g.columns()
	body := []ir.Stmt{
		first,
		ir.Barrier{ID: 1},
		ir.If{Cond: odd, Then: []ir.Stmt{g.phase("b", "a", cols)}, Else: []ir.Stmt{g.phase("b", "a", cols)}},
		ir.Barrier{ID: 2},
	}
	if g.rnd.Intn(2) == 0 {
		body = append(body, scale, ir.Barrier{ID: 3})
		g.shapes["kernel"]++
	}
	if g.rnd.Intn(3) == 0 {
		body = append(body, count...)
		g.shapes["lock"]++
	}
	prog.Body = append(prog.Body, ir.Loop{Var: "it", Lo: rsd.Const(1), Hi: rsd.Var("iters"), Body: body}, ir.Barrier{ID: 4})
	return prog, params
}

// sameCompiled holds prog, compiled at each of the four levels, to the
// image base it leaves unmodified at nprocs ranks. A data-race-free program
// leaves one image however its fetches are aggregated, merged or pushed.
func sameCompiled(t *testing.T, prog *ir.Program, params rsd.Env, nprocs int, base []float64) {
	t.Helper()
	for l, level := range compiler.Levels(nprocs, params)[1:] {
		opt, _ := compiler.Compile(prog, level)
		if !slices.Equal(runSim(t, RunDSM, opt, params, nprocs).image, base) {
			t.Errorf("level %d: the compiled program leaves a different image than the unmodified one", l+1)
		}
	}
}

// TestLoweredMatchesReferenceGenerated: 120 seeded programs, each run
// sequentially and on 2 to 4 ranks; every other one is also run through
// the compiler, at a level the seed picks (subscripts over several loop
// variables included: the compiler bounds them). A program holds no state
// outside the environment, so both executors run the very same ir.Program
// value. Every seed's program, compiled at all four levels, must leave the
// image it leaves unmodified — at the generated rank count and, outside
// short mode, as generated for 1, 3 and 8 ranks. Then the dependence
// programs, compiled at a level the seed picks, held to the same.
func TestLoweredMatchesReferenceGenerated(t *testing.T) {
	seeds, ranks := 120, []int{1, 3, 8}
	if testing.Short() {
		seeds, ranks = 30, nil
	}
	shapes := map[string]int{}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(seed)))
			nprocs := 2 + rnd.Intn(3)
			g := &generator{rnd: rnd, nprocs: nprocs, shapes: shapes}
			prog, params := g.program()
			same := func() (*ir.Program, rsd.Env) { return prog, params }
			sameSeq(t, func() (*ir.Program, rsd.Env) { return prog, prog.Prepare(params, 1) })
			sameCompiled(t, prog, params, nprocs, sameOnSim(t, same, nprocs))
			if seed%2 == 1 {
				return
			}
			level := compiler.Levels(nprocs, params)[1+rnd.Intn(4)]
			opt, _ := compiler.Compile(prog, level)
			sameOnSim(t, func() (*ir.Program, rsd.Env) { return opt, params }, nprocs)
		})
		for _, n := range ranks {
			t.Run(fmt.Sprintf("seed%d/%d", seed, n), func(t *testing.T) {
				// The seed's program as generated for n ranks: the same
				// stream after the rank count the seed drew.
				rnd := rand.New(rand.NewSource(int64(seed)))
				rnd.Intn(3)
				g := &generator{rnd: rnd, nprocs: n, shapes: map[string]int{}}
				prog, params := g.program()
				sameCompiled(t, prog, params, n, runSim(t, RunDSM, prog, params, n).image)
			})
		}
	}
	// The shapes that decide the executor's call form, at the rank counts
	// the applications run at: unmodified, sequentially, and compiled.
	ranks, depSeeds := []int{1, 3, 8}, 4
	if testing.Short() {
		ranks, depSeeds = []int{3}, 1
	}
	for seed := 0; seed < depSeeds; seed++ {
		for _, nprocs := range ranks {
			t.Run(fmt.Sprintf("dependence/seed%d/%d", seed, nprocs), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(int64(seed)))
				g := &generator{rnd: rnd, nprocs: nprocs, shapes: shapes}
				prog, params := g.dependenceProgram()
				sameSeq(t, func() (*ir.Program, rsd.Env) { return prog, prog.Prepare(params, 1) })
				base := sameOnSim(t, func() (*ir.Program, rsd.Env) { return prog, params }, nprocs)
				opt, _ := compiler.Compile(prog, compiler.Levels(nprocs, params)[1+rnd.Intn(4)])
				if !slices.Equal(sameOnSim(t, func() (*ir.Program, rsd.Env) { return opt, params }, nprocs), base) {
					t.Error("the compiled program leaves a different image than the unmodified one")
				}
			})
		}
	}
	if testing.Short() {
		return
	}
	for _, shape := range []string{"backward", "carried", "cyclic", "compute", "depth3", "scalar", "kernel", "lock"} {
		if shapes[shape] == 0 {
			t.Errorf("no generated program contained the %q shape", shape)
		}
	}
	t.Logf("shapes generated: %v", shapes)
}
