package interp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/cluster"
	"sdsm/internal/compiler"
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
	nw := cluster.New(e, model.SP2())
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

// sameOnSim runs build's program on both executors at nprocs ranks. build
// is called once per run: kernels may keep state in their closures.
func sameOnSim(t *testing.T, build func() (*ir.Program, rsd.Env), nprocs int) {
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
)

// span is the range of values a symbol takes during a run, on any rank.
type span struct{ lo, hi int }

// induction holds the loop variables of generated programs. The compiler
// takes subscripts over at most one of them (the paper's limitation, see
// compiler.refSection), so an analyzable program keeps to that.
var induction = map[rsd.Sym]bool{"i": true, "j": true, "k": true, "it": true}

type generator struct {
	rnd    *rand.Rand
	nprocs int
	// analyzable programs are also run through the compiler.
	analyzable bool
	ranges     map[rsd.Sym]span
	shapes     map[string]int // what the programs so far contained, by name
}

func (g *generator) pick(vals ...int) int { return vals[g.rnd.Intn(len(vals))] }

// fit returns a subscript over syms with coefficients in {-1, 0, 1, 2}
// whose every value lies in [1, extent]; force, if set, is a (symbol,
// coefficient) the subscript must carry.
func (g *generator) fit(extent int, syms []rsd.Sym, force map[rsd.Sym]int) rsd.Lin {
	for {
		l, lo, hi := rsd.Const(0), 0, 0
		// The one loop variable an analyzable subscript may mention.
		iv := syms[g.rnd.Intn(len(syms))]
		for _, s := range syms {
			k, ok := force[s]
			if !ok {
				k = g.pick(-1, 0, 0, 1, 1, 2)
				if g.analyzable && induction[s] && (s != iv || len(force) > 0) {
					k = 0
				}
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
	a.Fn = func(s []float64) float64 {
		v := c
		for k, w := range weights {
			v += w * s[k]
		}
		return v
	}
	return a
}

// phase builds one loop nest writing w from r: the rank's own columns, in
// blocks or cyclically, around one to three statements — row loops
// (vectorized when alone in the column loop and not backwards), a middle
// loop k around a row loop, a Compute binding "off" from the live column
// variable, a single-element assignment.
func (g *generator) phase(w, r string) ir.Stmt {
	cols := ir.Loop{Var: "j", Lo: rsd.Var("begin"), Hi: rsd.Var("end")}
	if g.rnd.Intn(2) == 0 {
		cols = ir.Loop{Var: "j", Lo: rsd.Var("p").Plus(1), Hi: rsd.Const(genCols), Step: g.nprocs}
		g.shapes["cyclic"]++
	}
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

// program builds the seed's program for g.nprocs ranks.
func (g *generator) program() (*ir.Program, rsd.Env) {
	dims := []rsd.Lin{rsd.Const(genM), rsd.Const(genN)}
	prog := &ir.Program{
		Name:   "generated",
		Arrays: []ir.ArrayDecl{{Name: "a", Dims: dims}, {Name: "b", Dims: dims}, {Name: "x", Dims: []rsd.Lin{rsd.Const(8)}}},
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
	// Both arrays start as a function of position, written by a kernel
	// that finds its columns in the environment by name.
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
			Fn: func(s []float64) float64 { return s[0] + 1 }, Cost: time.Nanosecond},
		ir.LockRelease{ID: rsd.Const(1)},
	}

	prog.Body = []ir.Stmt{fill, ir.Barrier{ID: 0}}
	if g.rnd.Intn(4) == 0 {
		// No iteration loop: the phases alone, nests of depth up to 3.
		prog.Body = append(prog.Body, g.phase("a", "b"), ir.Barrier{ID: 1}, g.phase("b", "a"), ir.Barrier{ID: 2})
		return prog, params
	}
	g.ranges["it"] = span{1, params["iters"]}
	odd := func(e rsd.Env) bool { return (e["it"]+e["p"])%2 == 1 }
	body := []ir.Stmt{
		g.phase("a", "b"),
		ir.Barrier{ID: 1},
		ir.If{Cond: odd, Then: []ir.Stmt{g.phase("b", "a")}, Else: []ir.Stmt{g.phase("b", "a")}},
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

// TestLoweredMatchesReferenceGenerated: 120 seeded programs, each run
// sequentially and on 2 to 4 ranks; every other one keeps its subscripts
// within what the compiler analyzes and is also run through it, at a level
// the seed picks. A program holds no state outside the environment,
// so both executors run the very same ir.Program value.
func TestLoweredMatchesReferenceGenerated(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	shapes := map[string]int{}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(seed)))
			nprocs := 2 + rnd.Intn(3)
			g := &generator{rnd: rnd, nprocs: nprocs, analyzable: seed%2 == 0, shapes: shapes}
			prog, params := g.program()
			same := func() (*ir.Program, rsd.Env) { return prog, params }
			sameSeq(t, func() (*ir.Program, rsd.Env) { return prog, prog.Prepare(params, 1) })
			sameOnSim(t, same, nprocs)
			if !g.analyzable {
				return
			}
			level := compiler.Levels(nprocs, params)[1+rnd.Intn(4)]
			opt, _ := compiler.Compile(prog, level)
			sameOnSim(t, func() (*ir.Program, rsd.Env) { return opt, params }, nprocs)
		})
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
