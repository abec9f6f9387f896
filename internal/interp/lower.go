package interp

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
)

// Lowered is an ir.Program lowered for one shape of machine: one layout,
// one parameter binding, one processor count. Every symbol a bound,
// subscript or lock id mentions is an integer slot of the environment,
// every array a *shm.Array, every affine expression a constant plus dense
// terms. Nothing of it but the idle list is written after Lower returns,
// so the executors of all ranks — goroutines of their own on the real and
// net backends — and of every machine that runs it share one.
type Lowered struct {
	prog   *ir.Program
	params rsd.Env
	nprocs int
	layout *shm.Layout
	scale  int // compute cost multiplier (cscale parameter)
	body   []stmt

	syms []rsd.Sym // slot → symbol
	// init holds every rank's initial environment, nprocs rows of len(syms):
	// the value of each slot that the parameters, "p", "nprocs" or a derived
	// parameter bind (initSlots), zero elsewhere. A rank starts from its own
	// row; Push reads everyone's.
	init      []int
	initSlots []int

	memos   int // Validate and Push statements, each the index of a memo
	maxRefs int // references of the widest assignment

	// idle holds the executor sets — one executor per rank, with its
	// Validate/Push memos and scratch — of the machines that ran the
	// program to the end without an error. A machine takes one (Run), or
	// makes one when there is none, so the list grows only to the most
	// machines of this shape that ran at once.
	idle struct {
		sync.Mutex
		sets [][]*executor
	}
}

// row returns rank i's initial environment.
func (lp *Lowered) row(i int) []int { return lp.init[i*len(lp.syms) : (i+1)*len(lp.syms)] }

// array looks up a shared array for a kernel, which names it at run time.
func (lp *Lowered) array(name string) *shm.Array { return lp.layout.Array(name) }

// stmt is a lowered statement: *loop, *assign, *compute, *cond, *lock,
// *validate, *push, kernel or ir.Barrier.
type stmt any

// term is one variable of a lowered affine expression.
type term struct{ slot, coef int }

// lin is a lowered rsd.Lin: c + Σ coef·env[slot].
type lin struct {
	c int
	t []term
}

func (l *lin) eval(env []int) int {
	v := l.c
	for _, t := range l.t {
		v += t.coef * env[t.slot]
	}
	return v
}

// loop is a counted loop. vec is its body when that is a single assignment
// of a unit-step loop none of whose references moves backwards: such a loop
// runs as address spans (execVector), any other iteration by iteration.
type loop struct {
	v      int // slot of the loop variable
	lo, hi lin
	step   int
	body   []stmt
	vec    *assign
}

// dim is one subscript of a reference. vcoef is the coefficient of the
// enclosing loop's variable when the assignment is that loop's whole body
// (zero otherwise): the subscript moves by it every iteration.
type dim struct {
	sub            lin
	extent, stride int
	vcoef          int
}

// ref is a lowered ir.Ref; step is the distance in words it moves per
// iteration of the enclosing loop, Σ vcoef·stride.
type ref struct {
	arr  *shm.Array
	dims []dim
	step int
}

// assign is a lowered ir.Assign; refs holds the left-hand side, then the
// right-hand sides in order.
type assign struct {
	refs []ref
	fn   func(dst []float64, src [][]float64)
	cost time.Duration
}

type compute struct {
	slot int
	fn   func(env rsd.Env) int
}

type cond struct {
	cond      func(env rsd.Env) bool
	then, els []stmt
}

type lock struct {
	id      lin
	release bool
}

type kernel func(ctx ir.KernelCtx)

// bound and section are a lowered rsd.Bound and rsd.Section.
type bound struct {
	lo, hi lin
	stride int
}

type section struct {
	arr  *shm.Array
	dims []bound
}

// sections is what Validate and Push share: lists of sections whose
// concrete bounds key what the executor builds from them (executor.lookup).
// A Validate has one list, evaluated in the executing rank's environment; a
// Push has two, reads and writes, evaluated for every rank.
type sections struct {
	lists [][]section
	memo  int
}

type validate struct {
	sections
	at           ir.AccessType
	wsync, async bool
}

type push struct{ sections }

// lowerer carries the symbol table while a program is lowered.
type lowerer struct {
	lp    *Lowered
	slots map[rsd.Sym]int
	binds map[int]bool // slots a loop or a Compute binds
	keys  []rsd.Sym    // scratch of lin
	terms []term       // the array every lin's terms are a piece of
}

// Lower builds the executable form of prog for nprocs ranks over layout,
// which must have been built from prog (see compiler.BuildLayout), with
// the given problem parameters (already passed through Program.Prepare).
// Its cost, allocations included, does not depend on nprocs beyond the
// size of the init table.
func Lower(prog *ir.Program, layout *shm.Layout, params rsd.Env, nprocs int) *Lowered {
	lp := &Lowered{prog: prog, params: params, nprocs: nprocs, layout: layout, scale: costScale(params)}
	lw := &lowerer{lp: lp, slots: map[rsd.Sym]int{}, binds: map[int]bool{}}
	lp.body = lw.stmts(prog.Body)

	// Every rank's bindings, as ir.Program.Env makes them, into one map.
	n := len(lp.syms)
	lp.init = make([]int, nprocs*n)
	env := rsd.Env{}
	for i := 0; i < nprocs; i++ {
		prog.FillEnv(env, params, i, nprocs)
		for s, sym := range lp.syms {
			lp.init[i*n+s] = env[sym]
		}
	}
	for s, sym := range lp.syms {
		if _, ok := env[sym]; ok {
			lp.initSlots = append(lp.initSlots, s)
		} else if !lw.binds[s] {
			panic(fmt.Sprintf("rsd: unbound symbol %q", sym))
		}
	}
	return lp
}

func (lw *lowerer) slot(sym rsd.Sym) int {
	s, ok := lw.slots[sym]
	if !ok {
		s = len(lw.lp.syms)
		lw.slots[sym] = s
		lw.lp.syms = append(lw.lp.syms, sym)
	}
	return s
}

// bind returns the slot of a symbol the program itself assigns.
func (lw *lowerer) bind(sym rsd.Sym) int {
	s := lw.slot(sym)
	lw.binds[s] = true
	return s
}

// lin lowers l, its terms in symbol order (so that slots are numbered the
// same way every time) and carved from one growing array shared by the
// whole program.
func (lw *lowerer) lin(l rsd.Lin) lin {
	lw.keys = lw.keys[:0]
	for sym := range l.T {
		lw.keys = append(lw.keys, sym)
	}
	slices.Sort(lw.keys)
	start := len(lw.terms)
	for _, sym := range lw.keys {
		lw.terms = append(lw.terms, term{slot: lw.slot(sym), coef: l.T[sym]})
	}
	return lin{c: l.C, t: lw.terms[start:len(lw.terms):len(lw.terms)]}
}

func (lw *lowerer) stmts(in []ir.Stmt) []stmt {
	out := make([]stmt, 0, len(in))
	for _, st := range in {
		switch st := st.(type) {
		case ir.Loop:
			l := &loop{v: lw.bind(st.Var), lo: lw.lin(st.Lo), hi: lw.lin(st.Hi), step: st.StepOr1()}
			if a, ok := onlyAssign(st); ok {
				body := lw.assign(a, st.Var)
				l.body = []stmt{body}
				if !slices.ContainsFunc(body.refs, func(r ref) bool { return r.step < 0 }) {
					l.vec = body
				}
			} else {
				l.body = lw.stmts(st.Body)
			}
			out = append(out, l)
		case ir.Assign:
			out = append(out, lw.assign(st, ""))
		case ir.Compute:
			out = append(out, &compute{slot: lw.bind(st.Sym), fn: st.Fn})
		case ir.If:
			out = append(out, &cond{cond: st.Cond, then: lw.stmts(st.Then), els: lw.stmts(st.Else)})
		case ir.LockAcquire:
			out = append(out, &lock{id: lw.lin(st.ID)})
		case ir.LockRelease:
			out = append(out, &lock{id: lw.lin(st.ID), release: true})
		case ir.Kernel:
			out = append(out, kernel(st.Run))
		case ir.Barrier:
			out = append(out, st)
		case ir.CallBoundary:
			// Analysis boundary only; nothing happens at run time.
		case ir.ValidateStmt:
			out = append(out, &validate{sections: lw.sections(st.Secs), at: st.At, wsync: st.WSync, async: st.Async})
		case ir.PushStmt:
			out = append(out, &push{lw.sections(st.Reads, st.Writes)})
		default:
			panic(fmt.Sprintf("interp: unknown statement %T", st))
		}
	}
	return out
}

// onlyAssign returns the assignment that is the whole body of a unit-step
// loop, the shape execVector runs.
func onlyAssign(l ir.Loop) (ir.Assign, bool) {
	if len(l.Body) != 1 || l.StepOr1() != 1 {
		return ir.Assign{}, false
	}
	a, ok := l.Body[0].(ir.Assign)
	return a, ok
}

// assign lowers a with its references' steps taken over loop variable v
// ("" outside a vectorizable loop: a symbol no subscript mentions).
func (lw *lowerer) assign(a ir.Assign, v rsd.Sym) *assign {
	out := &assign{fn: a.Fn, cost: a.Cost, refs: make([]ref, 0, 1+len(a.RHS))}
	out.refs = append(out.refs, lw.ref(a.LHS, v))
	for _, r := range a.RHS {
		out.refs = append(out.refs, lw.ref(r, v))
	}
	lw.lp.maxRefs = max(lw.lp.maxRefs, len(out.refs))
	return out
}

func (lw *lowerer) ref(r ir.Ref, v rsd.Sym) ref {
	arr := lw.lp.layout.Array(r.Array)
	if len(r.Idx) != len(arr.Dims) {
		panic(fmt.Sprintf("shm: array %s has %d dims, got %d indices", arr.Name, len(arr.Dims), len(r.Idx)))
	}
	out := ref{arr: arr, dims: make([]dim, len(r.Idx))}
	for d, e := range r.Idx {
		out.dims[d] = dim{sub: lw.lin(e), extent: arr.Dims[d], stride: arr.Stride(d), vcoef: e.T[v]}
		out.step += e.T[v] * arr.Stride(d)
	}
	return out
}

func (lw *lowerer) sections(lists ...[]rsd.Section) sections {
	out := sections{memo: lw.lp.memos, lists: make([][]section, len(lists))}
	lw.lp.memos++
	for j, secs := range lists {
		for _, sec := range secs {
			s := section{arr: lw.lp.layout.Array(sec.Array)}
			for _, d := range sec.Dims {
				s.dims = append(s.dims, bound{lo: lw.lin(d.Lo), hi: lw.lin(d.Hi), stride: d.Stride})
			}
			out.lists[j] = append(out.lists[j], s)
		}
	}
	return out
}
