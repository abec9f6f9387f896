package interp

// The tree-walking executor that ran in production until the lowered one
// (lower.go, exec.go) replaced it, kept as the differential test's oracle
// (verbatim but for apply, since an assignment became a span kernel): it
// computes one element at a time from gathered operand values, and
// evaluates every rsd.Lin, ir.Ref and rsd.Section symbolically, against a
// map environment, each time a statement executes. It is slow
// and obviously a direct reading of the ir — which is what an oracle wants.
// Its one known defect is part of the record: the vector path range-checks
// a reference at the first iteration only (TestRangeCheckEndpoints).

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"sdsm/internal/compiler"
	"sdsm/internal/ir"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/tmk"
)

// refRunDSM is RunDSM on the tree-walker.
func refRunDSM(prog *ir.Program, sys *tmk.System, params rsd.Env, epilogue ...func(nd *tmk.Node)) error {
	return sys.Run(func(nd *tmk.Node) {
		x := &refExecutor{
			prog:   prog,
			layout: sys.Layout,
			params: params,
			nprocs: sys.N(),
			rank:   nd.ID,
			env:    prog.Env(params, nd.ID, sys.N()),
			tgt:    &dsmTarget{nd: nd},
			scale:  costScale(params),
		}
		x.exec(prog.Body)
		for _, ep := range epilogue {
			ep(nd)
		}
	})
}

// refRunSeq is runSeq on the tree-walker: the layout, the final memory
// image and the accumulated compute time.
func refRunSeq(prog *ir.Program, params rsd.Env) (*shm.Layout, *seqTarget) {
	layout := compiler.BuildLayout(prog, params)
	t := &seqTarget{mem: make([]float64, layout.Words())}
	x := &refExecutor{
		prog:   prog,
		layout: layout,
		params: params,
		nprocs: 1,
		env:    prog.Env(params, 0, 1),
		tgt:    t,
		scale:  costScale(params),
	}
	x.exec(prog.Body)
	return layout, t
}

// refExecutor walks the statement tree for one processor.
type refExecutor struct {
	prog   *ir.Program
	layout *shm.Layout
	params rsd.Env
	nprocs int
	rank   int
	env    rsd.Env
	tgt    target
	scale  int // compute cost multiplier (cscale parameter)

	// Scratch reused across statements: operand values, the index tuple
	// being resolved, and the references of a vectorized assignment.
	srcs []float64
	idx  []int
	refs []refMov

	// Push memo (execPush), built at the first PushStmt: per-statement
	// region sets and what they make this rank send and receive, every
	// rank's parameter environment, and the scratch the bounds are evaluated
	// with.
	local   any // the program's private state (ir.Program.Local)
	pushes  map[int]refPushMemo
	rankEnv []rsd.Env
	pushEnv rsd.Env
	bounds  []int
}

// advance charges scaled compute time.
func (x *refExecutor) advance(d time.Duration) {
	if x.scale > 1 {
		d *= time.Duration(x.scale)
	}
	x.tgt.advance(d)
}

func (x *refExecutor) exec(stmts []ir.Stmt) {
	for _, st := range stmts {
		switch st := st.(type) {
		case ir.Loop:
			x.execLoop(st)
		case ir.Compute:
			x.env[st.Sym] = st.Fn(x.env)
		case ir.Assign:
			x.execAssignScalar(st)
		case ir.Barrier:
			x.tgt.barrier(st.ID)
		case ir.LockAcquire:
			x.tgt.acquire(st.ID.Eval(x.env))
		case ir.LockRelease:
			x.tgt.release(st.ID.Eval(x.env))
		case ir.If:
			if st.Cond(x.env) {
				x.exec(st.Then)
			} else {
				x.exec(st.Else)
			}
		case ir.Kernel:
			// Kernels run inside a compute section; the context suspends
			// it around region faults (see refKernelCtx).
			x.tgt.beginCompute()
			st.Run(&refKernelCtx{x: x})
			x.tgt.endCompute()
		case ir.CallBoundary:
			// Analysis boundary only; nothing happens at run time.
		case ir.ValidateStmt:
			regions := x.regions(st.Secs, x.env)
			if len(regions) == 0 {
				continue
			}
			x.tgt.validate(st.At, regions, st.WSync, st.Async)
		case ir.PushStmt:
			x.execPush(st)
		default:
			panic(fmt.Sprintf("interp: unknown statement %T", st))
		}
	}
}

// refPushMemo is what execPush last built for one PushStmt: every rank's
// region sets, the concrete section bounds they were built from, and what
// this rank's Push sends and receives by them (refPlan).
type refPushMemo struct {
	bounds        []int
	reads, writes [][]shm.Region
	send          [][]shm.Region
	from          []bool
}

// refPlan is what processor me's Push sends every processor and whether it
// receives from each, derived from every processor's full read and write
// region sets by intersecting word lists.
func refPlan(me int, reads, writes [][]shm.Region) (send [][]shm.Region, from []bool) {
	send, from = make([][]shm.Region, len(reads)), make([]bool, len(reads))
	for i := range reads {
		if i != me {
			send[i] = intersectSets(writes[me], reads[i])
			from[i] = len(intersectSets(writes[i], reads[me])) > 0
		}
	}
	return send, from
}

// intersectSets is the intersection of two normalized region sets, region
// pair by region pair.
func intersectSets(a, b []shm.Region) []shm.Region {
	var out []shm.Region
	for _, ra := range a {
		for _, rb := range b {
			if x := (shm.Region{Lo: max(ra.Lo, rb.Lo), Hi: min(ra.Hi, rb.Hi)}); !x.Empty() {
				out = append(out, x)
			}
		}
	}
	return shm.Normalize(out)
}

// regions evaluates sections in env to one normalized region set.
func (x *refExecutor) regions(secs []rsd.Section, env rsd.Env) []shm.Region {
	var out []shm.Region
	for _, sec := range secs {
		c := sec.Eval(env)
		out = c.AppendRegions(out, x.layout.Array(c.Array))
	}
	return shm.Normalize(out)
}

// envOfRank returns rank i's evaluation environment in the pushEnv
// scratch: its parameter environment plus the enclosing loop variables and
// computed symbols of this refExecutor, identical on all procs.
func (x *refExecutor) envOfRank(i int) rsd.Env {
	clear(x.pushEnv)
	maps.Copy(x.pushEnv, x.env)
	maps.Copy(x.pushEnv, x.rankEnv[i])
	return x.pushEnv
}

// execPush evaluates the per-processor sections and invokes the runtime
// with what they make this processor send and receive. Only the section
// bounds of every rank are evaluated each time; the region sets and the
// plan are rebuilt when a bound moved since this statement (identified by
// the barrier it replaced) last ran, and reused otherwise — the runtime
// only reads them.
func (x *refExecutor) execPush(st ir.PushStmt) {
	if x.pushes == nil {
		x.pushes, x.pushEnv = map[int]refPushMemo{}, rsd.Env{}
		for i := 0; i < x.nprocs; i++ {
			x.rankEnv = append(x.rankEnv, x.prog.Env(x.params, i, x.nprocs))
		}
	}
	m := x.pushes[st.ReplacedBarrier]
	bounds := x.bounds[:0]
	for i := range x.rankEnv {
		env := x.envOfRank(i)
		for _, secs := range [2][]rsd.Section{st.Reads, st.Writes} {
			for _, sec := range secs {
				for _, d := range sec.Dims {
					bounds = append(bounds, d.Lo.Eval(env), d.Hi.Eval(env))
				}
			}
		}
	}
	x.bounds = bounds
	if m.reads == nil || !slices.Equal(bounds, m.bounds) {
		m.bounds = append(m.bounds[:0], bounds...)
		m.reads, m.writes = make([][]shm.Region, x.nprocs), make([][]shm.Region, x.nprocs)
		for i := range x.rankEnv {
			env := x.envOfRank(i)
			m.reads[i], m.writes[i] = x.regions(st.Reads, env), x.regions(st.Writes, env)
		}
		m.send, m.from = refPlan(x.rank, m.reads, m.writes)
		x.pushes[st.ReplacedBarrier] = m
	}
	x.tgt.push(m.send, m.from)
}

// execLoop runs a counted loop; a loop whose body is a single assignment
// is vectorized over contiguous address spans.
func (x *refExecutor) execLoop(st ir.Loop) {
	lo, hi := st.Lo.Eval(x.env), st.Hi.Eval(x.env)
	if hi < lo {
		return
	}
	step := st.StepOr1()
	if step == 1 && len(st.Body) == 1 {
		if a, ok := st.Body[0].(ir.Assign); ok && x.execAssignVector(st.Var, lo, hi, a) {
			return
		}
	}
	for v := lo; v <= hi; v += step {
		x.env[st.Var] = v
		x.exec(st.Body)
	}
	delete(x.env, st.Var)
}

// refMov is one reference of a vectorized assignment: its address at the
// first iteration and its address step per iteration.
type refMov struct{ addr, step int }

// addr resolves a reference in the current environment.
func (x *refExecutor) addr(arr *shm.Array, ref ir.Ref) int {
	if cap(x.idx) < len(ref.Idx) {
		x.idx = make([]int, len(ref.Idx))
	}
	idx := x.idx[:len(ref.Idx)]
	for d, e := range ref.Idx {
		idx[d] = e.Eval(x.env)
	}
	return arr.Index(idx...)
}

// move resolves a reference of a loop over v, with v bound in the
// environment to the first iteration.
func (x *refExecutor) move(ref ir.Ref, v rsd.Sym) refMov {
	arr := x.layout.Array(ref.Array)
	m := refMov{addr: x.addr(arr, ref)}
	for d, e := range ref.Idx {
		m.step += e.T[v] * arr.Stride(d)
	}
	return m
}

// execAssignVector runs `for v = lo..hi: lhs = Fn(rhs...)` as one ensured
// span plus a tight loop. Unit- and zero-stride references are ensured as
// single spans; larger constant strides are ensured page by page along
// the traversal (exactly the pages a strided access touches). Returns
// false when a reference moves backwards. The refExecutor's scratch slices
// make a warmed call allocation-free (pinned by the root alloc_test.go).
func (x *refExecutor) execAssignVector(v rsd.Sym, lo, hi int, a ir.Assign) bool {
	x.env[v] = lo
	refs := append(x.refs[:0], x.move(a.LHS, v))
	for _, r := range a.RHS {
		refs = append(refs, x.move(r, v))
	}
	delete(x.env, v)
	x.refs = refs
	for _, m := range refs {
		if m.step < 0 {
			return false
		}
	}
	n := hi - lo + 1
	ensure := func(m refMov, write bool) {
		lo, hi := m.addr, m.addr+1
		switch m.step {
		case 0:
		case 1:
			hi = m.addr + n
		default:
			// Strided traversal: ensure each touched page once.
			last := -1
			for t := 0; t < n; t++ {
				addr := m.addr + m.step*t
				if pg := addr / shm.PageWords; pg != last {
					last = pg
					if write {
						x.tgt.ensureWrite(addr, addr+1)
					} else {
						x.tgt.ensureRead(addr, addr+1)
					}
				}
			}
			return
		}
		if write {
			x.tgt.ensureWrite(lo, hi)
		} else {
			x.tgt.ensureRead(lo, hi)
		}
	}
	ensure(refs[0], true)
	for _, m := range refs[1:] {
		ensure(m, false)
	}
	data := x.tgt.data()
	if cap(x.srcs) < len(a.RHS) {
		x.srcs = make([]float64, len(a.RHS))
	}
	srcs := x.srcs[:len(a.RHS)]
	x.tgt.beginCompute()
	for t := 0; t < n; t++ {
		for j, m := range refs[1:] {
			srcs[j] = data[m.addr+m.step*t]
		}
		data[refs[0].addr+refs[0].step*t] = x.apply(a, srcs)
	}
	x.tgt.endCompute()
	x.advance(time.Duration(n) * a.Cost)
	return true
}

// apply computes one element of a from operand values it has gathered: the
// span kernel on one-word slices of buffers of the oracle's own, never of
// memory. That every kernel is elementwise, and that the executor's three
// call forms agree with element-by-element evaluation, is what comparing
// the two then checks.
func (x *refExecutor) apply(a ir.Assign, srcs []float64) float64 {
	src := make([][]float64, len(srcs))
	for j := range srcs {
		src[j] = srcs[j : j+1]
	}
	var dst [1]float64
	a.Fn(dst[:], src)
	return dst[0]
}

// execAssignScalar runs one instance of an assignment with the current
// environment.
func (x *refExecutor) execAssignScalar(a ir.Assign) {
	lhs := x.addr(x.layout.Array(a.LHS.Array), a.LHS)
	if cap(x.srcs) < len(a.RHS) {
		x.srcs = make([]float64, len(a.RHS))
	}
	srcs := x.srcs[:len(a.RHS)]
	for j, r := range a.RHS {
		addr := x.addr(x.layout.Array(r.Array), r)
		x.tgt.ensureRead(addr, addr+1)
		srcs[j] = x.tgt.data()[addr]
	}
	x.tgt.ensureWrite(lhs, lhs+1)
	x.tgt.beginCompute()
	x.tgt.data()[lhs] = x.apply(a, srcs)
	x.tgt.endCompute()
	x.advance(a.Cost)
}

// refKernelCtx adapts the refExecutor for opaque kernels.
type refKernelCtx struct{ x *refExecutor }

func (k *refKernelCtx) Env() rsd.Env { return k.x.env }

// ReadRegion and WriteRegion suspend the kernel's compute section while
// the fault path runs (protocol sections and compute sections must not
// nest, see internal/host), then resume it.

func (k *refKernelCtx) ReadRegion(lo, hi int) []float64 {
	k.x.tgt.endCompute()
	k.x.tgt.ensureRead(lo, hi)
	k.x.tgt.beginCompute()
	return k.x.tgt.data()
}

func (k *refKernelCtx) WriteRegion(lo, hi int) []float64 {
	k.x.tgt.endCompute()
	k.x.tgt.ensureWrite(lo, hi)
	k.x.tgt.beginCompute()
	return k.x.tgt.data()
}

func (k *refKernelCtx) Array(name string) *shm.Array { return k.x.layout.Array(name) }

func (k *refKernelCtx) Charge(d time.Duration) { k.x.advance(d) }

func (k *refKernelCtx) Local() any {
	if k.x.local == nil && k.x.prog.Local != nil {
		k.x.local = k.x.prog.Local(nil)
	}
	return k.x.local
}
