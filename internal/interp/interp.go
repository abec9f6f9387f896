// Package interp executes ir programs, either on the simulated DSM
// (every node runs the SPMD program against its tmk runtime, with shared
// accesses going through the software MMU and compute charged to virtual
// time) or sequentially against a flat array (the reference used for
// correctness verification).
//
// Accesses are established at region granularity: for an innermost loop,
// the interpreter resolves each array reference to an address span, calls
// EnsureRead/EnsureWrite once (delivering any protection faults to the
// DSM protocol, exactly as hardware would on first touch), and then runs
// a tight loop over the floats.
package interp

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

// target abstracts where a program executes.
//
// beginCompute/endCompute bracket stretches that write shared memory
// directly through data() without entering the run-time; on the
// real-concurrency backend they serialize those writes against remote
// diff creation (see internal/host). A compute section must be ended
// before calling any other target method that can enter the run-time.
type target interface {
	ensureRead(lo, hi int)
	ensureWrite(lo, hi int)
	data() []float64
	beginCompute()
	endCompute()
	advance(d time.Duration)
	barrier(id int)
	acquire(id int)
	release(id int)
	validate(at ir.AccessType, regions []shm.Region, wsync, async bool)
	push(reads, writes [][]shm.Region)
}

// RunDSM executes prog on every node of sys with the given problem
// parameters (already passed through Program.Prepare). The layout of sys
// must have been built from prog (see compiler.BuildLayout). Optional
// epilogues run on every node after the program finishes, for gathering
// results.
func RunDSM(prog *ir.Program, sys *tmk.System, params rsd.Env, epilogue ...func(nd *tmk.Node)) error {
	return sys.Run(func(nd *tmk.Node) {
		x := &executor{
			prog:   prog,
			layout: sys.Layout,
			params: params,
			nprocs: sys.N(),
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

// SeqTime returns the pure-compute execution time of prog: the sum of all
// compute charges with no DSM or communication overheads. This is the
// paper's uniprocessor baseline ("obtained by removing all
// synchronization from the TreadMarks programs").
func SeqTime(prog *ir.Program, params rsd.Env) time.Duration {
	_, t := runSeq(prog, params)
	return t.elapsed
}

// costScale reads the optional compute-scale parameter (see the apps
// package: scaled-down data sets multiply per-element compute so the
// computation-to-communication balance stays in the paper's regime).
func costScale(params rsd.Env) int {
	if v, ok := params["cscale"]; ok && v > 1 {
		return v
	}
	return 1
}

// RunSeq executes prog sequentially (one logical processor, no DSM, no
// costs) and returns the layout and final memory image, the reference for
// verification.
func RunSeq(prog *ir.Program, params rsd.Env) (*shm.Layout, []float64) {
	layout, t := runSeq(prog, params)
	return layout, t.mem
}

func runSeq(prog *ir.Program, params rsd.Env) (*shm.Layout, *seqTarget) {
	layout := compiler.BuildLayout(prog, params)
	t := &seqTarget{mem: make([]float64, layout.Words())}
	x := &executor{
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

// dsmTarget runs on a DSM node.
type dsmTarget struct{ nd *tmk.Node }

func (t *dsmTarget) ensureRead(lo, hi int) {
	t.nd.Mem.EnsureRead(t.nd.Proc(), shm.Region{Lo: lo, Hi: hi})
}
func (t *dsmTarget) ensureWrite(lo, hi int) {
	t.nd.Mem.EnsureWrite(t.nd.Proc(), shm.Region{Lo: lo, Hi: hi})
}
func (t *dsmTarget) data() []float64         { return t.nd.Mem.Data() }
func (t *dsmTarget) beginCompute()           { t.nd.Proc().BeginCompute() }
func (t *dsmTarget) endCompute()             { t.nd.Proc().EndCompute() }
func (t *dsmTarget) advance(d time.Duration) { t.nd.Proc().Advance(d) }
func (t *dsmTarget) barrier(id int)          { t.nd.Barrier(id) }
func (t *dsmTarget) acquire(id int)          { t.nd.Acquire(id) }
func (t *dsmTarget) release(id int)          { t.nd.Release(id) }

func (t *dsmTarget) validate(at ir.AccessType, regions []shm.Region, wsync, async bool) {
	var acc tmk.AccessType
	switch at {
	case ir.Read:
		acc = tmk.AccRead
	case ir.Write:
		acc = tmk.AccWrite
	case ir.ReadWrite:
		acc = tmk.AccReadWrite
	case ir.WriteAll:
		acc = tmk.AccWriteAll
	case ir.ReadWriteAll:
		acc = tmk.AccReadWriteAll
	}
	if wsync {
		t.nd.ValidateWSync(acc, regions)
		return
	}
	t.nd.Validate(acc, regions, async)
}

func (t *dsmTarget) push(reads, writes [][]shm.Region) { t.nd.Push(reads, writes) }

// seqTarget is the cost-free sequential reference; it accumulates compute
// charges for SeqTime.
type seqTarget struct {
	mem     []float64
	elapsed time.Duration
}

func (t *seqTarget) ensureRead(int, int)                              {}
func (t *seqTarget) ensureWrite(int, int)                             {}
func (t *seqTarget) beginCompute()                                    {}
func (t *seqTarget) endCompute()                                      {}
func (t *seqTarget) data() []float64                                  { return t.mem }
func (t *seqTarget) advance(d time.Duration)                          { t.elapsed += d }
func (t *seqTarget) barrier(int)                                      {}
func (t *seqTarget) acquire(int)                                      {}
func (t *seqTarget) release(int)                                      {}
func (t *seqTarget) validate(ir.AccessType, []shm.Region, bool, bool) {}
func (t *seqTarget) push(reads, writes [][]shm.Region)                {}

// executor walks the statement tree for one processor.
type executor struct {
	prog   *ir.Program
	layout *shm.Layout
	params rsd.Env
	nprocs int
	env    rsd.Env
	tgt    target
	scale  int // compute cost multiplier (cscale parameter)

	// Scratch reused across statements: operand values, the index tuple
	// being resolved, and the references of a vectorized assignment.
	srcs []float64
	idx  []int
	refs []mov

	// Push memo (execPush), built at the first PushStmt: per-statement
	// region sets, every rank's parameter environment, and the scratch the
	// bounds are evaluated with.
	pushes  map[int]pushMemo
	rankEnv []rsd.Env
	pushEnv rsd.Env
	bounds  []int
}

// advance charges scaled compute time.
func (x *executor) advance(d time.Duration) {
	if x.scale > 1 {
		d *= time.Duration(x.scale)
	}
	x.tgt.advance(d)
}

func (x *executor) exec(stmts []ir.Stmt) {
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
			// it around region faults (see kernelCtx).
			x.tgt.beginCompute()
			st.Run(&kernelCtx{x: x})
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

// pushMemo is what execPush last built for one PushStmt: every rank's
// region sets and the concrete section bounds they were built from.
type pushMemo struct {
	bounds        []int
	reads, writes [][]shm.Region
}

// regions evaluates sections in env to one normalized region set.
func (x *executor) regions(secs []rsd.Section, env rsd.Env) []shm.Region {
	var out []shm.Region
	for _, sec := range secs {
		out = append(out, sec.Eval(env).Regions(x.layout)...)
	}
	return shm.Normalize(out)
}

// envOfRank returns rank i's evaluation environment in the pushEnv
// scratch: its parameter environment plus the enclosing loop variables and
// computed symbols of this executor, identical on all procs.
func (x *executor) envOfRank(i int) rsd.Env {
	clear(x.pushEnv)
	maps.Copy(x.pushEnv, x.env)
	maps.Copy(x.pushEnv, x.rankEnv[i])
	return x.pushEnv
}

// execPush evaluates the per-processor sections and invokes the runtime.
// Only the section bounds of every rank are evaluated each time; the region
// sets are rebuilt when a bound moved since this statement (identified by
// the barrier it replaced) last ran, and reused otherwise — the runtime
// only reads them.
func (x *executor) execPush(st ir.PushStmt) {
	if x.pushes == nil {
		x.pushes, x.pushEnv = map[int]pushMemo{}, rsd.Env{}
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
		x.pushes[st.ReplacedBarrier] = m
	}
	x.tgt.push(m.reads, m.writes)
}

// execLoop runs a counted loop; a loop whose body is a single assignment
// is vectorized over contiguous address spans.
func (x *executor) execLoop(st ir.Loop) {
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

// mov is one reference of a vectorized assignment: its address at the
// first iteration and its address step per iteration.
type mov struct{ addr, step int }

// addr resolves a reference in the current environment.
func (x *executor) addr(arr *shm.Array, ref ir.Ref) int {
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
func (x *executor) move(ref ir.Ref, v rsd.Sym) mov {
	arr := x.layout.Array(ref.Array)
	m := mov{addr: x.addr(arr, ref)}
	for d, e := range ref.Idx {
		m.step += e.T[v] * arr.Stride(d)
	}
	return m
}

// execAssignVector runs `for v = lo..hi: lhs = Fn(rhs...)` as one ensured
// span plus a tight loop. Unit- and zero-stride references are ensured as
// single spans; larger constant strides are ensured page by page along
// the traversal (exactly the pages a strided access touches). Returns
// false when a reference moves backwards. The executor's scratch slices
// make a warmed call allocation-free (pinned by the root alloc_test.go).
func (x *executor) execAssignVector(v rsd.Sym, lo, hi int, a ir.Assign) bool {
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
	ensure := func(m mov, write bool) {
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
		data[refs[0].addr+refs[0].step*t] = a.Fn(srcs)
	}
	x.tgt.endCompute()
	x.advance(time.Duration(n) * a.Cost)
	return true
}

// execAssignScalar runs one instance of an assignment with the current
// environment.
func (x *executor) execAssignScalar(a ir.Assign) {
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
	x.tgt.data()[lhs] = a.Fn(srcs)
	x.tgt.endCompute()
	x.advance(a.Cost)
}

// kernelCtx adapts the executor for opaque kernels.
type kernelCtx struct{ x *executor }

func (k *kernelCtx) Env() rsd.Env { return k.x.env }

// ReadRegion and WriteRegion suspend the kernel's compute section while
// the fault path runs (protocol sections and compute sections must not
// nest, see internal/host), then resume it.

func (k *kernelCtx) ReadRegion(lo, hi int) []float64 {
	k.x.tgt.endCompute()
	k.x.tgt.ensureRead(lo, hi)
	k.x.tgt.beginCompute()
	return k.x.tgt.data()
}

func (k *kernelCtx) WriteRegion(lo, hi int) []float64 {
	k.x.tgt.endCompute()
	k.x.tgt.ensureWrite(lo, hi)
	k.x.tgt.beginCompute()
	return k.x.tgt.data()
}

func (k *kernelCtx) Array(name string) *shm.Array { return k.x.layout.Array(name) }

func (k *kernelCtx) Charge(d time.Duration) { k.x.advance(d) }
