package interp

import (
	"fmt"
	"slices"
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/tmk"
)

// executor runs a lowered program for one processor. Its environment is
// the slot vector env; everything else is scratch sized once from the
// program, so a warmed statement allocates nothing (pinned by the root
// alloc_test.go). On a DSM machine it is one of a set that outlives the
// machine (Lowered.Run): reset brings it back to the start of a run, and
// its memos and scratch stay warm.
type executor struct {
	lp   *Lowered
	rank int
	env  []int
	tgt  target
	dsm  dsmTarget // tgt on a DSM machine
	kctx kernelCtx
	// The program's private state for this rank and run (ir.Program.Local),
	// made at a kernel's first Local call.
	local any

	// The map the opaque callbacks read the environment through (envView),
	// and the slot values it was last brought up to.
	view rsd.Env
	seen []int

	movs  []mov       // the references of the assignment being run, resolved
	src   [][]float64 // its operands as the kernel takes them (call)
	stage []float64   // the operands call had to copy; grows to the longest loop's

	memos  []memo       // per Validate/Push statement (lookup)
	bounds []rsd.CBound // the section bounds being compared with a memo's
	penv   []int        // another rank's environment, for Push (envOfRank)
	isect  []rsd.CBound // the bounds of pushPlan's last intersection
}

func newExecutor(lp *Lowered, rank int, tgt target) *executor {
	x := &executor{
		lp:    lp,
		rank:  rank,
		env:   slices.Clone(lp.row(rank)),
		tgt:   tgt,
		movs:  make([]mov, lp.maxRefs),
		src:   make([][]float64, lp.maxRefs),
		memos: make([]memo, lp.memos),
	}
	x.kctx.x = x
	return x
}

// reset makes the executor start a run on node nd: the rank's initial
// environment, a view that holds nothing a callback of the last run stored
// (tsp's "mytask"), and no private state, so ir.Program.Local makes it
// afresh.
func (x *executor) reset(nd *tmk.Node) {
	x.dsm.nd, x.tgt = nd, &x.dsm
	copy(x.env, x.lp.row(x.rank))
	if x.view != nil {
		x.fillView()
	}
	x.local = nil
}

// park drops what ties the executor to the machine that ran it — the
// node, the run's private state, operand slices of the node's memory — so
// that an idle set keeps none of it alive.
func (x *executor) park() {
	x.dsm.nd, x.local = nil, nil
	clear(x.src)
}

// advance charges scaled compute time.
func (x *executor) advance(d time.Duration) {
	x.tgt.advance(d * time.Duration(x.lp.scale))
}

// envView returns the environment as the map Compute, If and Kernel
// callbacks take. The slots are the environment; the view is
// ir.Program.Env's map for this rank (so it also holds the parameters no
// affine expression mentions) brought up to the slots that changed since
// it was last asked for. What a callback stores under a name of its own
// stays for the next callback (tsp hands "mytask" from kernel to kernel);
// a store under a name the program binds does not reach the slot.
func (x *executor) envView() rsd.Env {
	if x.view == nil {
		x.view, x.seen = rsd.Env{}, make([]int, len(x.env))
		x.fillView()
	}
	for s, v := range x.env {
		if v != x.seen[s] {
			x.seen[s], x.view[x.lp.syms[s]] = v, v
		}
	}
	return x.view
}

// fillView makes the view, in its own storage, ir.Program.Env's map for
// this rank with every slot's value written over it.
func (x *executor) fillView() {
	x.lp.prog.FillEnv(x.view, x.lp.params, x.rank, x.lp.nprocs)
	for s, v := range x.env {
		x.seen[s], x.view[x.lp.syms[s]] = v, v
	}
}

func (x *executor) exec(stmts []stmt) {
	for _, st := range stmts {
		switch st := st.(type) {
		case *loop:
			x.execLoop(st)
		case *assign:
			x.execScalar(st)
		case *compute:
			x.env[st.slot] = st.fn(x.envView())
		case ir.Barrier:
			x.tgt.barrier(st.ID)
		case *lock:
			if id := st.id.eval(x.env); st.release {
				x.tgt.release(id)
			} else {
				x.tgt.acquire(id)
			}
		case *cond:
			if st.cond(x.envView()) {
				x.exec(st.then)
			} else {
				x.exec(st.els)
			}
		case kernel:
			// Kernels run inside a compute section; the context suspends
			// it around region faults (see kernelCtx).
			x.tgt.beginCompute()
			st(&x.kctx)
			x.tgt.endCompute()
		case *validate:
			if regions := x.validateRegions(st); len(regions) > 0 {
				x.tgt.validate(st.at, regions, st.wsync, st.async)
			}
		case *push:
			x.tgt.push(x.pushPlan(st))
		}
	}
}

// memo is what the executor last built for one Validate or Push statement,
// and the concrete section bounds it was built from: for every rank, list
// and section, each dimension's bound. secs are those sections, carved from
// bounds when the statement first runs; bounds keeps its length, so they
// describe whatever bounds holds. A Validate's regions are sets[0]; a
// Push's sets[i] is what it sends rank i, and from[i] whether rank i sends
// it anything. A rebuild reuses the storage: the run-time only reads what
// it is handed, and keeps none of it past the call.
type memo struct {
	bounds []rsd.CBound
	secs   []rsd.Concrete
	sets   [][]shm.Region
	from   []bool
}

// envOfRank returns rank i's environment in the penv scratch: what the
// parameters bind for that rank, and this executor's loop variables and
// computed symbols, identical on all ranks.
func (x *executor) envOfRank(i int) []int {
	if x.penv == nil {
		x.penv = make([]int, len(x.env))
	}
	copy(x.penv, x.env)
	row := x.lp.row(i)
	for _, s := range x.lp.initSlots {
		x.penv[s] = row[s]
	}
	return x.penv
}

// lookup evaluates st's bounds into scratch — in every rank's environment
// when ranks is nprocs, in this executor's when it is 1 — and returns st's
// memo and whether it was built from these very bounds. On a miss the
// bounds become the memo's, for the caller to build from.
func (x *executor) lookup(st *sections, ranks int) (*memo, bool) {
	b := x.bounds[:0]
	for i := 0; i < ranks; i++ {
		env := x.env
		if ranks > 1 {
			env = x.envOfRank(i)
		}
		for _, secs := range st.lists {
			for s := range secs {
				for _, d := range secs[s].dims {
					b = append(b, rsd.CBound{Lo: d.lo.eval(env), Hi: d.hi.eval(env), Stride: d.stride})
				}
			}
		}
	}
	x.bounds = b
	m := &x.memos[st.memo]
	if m.secs != nil && slices.Equal(b, m.bounds) {
		return m, true
	}
	m.bounds = append(m.bounds[:0], b...)
	if m.secs == nil {
		k := 0
		for i := 0; i < ranks; i++ {
			for _, secs := range st.lists {
				for s := range secs {
					n := len(secs[s].dims)
					m.secs = append(m.secs, rsd.Concrete{Array: secs[s].arr.Name, Dims: m.bounds[k : k+n : k+n]})
					k += n
				}
			}
		}
		m.sets, m.from = make([][]shm.Region, ranks), make([]bool, ranks)
	}
	return m, false
}

// validateRegions returns the normalized regions of a Validate's sections,
// rebuilt into the memo's storage when a bound moved.
func (x *executor) validateRegions(st *validate) []shm.Region {
	m, hit := x.lookup(&st.sections, 1)
	if !hit {
		out := m.sets[0][:0]
		for s, c := range m.secs {
			out = c.AppendRegions(out, st.lists[0][s].arr)
		}
		m.sets[0] = normalized(out)
	}
	return m.sets[0]
}

// pushPlan returns what this rank's Push sends each rank i — the regions
// its write sections share with i's read sections — and whether i sends it
// anything: some write section of i shares an element with one of its read
// sections. Sections are intersected pairwise and only what crosses is
// expanded, each time a bound of any rank moved.
func (x *executor) pushPlan(st *push) ([][]shm.Region, []bool) {
	m, hit := x.lookup(&st.sections, x.lp.nprocs)
	if hit {
		return m.sets, m.from
	}
	// Rank i's sections are m.secs[i*per:][:per], its reads then its writes.
	nr, per := len(st.lists[0]), len(st.lists[0])+len(st.lists[1])
	mine := m.secs[x.rank*per:][:per]
	for i := range m.sets {
		m.sets[i], m.from[i] = m.sets[i][:0], false
		if i == x.rank {
			continue
		}
		theirs := m.secs[i*per:][:per]
		for a, w := range mine[nr:] {
			for _, r := range theirs[:nr] {
				m.sets[i] = x.intersect(w, r).AppendRegions(m.sets[i], st.lists[1][a].arr)
			}
		}
		m.sets[i] = normalized(m.sets[i])
		for _, w := range theirs[nr:] {
			for _, r := range mine[:nr] {
				m.from[i] = m.from[i] || !x.intersect(w, r).Empty()
			}
		}
	}
	return m.sets, m.from
}

// intersect returns w ∩ r with its bounds in the executor's scratch, valid
// until the next call.
func (x *executor) intersect(w, r rsd.Concrete) rsd.Concrete {
	c := w.Intersect(r, x.isect)
	x.isect = c.Dims
	return c
}

// normalized returns rs, the regions of sections appended one after
// another, normalized in its own storage. Each section's are, so they
// usually all are: only regions out of order or touching need Normalize.
func normalized(rs []shm.Region) []shm.Region {
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo <= rs[i-1].Hi {
			return append(rs[:0], shm.Normalize(rs)...)
		}
	}
	return rs
}

// execLoop runs a counted loop. The variable's slot goes back to zero —
// what a callback reads for a name nothing binds — when the loop ends.
func (x *executor) execLoop(l *loop) {
	lo, hi := l.lo.eval(x.env), l.hi.eval(x.env)
	if hi < lo {
		return
	}
	if l.vec != nil {
		x.env[l.v] = lo
		x.execVector(l.vec, hi-lo+1)
	} else {
		for v := lo; v <= hi; v += l.step {
			x.env[l.v] = v
			x.exec(l.body)
		}
	}
	x.env[l.v] = 0
}

// mov is one reference of a vectorized assignment: its address at the
// iteration about to run and its address step per iteration.
type mov struct{ addr, step int }

// addr resolves the reference in env, range-checking every subscript
// there and k iterations of the enclosing loop later. Subscripts are
// affine, so the two ends bound everything between.
func (r *ref) addr(env []int, k int) int {
	addr := r.arr.Base
	for d := range r.dims {
		dm := &r.dims[d]
		i := dm.sub.eval(env)
		if last := i + k*dm.vcoef; i < 1 || i > dm.extent || last < 1 || last > dm.extent {
			r.outOfRange(d, i)
		}
		addr += (i - 1) * dm.stride
	}
	return addr
}

// outOfRange panics as shm.Array.Index does, naming the first index of
// dimension d to leave the array when the subscript starts at i.
func (r *ref) outOfRange(d, i int) {
	dm := &r.dims[d]
	if i >= 1 && i <= dm.extent {
		if c := dm.vcoef; c > 0 {
			i += c * ((dm.extent-i)/c + 1)
		} else {
			i += c * ((i-1)/-c + 1)
		}
	}
	panic(fmt.Sprintf("shm: index %d out of range [1,%d] in dim %d of %s", i, dm.extent, d, r.arr.Name))
}

// ensureSpan establishes access to the words [lo, hi).
func (x *executor) ensureSpan(lo, hi int, write bool) {
	if write {
		x.tgt.ensureWrite(lo, hi)
	} else {
		x.tgt.ensureRead(lo, hi)
	}
}

// ensure establishes access to the n elements a reference visits from m.
// Unit- and zero-stride references are ensured as single spans; larger
// constant strides page by page along the traversal (exactly the pages a
// strided access touches).
func (x *executor) ensure(m mov, n int, write bool) {
	switch m.step {
	case 0:
		x.ensureSpan(m.addr, m.addr+1, write)
	case 1:
		x.ensureSpan(m.addr, m.addr+n, write)
	default:
		last := -1
		for t := 0; t < n; t++ {
			addr := m.addr + m.step*t
			if pg := addr / shm.PageWords; pg != last {
				last = pg
				x.ensureSpan(addr, addr+1, write)
			}
		}
	}
}

// execVector runs the n iterations of `for v = lo..: lhs = fn(rhs...)`,
// v's slot holding lo, as one ensured span per reference plus the kernel.
func (x *executor) execVector(a *assign, n int) {
	movs := x.movs[:len(a.refs)]
	for r := range a.refs {
		movs[r] = mov{addr: a.refs[r].addr(x.env, n-1), step: a.refs[r].step}
	}
	x.ensure(movs[0], n, true)
	for _, m := range movs[1:] {
		x.ensure(m, n, false)
	}
	x.tgt.beginCompute()
	x.call(a.fn, movs, n)
	x.tgt.endCompute()
	x.advance(time.Duration(n) * a.cost)
}

// call runs the n elements movs describe — the destination, then the
// operands — through fn, in one of three forms. When the destination is a
// span of consecutive words and every operand either names those very
// words or stays clear of them from first element to last, one call does
// the span: fn gets the node's memory itself for the destination and the
// unit-step operands, and a copy staged in scratch, made once, for the
// operands that stand still (a broadcast) or stride. Any other overlap is
// a dependence one iteration may carry to a later one, and a destination
// that is not a span has nothing to slice: fn then runs once per element,
// in iteration order, on one-word slices of memory.
func (x *executor) call(fn func(dst []float64, src [][]float64), movs []mov, n int) {
	data, dst, rhs := x.tgt.data(), movs[0], movs[1:]
	src := x.src[:len(rhs)]
	span := dst.step == 1
	for _, m := range rhs {
		same := m.step == 1 && m.addr == dst.addr
		span = span && (same || m.addr >= dst.addr+n || m.addr+m.step*(n-1) < dst.addr)
	}
	if !span {
		for t := 0; t < n; t++ {
			for j, m := range rhs {
				at := m.addr + m.step*t
				src[j] = data[at : at+1]
			}
			at := dst.addr + dst.step*t
			fn(data[at:at+1], src)
		}
		return
	}
	stage := x.stage[:0]
	for j, m := range rhs {
		if m.step == 1 {
			src[j] = data[m.addr : m.addr+n]
			continue
		}
		// Growing leaves the operands staged so far where they are.
		stage = slices.Grow(stage, n)[:len(stage)+n]
		src[j] = stage[len(stage)-n:]
		for t := range src[j] {
			src[j][t] = data[m.addr+m.step*t]
		}
	}
	x.stage = stage
	fn(data[dst.addr:dst.addr+n], src)
}

// execScalar runs one instance of an assignment in the current environment.
func (x *executor) execScalar(a *assign) {
	movs := x.movs[:len(a.refs)]
	for r := range a.refs {
		movs[r] = mov{addr: a.refs[r].addr(x.env, 0)}
	}
	for _, m := range movs[1:] {
		x.tgt.ensureRead(m.addr, m.addr+1)
	}
	x.tgt.ensureWrite(movs[0].addr, movs[0].addr+1)
	x.tgt.beginCompute()
	x.call(a.fn, movs, 1)
	x.tgt.endCompute()
	x.advance(a.cost)
}

// kernelCtx adapts the executor for opaque kernels.
type kernelCtx struct{ x *executor }

func (k *kernelCtx) Env() rsd.Env { return k.x.envView() }

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

func (k *kernelCtx) Array(name string) *shm.Array { return k.x.lp.array(name) }

func (k *kernelCtx) Charge(d time.Duration) { k.x.advance(d) }

func (k *kernelCtx) Local() any {
	if k.x.local == nil && k.x.lp.prog.Local != nil {
		k.x.local = k.x.lp.prog.Local()
	}
	return k.x.local
}
