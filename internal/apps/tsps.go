package apps

import (
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
)

// TSPS is tsp with the single shared work queue sharded into per-node
// deques under striped locks — the scaling companion to the lock-dominated
// member of the suite. One global queue serializes every take on one lock
// and one page: at 64 or 128 nodes the queue page's diff chain migrates
// through every processor each round, and the lock home becomes the
// machine's hot spot. Here each processor owns a page-aligned deque (one
// page per node, so deques never share a page) guarded by its own stripe
// lock; a processor that finds its own deque empty steals from the tail of
// a deterministically rotating victim's deque under that victim's stripe.
// The initial partition is deliberately uneven (row p's share grows
// linearly with p, tspsRowStart), so low-numbered processors drain early
// and the steal path genuinely runs.
//
// Determinism: a task leaves a deque exactly once — takes and steals both
// move a cursor under the row's stripe lock — and rounds equals the
// largest initial deque, so an owner alone drains its row even if every
// steal misses; every task is therefore expanded exactly once, though by
// a schedule-dependent processor. The checksum covers only "best", and
// the branch-and-bound argument from tsp (strictly positive edges, prune
// only at the bound, lexicographic tie-break) makes the final incumbent
// the unique lex-smallest optimal tour on every backend and at every
// processor count, whatever the steal pattern was. The deque cursors'
// final positions are schedule-dependent and deliberately outside the
// checksum. Virtual time stays symmetric: every round charges the same
// take, expand, and merge budget whether or not work was found.
const tspsSeedCostPerTask = time.Microsecond

// tspsRowStart returns the first task of deque row p under the triangular
// partition: row p's share is proportional to p+1, with cumulative cuts
// tasks*T(p)/T(n) (T(k)=k(k+1)/2) so the rows tile [0, tasks) exactly.
func tspsRowStart(tasks, nprocs, p int) int {
	return tasks * (p * (p + 1) / 2) / (nprocs * (nprocs + 1) / 2)
}

// tspsRowLen returns deque row p's initial task count.
func tspsRowLen(tasks, nprocs, p int) int {
	return tspsRowStart(tasks, nprocs, p+1) - tspsRowStart(tasks, nprocs, p)
}

// tspsRounds is the round count: the largest initial deque, so owners
// alone guarantee every task is taken (see the type comment above).
func tspsRounds(tasks, nprocs int) int {
	max := 1
	for p := 0; p < nprocs; p++ {
		if l := tspsRowLen(tasks, nprocs, p); l > max {
			max = l
		}
	}
	return max
}

// TSPS builds the sharded-queue variant of tsp. Like tsp it has no
// message-passing twin and defeats every static optimization; it exists
// for the scaling experiments, where the single-queue tsp stops being a
// meaningful workload.
func TSPS() *App {
	return &App{
		Name:  "tsps",
		Build: tspsProg,
		Sets: map[DataSet]rsd.Env{
			Large: {"cities": 12},
			Small: {"cities": 10},
		},
		CheckArray:      "best",
		WSyncApplicable: false,
		WSyncProfitable: false,
		PushApplicable:  false, // locks in the cycle, data-dependent control
		XHPF:            false, // run-time work distribution
	}
}

func tspsProg(nprocs int) *ir.Program {
	prog := &ir.Program{
		Name: "tsps",
		Arrays: []ir.ArrayDecl{
			// One page per deque row: word 0 the head cursor, word 1 the
			// tail cursor (0-based slot indices), slots from word 2. Rows
			// are page-aligned (layout arrays always are), so two deques
			// never share a page.
			{Name: "deq", Dims: []rsd.Lin{c(shm.PageWords), c(nprocs)}},
			{Name: "best", Dims: []rsd.Lin{v("cities").Plus(1)}},
		},
		Params: []rsd.Sym{"cities"},
		Derived: []ir.DerivedParam{
			{Name: "tasks", Fn: func(e rsd.Env) int { return (e["cities"] - 1) * (e["cities"] - 2) }},
			{Name: "rounds", Fn: func(e rsd.Env) int {
				return tspsRounds((e["cities"]-1)*(e["cities"]-2), e["nprocs"])
			}},
		},
	}

	prog.Local = newTSPLocal

	wholeDeq := rsd.Section{Array: "deq", Dims: []rsd.Bound{
		rsd.Dense(c(1), c(shm.PageWords)),
		rsd.Dense(c(1), c(nprocs)),
	}}

	seedKernel := ir.Kernel{
		Name: "seed",
		Accesses: []ir.TaggedSection{{
			Sec:   wholeDeq,
			Tag:   rsd.Write,
			Exact: false, // runs under a data-dependent If (p == 0)
		}},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			n, tasks := e["nprocs"], e["tasks"]
			deq := ctx.Array("deq")
			lo := deq.Index(1, 1)
			hi := deq.Index(shm.PageWords, n) + 1
			data := ctx.WriteRegion(lo, hi)
			for row := 0; row < n; row++ {
				start, cnt := tspsRowStart(tasks, n, row), tspsRowLen(tasks, n, row)
				base := deq.Index(1, row+1)
				data[base] = 0              // head
				data[base+1] = float64(cnt) // tail
				for i := 0; i < cnt; i++ {
					data[base+2+i] = float64(start + i)
				}
			}
			ctx.Charge(time.Duration(tasks) * tspsSeedCostPerTask)
		},
	}

	takeKernel := ir.Kernel{
		Name: "take",
		Accesses: []ir.TaggedSection{{
			Sec: rsd.Section{Array: "deq", Dims: []rsd.Bound{
				rsd.Dense(c(1), c(shm.PageWords)),
				rsd.Dense(v("p").Plus(1), v("p").Plus(1)),
			}},
			Tag:   rsd.Read | rsd.Write,
			Exact: false, // guarded by the row's stripe lock
		}},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			base := ctx.Array("deq").Index(1, e["p"]+1)
			data := ctx.ReadRegion(base, base+shm.PageWords)
			head, tail := int(data[base]), int(data[base+1])
			e["mytask"], e["got"] = 0, 0
			if head < tail {
				e["mytask"] = int(data[base+2+head])
				e["got"] = 1
				w := ctx.WriteRegion(base, base+1)
				w[base] = float64(head + 1)
			}
			ctx.Charge(tspTakeCost)
		},
	}

	stealKernel := ir.Kernel{
		Name: "steal",
		Accesses: []ir.TaggedSection{{
			Sec: rsd.Section{Array: "deq", Dims: []rsd.Bound{
				rsd.Dense(c(1), c(shm.PageWords)),
				rsd.Dense(v("victim").Plus(1), v("victim").Plus(1)),
			}},
			Tag:   rsd.Read | rsd.Write,
			Exact: false, // guarded by the victim's stripe lock
		}},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			base := ctx.Array("deq").Index(1, e["victim"]+1)
			data := ctx.ReadRegion(base, base+shm.PageWords)
			head, tail := int(data[base]), int(data[base+1])
			if head < tail {
				e["mytask"] = int(data[base+2+tail-1])
				e["got"] = 1
				w := ctx.WriteRegion(base+1, base+2)
				w[base+1] = float64(tail - 1)
			}
			ctx.Charge(tspTakeCost)
		},
	}

	expandKernel := ir.Kernel{
		Name: "expand",
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			cities := e["cities"]
			l := ctx.Local().(*tspLocal)
			l.candCost, l.candTour = 0, nil
			if e["got"] == 1 {
				second, third := tspTask(e["mytask"], cities)
				l.candCost, l.candTour = tspExpand(cities, second, third, l.view)
			}
			ctx.Charge(time.Duration(cities) * tspExpandCost)
		},
	}

	// Lock map: 1 guards "best"; 2+row is row's deque stripe. The steal
	// victim rotates deterministically through the other rows, so over
	// successive empty rounds a processor probes the whole machine.
	prog.Body = []ir.Stmt{
		ir.If{
			Cond: func(e rsd.Env) bool { return e["p"] == 0 },
			Then: []ir.Stmt{seedKernel},
		},
		ir.Barrier{ID: 0},
		ir.Loop{Var: "r", Lo: c(1), Hi: v("rounds"), Body: []ir.Stmt{
			ir.LockAcquire{ID: v("p").Plus(2)},
			takeKernel,
			ir.LockRelease{ID: v("p").Plus(2)},
			ir.Compute{Sym: "victim", Fn: func(e rsd.Env) int {
				n := e["nprocs"]
				if n == 1 {
					return 0
				}
				return (e["p"] + 1 + (e["r"]-1)%(n-1)) % n
			}},
			ir.If{
				Cond: func(e rsd.Env) bool { return e["got"] == 0 && e["nprocs"] > 1 },
				Then: []ir.Stmt{
					ir.LockAcquire{ID: v("victim").Plus(2)},
					stealKernel,
					ir.LockRelease{ID: v("victim").Plus(2)},
				},
			},
			expandKernel,
			ir.LockAcquire{ID: c(1)},
			tspMergeKernel(),
			ir.LockRelease{ID: c(1)},
		}},
		ir.Barrier{ID: 1},
	}
	return prog
}
