package apps

import (
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/rsd"
)

// TSP is the lock-dominated member of the suite: a branch-and-bound
// search for the cheapest asymmetric travelling-salesman tour, driven by
// a shared work queue and a shared incumbent ("best tour") that both live
// under locks. It is the migratory-data shape the paper's compiler
// abandons entirely — the critical sections are guarded by locks whose
// last holder no compiler can know, the work distribution is decided at
// run time by the queue, and the pruning condition is data-dependent — so
// neither Push, Validate_w_sync placement, nor XHPF apply. The *run-time*
// lock pattern is nevertheless stable: every round each processor takes
// one task (queue lock) and merges one candidate (best lock), so both
// locks migrate around the same rotation with the same one-page working
// set per hand-off — exactly what the lock-scope adaptive detector
// (internal/adapt) learns and converts into grant-piggybacked diffs.
//
// Determinism: the final incumbent is schedule-independent by the classic
// branch-and-bound invariant — a partial tour is pruned only when its
// cost already reaches the current bound, and edge costs are strictly
// positive, so every tour of optimal cost is fully enumerated no matter
// how stale the bound was; ties are broken lexicographically, making the
// final (cost, tour) the unique lex-smallest optimum on every backend and
// at every processor count. The virtual-time model charges a fixed
// per-round expansion budget (the pruning's wall-clock savings are real
// but schedule-dependent, which a deterministic platform model must not
// observe), keeping the rounds symmetric across processors.
const (
	tspTakeCost   = 2 * time.Microsecond
	tspMergeCost  = 4 * time.Microsecond
	tspExpandCost = 20 * time.Microsecond // per city, per round
)

// tspDist is the deterministic strictly-positive cost of travelling i→j
// (asymmetric), in [1, 64].
func tspDist(i, j, n int) int {
	x := uint64(i*n+j)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	x ^= x >> 29
	x *= 0x94D049BB133111EB
	x ^= x >> 32
	return 1 + int(x%64)
}

// tspTask decodes work item t into the fixed second and third tour cities
// (the first is always city 0); the task space enumerates all
// (second, third) pairs, (cities-1)*(cities-2) subtrees in total.
func tspTask(t, cities int) (second, third int) {
	second = 1 + t/(cities-2)
	r := t % (cities - 2)
	third = 1 + r
	if third >= second {
		third++
	}
	return second, third
}

// tspLexLess compares two complete tours lexicographically.
func tspLexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// tspLocal is one processor's private state, carried between the kernels
// of a round and from round to round (ir.Program.Local): its candidate
// tour (cost 0 = none) and the incumbent cost it saw at its last merge,
// the bound of its next expansion (0 = none).
type tspLocal struct {
	candCost int
	candTour []int
	view     int
}

func newTSPLocal(any) any { return new(tspLocal) }

// tspMergeKernel is the incumbent update both TSP programs run under the
// lock guarding "best": the processor's candidate replaces the shared
// incumbent when it is cheaper, or equally cheap and lexicographically
// smaller — the tie-break that makes the result independent of merge
// order — and its view records the incumbent cost it saw, the bound of its
// next expansion.
func tspMergeKernel() ir.Kernel {
	return ir.Kernel{
		Name: "merge",
		Accesses: []ir.TaggedSection{{
			Sec:   rsd.Section{Array: "best", Dims: []rsd.Bound{rsd.Dense(rsd.Const(1), rsd.Var("cities").Plus(1))}},
			Tag:   rsd.Read | rsd.Write,
			Exact: false,
		}},
		Run: func(ctx ir.KernelCtx) {
			cities := ctx.Env()["cities"]
			l := ctx.Local().(*tspLocal)
			base := ctx.Array("best").Index(1)
			data := ctx.ReadRegion(base, base+1+cities)
			data = ctx.WriteRegion(base, base+1+cities)
			cur := int(data[base])
			better := l.candCost != 0 && (cur == 0 || l.candCost < cur)
			if !better && l.candCost != 0 && l.candCost == cur {
				curTour := make([]int, cities)
				for i := range curTour {
					curTour[i] = int(data[base+1+i])
				}
				better = tspLexLess(l.candTour, curTour)
			}
			if better {
				data[base] = float64(l.candCost)
				for i, city := range l.candTour {
					data[base+1+i] = float64(city)
				}
				cur = l.candCost
			}
			l.view = cur
			ctx.Charge(tspMergeCost)
		},
	}
}

// tspExpand explores one task's subtree by depth-first search with
// bound pruning and returns the best complete tour found (cost 0 when the
// whole subtree pruned). bound 0 means unbounded; pruning keeps any tour
// whose total cost could still equal the bound (strictly positive edges
// make partial >= bound a safe cut), so equal-cost optima survive for the
// lexicographic tie-break.
func tspExpand(cities, second, third, bound int) (int, []int) {
	tour := make([]int, cities)
	tour[0], tour[1], tour[2] = 0, second, third
	visited := make([]bool, cities)
	visited[0], visited[second], visited[third] = true, true, true
	partial := tspDist(0, second, cities) + tspDist(second, third, cities)
	bestCost := 0
	var bestTour []int
	limit := func() int {
		if bestCost != 0 && (bound == 0 || bestCost < bound) {
			return bestCost
		}
		return bound
	}
	var dfs func(depth, cost int)
	dfs = func(depth, cost int) {
		if l := limit(); l != 0 && cost >= l {
			return
		}
		if depth == cities {
			total := cost + tspDist(tour[cities-1], 0, cities)
			if l := limit(); l != 0 && total > l {
				return
			}
			if bestCost == 0 || total < bestCost ||
				(total == bestCost && tspLexLess(tour, bestTour)) {
				bestCost = total
				bestTour = append(bestTour[:0], tour...)
			}
			return
		}
		for c := 1; c < cities; c++ {
			if visited[c] {
				continue
			}
			visited[c] = true
			tour[depth] = c
			dfs(depth+1, cost+tspDist(tour[depth-1], c, cities))
			visited[c] = false
		}
	}
	dfs(3, partial)
	return bestCost, bestTour
}

// TSP builds the branch-and-bound application. Like spmv it has no
// message-passing twin (MP is nil): its entire point is the dynamic,
// lock-mediated sharing no static analysis or hand partitioning captures.
func TSP() *App {
	return &App{
		Name:  "tsp",
		Build: tspProg,
		Sets: map[DataSet]rsd.Env{
			Large: {"cities": 11},
			Small: {"cities": 9},
		},
		CheckArray:      "best",
		WSyncApplicable: false,
		WSyncProfitable: false,
		PushApplicable:  false, // locks in the cycle, data-dependent control
		XHPF:            false, // run-time work distribution
	}
}

func tspProg(nprocs int) *ir.Program {
	prog := &ir.Program{
		Name: "tsp",
		Arrays: []ir.ArrayDecl{
			{Name: "queue", Dims: []rsd.Lin{c(1)}},
			{Name: "best", Dims: []rsd.Lin{v("cities").Plus(1)}},
		},
		Params: []rsd.Sym{"cities"},
		Derived: []ir.DerivedParam{
			{Name: "tasks", Fn: func(e rsd.Env) int { return (e["cities"] - 1) * (e["cities"] - 2) }},
			{Name: "rounds", Fn: func(e rsd.Env) int {
				tasks := (e["cities"] - 1) * (e["cities"] - 2)
				return (tasks + e["nprocs"] - 1) / e["nprocs"]
			}},
		},
	}

	prog.Local = newTSPLocal

	takeKernel := ir.Kernel{
		Name: "take",
		Accesses: []ir.TaggedSection{{
			Sec:   rsd.Section{Array: "queue", Dims: []rsd.Bound{rsd.Dense(c(1), c(1))}},
			Tag:   rsd.Read | rsd.Write,
			Exact: false, // guarded by a lock: the compiler cannot place data
		}},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			q := ctx.Array("queue").Index(1)
			data := ctx.ReadRegion(q, q+1)
			data = ctx.WriteRegion(q, q+1)
			t := int(data[q])
			data[q] = float64(t + 1)
			e["mytask"] = t
			ctx.Charge(tspTakeCost)
		},
	}

	expandKernel := ir.Kernel{
		Name: "expand",
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			cities, tasks, t := e["cities"], e["tasks"], e["mytask"]
			l := ctx.Local().(*tspLocal)
			l.candCost, l.candTour = 0, nil
			if t < tasks {
				second, third := tspTask(t, cities)
				l.candCost, l.candTour = tspExpand(cities, second, third, l.view)
			}
			ctx.Charge(time.Duration(cities) * tspExpandCost)
		},
	}

	prog.Body = []ir.Stmt{
		ir.Barrier{ID: 0},
		ir.Loop{Var: "r", Lo: c(1), Hi: v("rounds"), Body: []ir.Stmt{
			ir.LockAcquire{ID: c(0)},
			takeKernel,
			ir.LockRelease{ID: c(0)},
			expandKernel,
			ir.LockAcquire{ID: c(1)},
			tspMergeKernel(),
			ir.LockRelease{ID: c(1)},
		}},
		ir.Barrier{ID: 1},
	}
	return prog
}
