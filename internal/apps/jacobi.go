package apps

import (
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/mp"
	"sdsm/internal/rsd"
)

// Per-element compute costs calibrated against Table 1: at 4096² and 100
// iterations, (m-2)²·stencil + m(m-2)·copy per iteration gives 288 s
// (paper: 288.3 s); at 1024² it gives 18.0 s (paper: 17.7 s).
const (
	jacStencilCost = 120 * time.Nanosecond
	jacCopyCost    = 52 * time.Nanosecond
)

// jacInit is the shared deterministic initializer for b. As in the paper,
// the internal elements are initially zero and only the domain boundary
// carries values, which keeps base TreadMarks diffs small relative to the
// page size (the source of the "data increases under WRITE_ALL" effect in
// Table 2).
func jacInit(i, j, m int) float64 {
	if i == 1 || i == m || j == 1 || j == m {
		return float64((i*31+j*17)%97) / 97
	}
	return 0
}

// Jacobi builds the paper's Figure 1 program: nearest-neighbour averaging
// over a shared array b, columns block-partitioned, two barriers per
// iteration. The compiler transforms it into Figure 2: a WRITE_ALL
// Validate for the copy phase and a Push replacing Barrier 2.
func Jacobi() *App {
	return &App{
		Name:  "jacobi",
		Build: func(int) *ir.Program { return jacobiProg() },
		Sets: map[DataSet]rsd.Env{
			Large: {"m": 512, "iters": 24, "cscale": 8},
			Small: {"m": 256, "iters": 24, "cscale": 4},
			// The boundary set: m = 264 makes each 8-processor block 33
			// columns of 264 words — 8712 words, 17.02 pages — so every
			// block boundary lands mid-page and the boundary page has two
			// writers with disjoint sub-page extents, each reading the
			// other's half (its halo column). The paper sets are page-
			// aligned (m = 256: two columns per 512-word page; m = 512: one)
			// and never exhibit this; the adaptive experiments (Table A) use
			// it to measure the sub-page split bindings against the fault
			// loop whole-page adaptation cannot break.
			Bound: {"m": 264, "iters": 24, "cscale": 4},
		},
		// The paper's sizes: large m=4096 iters=100, small m=1024 iters=100.
		CheckArray:      "b",
		WSyncApplicable: true,
		WSyncProfitable: false, // "no gain from merging data with synchronization"
		PushApplicable:  true,
		PushProfitable:  true, // gains for the small set (barrier cost proportionally higher)
		XHPF:            true,
		XHPFOverhead:    200 * time.Microsecond,
		MP:              jacobiMP,
	}
}

// jacobiProg builds the Figure 1 program.
func jacobiProg() *ir.Program {
	m := v("m")
	// Interior columns 2..m-1 are block-partitioned as begin..end; the
	// full range 1..m (for initialization) as ibegin..iend.
	prog := &ir.Program{
		Name: "jacobi",
		Arrays: []ir.ArrayDecl{
			{Name: "a", Dims: []rsd.Lin{m, m}},
			{Name: "b", Dims: []rsd.Lin{m, m}},
		},
		Params: []rsd.Sym{"m", "iters"},
		Derived: []ir.DerivedParam{
			// Interior work range: the owned full-partition columns clamped
			// to 2..m-1, so the work and ownership partitions agree.
			{Name: "begin", Fn: func(e rsd.Env) int { return max(2, blockLow(e["m"], e["p"], e["nprocs"])) }},
			{Name: "end", Fn: func(e rsd.Env) int { return min(e["m"]-1, blockHigh(e["m"], e["p"], e["nprocs"])) }},
			{Name: "ibegin", Fn: func(e rsd.Env) int { return blockLow(e["m"], e["p"], e["nprocs"]) }},
			{Name: "iend", Fn: func(e rsd.Env) int { return blockHigh(e["m"], e["p"], e["nprocs"]) }},
		},
	}

	initKernel := ir.Kernel{
		Name: "init-b",
		Accesses: []ir.TaggedSection{{
			Sec: rsd.Section{Array: "b", Dims: []rsd.Bound{
				rsd.Dense(c(1), m),
				rsd.Dense(v("ibegin"), v("iend")),
			}},
			Tag:   rsd.Write | rsd.WriteFirst,
			Exact: true,
		}},
		Run: func(ctx ir.KernelCtx) {
			env := ctx.Env()
			mm, lo, hi := env["m"], env["ibegin"], env["iend"]
			b := ctx.Array("b")
			data := ctx.WriteRegion(b.Index(1, lo), b.Index(mm, hi)+1)
			for j := lo; j <= hi; j++ {
				for i := 1; i <= mm; i++ {
					data[b.Index(i, j)] = jacInit(i, j, mm)
				}
			}
			ctx.Charge(time.Duration(mm*(hi-lo+1)) * jacCopyCost)
		},
	}

	avg4 := func(d []float64, s [][]float64) {
		up, down, left, right := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)], s[3][:len(d)]
		for t := range d {
			d[t] = 0.25 * (up[t] + down[t] + left[t] + right[t])
		}
	}

	i, j := v("i"), v("j")
	stencil := ir.Loop{Var: "j", Lo: v("begin"), Hi: v("end"), Body: []ir.Stmt{
		ir.Loop{Var: "i", Lo: c(2), Hi: m.Plus(-1), Body: []ir.Stmt{
			ir.Assign{
				LHS: ir.At("a", i, j),
				RHS: []ir.Ref{
					ir.At("b", i.Plus(-1), j),
					ir.At("b", i.Plus(1), j),
					ir.At("b", i, j.Plus(-1)),
					ir.At("b", i, j.Plus(1)),
				},
				Fn:   avg4,
				Cost: jacStencilCost,
			},
		}},
	}}
	copyBack := ir.Loop{Var: "j", Lo: v("begin"), Hi: v("end"), Body: []ir.Stmt{
		ir.Loop{Var: "i", Lo: c(1), Hi: m, Body: []ir.Stmt{
			ir.Assign{
				LHS:  ir.At("b", i, j),
				RHS:  []ir.Ref{ir.At("a", i, j)},
				Fn:   copySpan,
				Cost: jacCopyCost,
			},
		}},
	}}

	prog.Body = []ir.Stmt{
		initKernel,
		ir.Barrier{ID: 0},
		ir.Loop{Var: "k", Lo: c(1), Hi: v("iters"), Body: []ir.Stmt{
			stencil,
			ir.Barrier{ID: 1},
			copyBack,
			ir.Barrier{ID: 2},
		}},
	}
	return prog
}

// jacobiMP is the hand-coded message-passing Jacobi: two messages per
// processor per iteration carrying boundary columns, as the paper's
// Section 2 describes.
func jacobiMP(r *mp.Rank, params rsd.Env, perIter time.Duration, verify bool) float64 {
	m, iters := params["m"], params["iters"]
	ibegin := blockLow(m, r.ID, r.N)
	iend := blockHigh(m, r.ID, r.N)
	begin := max(2, ibegin)
	end := min(m-1, iend)

	// Local storage: columns ibegin-1 .. iend+1 (ghosts).
	lo := ibegin - 1
	if lo < 1 {
		lo = 1
	}
	hi := iend + 1
	if hi > m {
		hi = m
	}
	cols := hi - lo + 1
	col := func(j int) int { return (j - lo) * m }
	b := make([]float64, cols*m)
	a := make([]float64, cols*m)
	for j := ibegin; j <= iend; j++ {
		for i := 1; i <= m; i++ {
			b[col(j)+i-1] = jacInit(i, j, m)
		}
	}
	r.Advance(time.Duration(m*(iend-ibegin+1)) * jacCopyCost)

	exchange := func() {
		if r.ID > 0 {
			r.Send(r.ID-1, b[col(ibegin):col(ibegin)+m])
		}
		if r.ID < r.N-1 {
			r.Send(r.ID+1, b[col(iend):col(iend)+m])
		}
		if r.ID > 0 {
			copy(b[col(ibegin-1):col(ibegin-1)+m], r.Recv(r.ID-1))
		}
		if r.ID < r.N-1 {
			copy(b[col(iend+1):col(iend+1)+m], r.Recv(r.ID+1))
		}
	}
	exchange() // initial ghost fill

	for it := 0; it < iters; it++ {
		if perIter > 0 {
			r.AdvanceFixed(perIter)
		}
		for j := begin; j <= end; j++ {
			bj, bl, br := b[col(j):], b[col(j-1):], b[col(j+1):]
			aj := a[col(j):]
			for i := 2; i <= m-1; i++ {
				aj[i-1] = 0.25 * (bj[i-2] + bj[i] + bl[i-1] + br[i-1])
			}
		}
		r.Advance(time.Duration((end-begin+1)*(m-2)) * jacStencilCost)
		for j := begin; j <= end; j++ {
			copy(b[col(j):col(j)+m], a[col(j):col(j)+m])
		}
		r.Advance(time.Duration((end-begin+1)*m) * jacCopyCost)
		exchange()
	}

	if !verify {
		return 0
	}
	// Weighted checksum of the owned part of b against the shared layout
	// offsets: array b starts at word 0 of its own base; the harness
	// compares against Checksum over the sequential image.
	sum := 0.0
	for j := ibegin; j <= iend; j++ {
		sum += ChecksumSlice(b[col(j):col(j)+m], (j-1)*m)
	}
	return gatherSum(r, sum)
}
