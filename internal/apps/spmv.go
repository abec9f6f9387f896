package apps

import (
	"sort"
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
)

// SpMV is the deliberately irregular member of the suite: a sparse
// neighbor relaxation whose access pattern is data-dependent (hash-derived
// neighbor indices), so the compiler's regular-section analysis cannot
// summarize the reads — the case the paper's pipeline abandons to plain
// invalidate TreadMarks. The *run-time* pattern is nevertheless perfectly
// stable: the neighbor graph is fixed, so every iteration each processor
// faults on the same remote pages of val, written by the same owners —
// exactly what the adaptive update protocol (internal/adapt) learns and
// converts to barrier-departure pushes.
//
// Structure per iteration: a relax kernel reads val at the 4 hash-derived
// neighbors of every owned element and writes nval over the owned block; a
// barrier; a copy kernel folds nval back into val with a positional
// forcing term (keeping the values from diffusing to a constant); a
// barrier. val's pages thus alternate a read phase and a write phase — the
// alternation the detector's production-cycle tracking is built for.
const (
	spmvRelaxCost = 180 * time.Nanosecond
	spmvCopyCost  = 60 * time.Nanosecond
)

// spmvNbr returns the j-th neighbor (0..3) of 0-based element g in a ring
// of n elements: the two adjacent elements plus two hash-derived jumps of
// up to one and two pages. Deterministic and fixed across iterations; no
// affine summary exists.
func spmvNbr(g, j, n int) int {
	switch j {
	case 0:
		return (g - 1 + n) % n
	case 1:
		return (g + 1) % n
	}
	x := uint64(g)*0x9E3779B97F4A7C15 + uint64(j)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	x *= 0x94D049BB133111EB
	x ^= x >> 32
	reach := shm.PageWords // ±1 page
	if j == 3 {
		reach = 2 * shm.PageWords // ±2 pages
	}
	d := int(x%uint64(2*reach)) - reach
	return ((g+d)%n + n) % n
}

// spmvInit seeds element g with a varied deterministic value.
func spmvInit(g int) float64 { return float64((g*131+17)%251) / 251 }

// spmvForce is the positional forcing folded in by the copy phase.
func spmvForce(g int) float64 { return float64((g*37+5)%101) / 101 }

// SpMV builds the irregular-neighbor relaxation application. It has no
// message-passing twin (MP is nil): the point of the app is precisely the
// access pattern no compiler — including the hand-parallelizer — can
// enumerate cheaply, so it runs on the DSM systems only.
func SpMV() *App {
	return &App{
		Name:  "spmv",
		Build: spmvProg,
		Sets: map[DataSet]rsd.Env{
			Large: {"n": 32768, "iters": 20, "cscale": 8},
			Small: {"n": 8192, "iters": 20, "cscale": 4},
		},
		CheckArray:      "val",
		WSyncApplicable: false,
		WSyncProfitable: false,
		PushApplicable:  false, // no static section to exchange
		XHPF:            false, // data-dependent neighbor indices
	}
}

func spmvProg(nprocs int) *ir.Program {
	prog := &ir.Program{
		Name: "spmv",
		Arrays: []ir.ArrayDecl{
			{Name: "val", Dims: []rsd.Lin{v("n")}},
			{Name: "nval", Dims: []rsd.Lin{v("n")}},
		},
		Params: []rsd.Sym{"n", "iters"},
		Derived: []ir.DerivedParam{
			{Name: "lo", Fn: func(e rsd.Env) int { return blockLow(e["n"], e["p"], e["nprocs"]) }},
			{Name: "hi", Fn: func(e rsd.Env) int { return blockHigh(e["n"], e["p"], e["nprocs"]) }},
		},
	}

	initKernel := ir.Kernel{
		Name: "init-val",
		Accesses: []ir.TaggedSection{{
			Sec: rsd.Section{Array: "val", Dims: []rsd.Bound{
				rsd.Dense(v("lo"), v("hi")),
			}},
			Tag:   rsd.Write | rsd.WriteFirst,
			Exact: true,
		}},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			lo, hi := e["lo"], e["hi"]
			base := ctx.Array("val").Index(1)
			data := ctx.WriteRegion(base+lo-1, base+hi)
			for g := lo - 1; g <= hi-1; g++ {
				data[base+g] = spmvInit(g)
			}
			ctx.Charge(time.Duration(hi-lo+1) * spmvCopyCost)
		},
	}

	relaxKernel := ir.Kernel{
		Name: "relax",
		Accesses: []ir.TaggedSection{
			{
				// The neighbor reads are data-dependent; the honest summary
				// is "anywhere in val", inexact — which is what blocks every
				// compile-time optimization for this loop.
				Sec:   rsd.Section{Array: "val", Dims: []rsd.Bound{rsd.Dense(c(1), v("n"))}},
				Tag:   rsd.Read,
				Exact: false,
			},
			{
				Sec: rsd.Section{Array: "nval", Dims: []rsd.Bound{
					rsd.Dense(v("lo"), v("hi")),
				}},
				Tag:   rsd.Write | rsd.WriteFirst,
				Exact: true,
			},
		},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			n, lo, hi := e["n"], e["lo"], e["hi"]
			vbase := ctx.Array("val").Index(1)
			// Establish read access over exactly the pages the owned
			// elements' neighbors touch, one Ensure per contiguous page run
			// (the irregular analogue of a regular app's section validate).
			touched := map[int]bool{}
			for g := lo - 1; g <= hi-1; g++ {
				for j := 0; j < 4; j++ {
					touched[(vbase+spmvNbr(g, j, n))/shm.PageWords] = true
				}
			}
			var data []float64
			for _, run := range pageRuns(touched) {
				rlo := max(run[0]*shm.PageWords, vbase)
				rhi := min(run[1]*shm.PageWords, vbase+n)
				data = ctx.ReadRegion(rlo, rhi)
			}
			wbase := ctx.Array("nval").Index(1)
			out := ctx.WriteRegion(wbase+lo-1, wbase+hi)
			for g := lo - 1; g <= hi-1; g++ {
				s := 0.0
				for j := 0; j < 4; j++ {
					s += data[vbase+spmvNbr(g, j, n)]
				}
				out[wbase+g] = 0.25 * s
			}
			ctx.Charge(time.Duration(hi-lo+1) * spmvRelaxCost)
		},
	}

	copyKernel := ir.Kernel{
		Name: "fold",
		Accesses: []ir.TaggedSection{
			{
				Sec:   rsd.Section{Array: "nval", Dims: []rsd.Bound{rsd.Dense(v("lo"), v("hi"))}},
				Tag:   rsd.Read,
				Exact: true,
			},
			{
				Sec: rsd.Section{Array: "val", Dims: []rsd.Bound{
					rsd.Dense(v("lo"), v("hi")),
				}},
				Tag:   rsd.Write | rsd.WriteFirst,
				Exact: true,
			},
		},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			lo, hi := e["lo"], e["hi"]
			nbase := ctx.Array("nval").Index(1)
			vbase := ctx.Array("val").Index(1)
			in := ctx.ReadRegion(nbase+lo-1, nbase+hi)
			out := ctx.WriteRegion(vbase+lo-1, vbase+hi)
			for g := lo - 1; g <= hi-1; g++ {
				out[vbase+g] = 0.3*spmvForce(g) + 0.7*in[nbase+g]
			}
			ctx.Charge(time.Duration(hi-lo+1) * spmvCopyCost)
		},
	}

	prog.Body = []ir.Stmt{
		initKernel,
		ir.Barrier{ID: 0},
		ir.Loop{Var: "it", Lo: c(1), Hi: v("iters"), Body: []ir.Stmt{
			relaxKernel,
			ir.Barrier{ID: 1},
			copyKernel,
			ir.Barrier{ID: 2},
		}},
	}
	return prog
}

// pageRuns converts a touched-page set into sorted [first, last+1) page
// runs.
func pageRuns(pages map[int]bool) [][2]int {
	ps := make([]int, 0, len(pages))
	for pg := range pages {
		ps = append(ps, pg)
	}
	if len(ps) == 0 {
		return nil
	}
	sort.Ints(ps)
	var out [][2]int
	start, prev := ps[0], ps[0]
	for _, pg := range ps[1:] {
		if pg != prev+1 {
			out = append(out, [2]int{start, prev + 1})
			start = pg
		}
		prev = pg
	}
	return append(out, [2]int{start, prev + 1})
}
