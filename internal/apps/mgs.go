package apps

import (
	"math"
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/mp"
	"sdsm/internal/rsd"
)

// Cost calibrated against Table 1: MGS 2048 vectors of dimension 2048 at
// ~nvec²/2·m element operations (dot + axpy each count one op per
// element) gives 449 s with 52 ns/op (paper: 449.3 s); the 1024 set gives
// 56 s (paper: 56.4 s).
const mgsOpCost = 52 * time.Nanosecond

func mgsInit(i, j int) float64 { return 1 + float64((i*13+j*29)%61)/61 }

// MGS builds Modified Gram-Schmidt: vectors are the columns of V,
// distributed cyclically. At step i the owner normalizes vector i; after
// a barrier every processor orthogonalizes its own vectors j > i against
// it. Like Gauss, the owner conditional blocks Push, the broadcast at the
// barrier makes sync+data merging profitable, and the cyclic (strided)
// sections cost extra at run time — all three paper observations.
func MGS() *App {
	return &App{
		Name:  "mgs",
		Build: mgsProg,
		Sets: map[DataSet]rsd.Env{
			Large: {"m": 512, "nvec": 192, "mpad": 512, "cscale": 11},
			Small: {"m": 512, "nvec": 96, "mpad": 512, "cscale": 11},
		},
		// The paper's sizes: large m=2048 nvec=2048 mpad=2048, small m=1024 nvec=1024 mpad=1024.
		CheckArray:      "V",
		WSyncApplicable: true,
		WSyncProfitable: true, // broadcast of the normalized vector
		PushApplicable:  false,
		XHPF:            true,
		XHPFOverhead:    150 * time.Microsecond,
		MP:              mgsMP,
	}
}

func mgsProg(nprocs int) *ir.Program {
	m, nvec, mpad := v("m"), v("nvec"), v("mpad")

	prog := &ir.Program{
		Name: "mgs",
		Arrays: []ir.ArrayDecl{
			{Name: "V", Dims: []rsd.Lin{mpad, nvec}},
		},
		Params: []rsd.Sym{"m", "nvec", "mpad"},
	}

	owner := func(e rsd.Env) bool { return (e["i"]-1)%e["nprocs"] == e["p"] }

	colSec := func(lo, hi rsd.Lin, stride int) rsd.Section {
		return rsd.Section{Array: "V", Dims: []rsd.Bound{
			rsd.Dense(c(1), m),
			{Lo: lo, Hi: hi, Stride: stride},
		}}
	}

	initKernel := ir.Kernel{
		Name: "init-V",
		Accesses: []ir.TaggedSection{{
			Sec:   colSec(v("p").Plus(1), nvec, nprocs),
			Tag:   rsd.Write | rsd.WriteFirst,
			Exact: true,
		}},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			mm, nv, n, p := e["m"], e["nvec"], e["nprocs"], e["p"]
			vv := ctx.Array("V")
			for j := p + 1; j <= nv; j += n {
				data := ctx.WriteRegion(vv.Index(1, j), vv.Index(mm, j)+1)
				for i := 1; i <= mm; i++ {
					data[vv.Index(i, j)] = mgsInit(i, j)
				}
			}
			ctx.Charge(time.Duration(mm*(nv/n+1)) * (10 * time.Nanosecond))
		},
	}

	normalize := ir.If{
		Cond: owner,
		Then: []ir.Stmt{
			ir.Kernel{
				Name: "normalize",
				Accesses: []ir.TaggedSection{{
					Sec:   colSec(v("i"), v("i"), 1),
					Tag:   rsd.Read | rsd.Write,
					Exact: true,
				}},
				Run: func(ctx ir.KernelCtx) {
					e := ctx.Env()
					mm, i := e["m"], e["i"]
					lo := ctx.Array("V").Index(1, i)
					data := ctx.ReadRegion(lo, lo+mm)
					data = ctx.WriteRegion(lo, lo+mm)
					norm := 0.0
					for t := lo; t < lo+mm; t++ {
						norm += data[t] * data[t]
					}
					norm = math.Sqrt(norm)
					for t := lo; t < lo+mm; t++ {
						data[t] /= norm
					}
					ctx.Charge(time.Duration(2*mm) * mgsOpCost)
				},
			},
		},
	}

	orth := ir.Kernel{
		Name: "orthogonalize",
		Accesses: []ir.TaggedSection{
			{Sec: colSec(v("i"), v("i"), 1), Tag: rsd.Read, Exact: true},
			{Sec: colSec(v("jfirst"), nvec, nprocs), Tag: rsd.Read | rsd.Write, Exact: true},
		},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			mm, nv, n, i := e["m"], e["nvec"], e["nprocs"], e["i"]
			jf := e["jfirst"]
			if jf > nv {
				return
			}
			vv := ctx.Array("V")
			vlo := vv.Index(1, i)
			vi := ctx.ReadRegion(vlo, vlo+mm)
			ops := 0
			for j := jf; j <= nv; j += n {
				lo := vv.Index(1, j)
				col := ctx.ReadRegion(lo, lo+mm)
				col = ctx.WriteRegion(lo, lo+mm)
				dot := 0.0
				for t := 0; t < mm; t++ {
					dot += vi[vlo+t] * col[lo+t]
				}
				for t := 0; t < mm; t++ {
					col[lo+t] -= dot * vi[vlo+t]
				}
				ops += 2 * mm
			}
			ctx.Charge(time.Duration(ops) * mgsOpCost)
		},
	}

	prog.Body = []ir.Stmt{
		initKernel,
		ir.Barrier{ID: 0},
		ir.Loop{Var: "i", Lo: c(1), Hi: nvec, Body: []ir.Stmt{
			normalize,
			ir.Compute{Sym: "jfirst", Fn: func(e rsd.Env) int {
				return cyclicFirst(e["i"]+1, e["p"], e["nprocs"])
			}},
			ir.Barrier{ID: 1},
			orth,
		}},
		ir.Barrier{ID: 2},
	}
	return prog
}

// mgsMP is the hand-coded message-passing MGS: the owner normalizes and
// broadcasts vector i; every rank orthogonalizes its own cyclic columns.
func mgsMP(r *mp.Rank, params rsd.Env, perIter time.Duration, verify bool) float64 {
	m, nvec := params["m"], params["nvec"]
	var mine []int
	colOf := map[int]int{}
	for j := r.ID + 1; j <= nvec; j += r.N {
		colOf[j] = len(mine)
		mine = append(mine, j)
	}
	local := make([]float64, len(mine)*m)
	for li, j := range mine {
		for i := 1; i <= m; i++ {
			local[li*m+i-1] = mgsInit(i, j)
		}
	}
	r.Advance(time.Duration(m*len(mine)) * (10 * time.Nanosecond))

	vi := make([]float64, m)
	for i := 1; i <= nvec; i++ {
		if perIter > 0 {
			r.AdvanceFixed(perIter)
		}
		owner := (i - 1) % r.N
		if owner == r.ID {
			col := local[colOf[i]*m : colOf[i]*m+m]
			norm := 0.0
			for t := 0; t < m; t++ {
				norm += col[t] * col[t]
			}
			norm = math.Sqrt(norm)
			for t := 0; t < m; t++ {
				col[t] /= norm
			}
			r.Advance(time.Duration(2*m) * mgsOpCost)
			copy(vi, col)
		}
		got := r.Bcast(owner, vi)
		copy(vi, got)
		ops := 0
		for _, j := range mine {
			if j <= i {
				continue
			}
			col := local[colOf[j]*m : colOf[j]*m+m]
			dot := 0.0
			for t := 0; t < m; t++ {
				dot += vi[t] * col[t]
			}
			for t := 0; t < m; t++ {
				col[t] -= dot * vi[t]
			}
			ops += 2 * m
		}
		r.Advance(time.Duration(ops) * mgsOpCost)
	}

	if !verify {
		return 0
	}
	mpad := params["mpad"]
	sum := 0.0
	for li, j := range mine {
		colVals := make([]float64, mpad)
		copy(colVals, local[li*m:li*m+m])
		sum += ChecksumSlice(colVals, (j-1)*mpad)
	}
	return gatherSum(r, sum)
}
