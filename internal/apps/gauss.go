package apps

import (
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/mp"
	"sdsm/internal/rsd"
)

// Costs roughly calibrated against Table 1 (Gauss 1024²: 271.5 s at
// m³/3 ≈ 0.36 G updates gives ~760 ns/update; the 2048² point in the
// paper is super-linear, presumably cache effects our linear model does
// not capture — see EXPERIMENTS.md).
const (
	gaussElimCost = 900 * time.Nanosecond
	gaussNormCost = 300 * time.Nanosecond
)

// gaussInit produces a diagonally dominant matrix so elimination without
// actual pivot swaps stays stable.
func gaussInit(i, j, m int) float64 {
	if i == j {
		return float64(m)
	}
	return float64((i*7+j*13)%23) / 23
}

// Gauss builds Gaussian elimination with columns distributed cyclically.
// At iteration k the owner of column k normalizes the multipliers below
// the diagonal and, logically, broadcasts them: all processors read the
// pivot column after the barrier. The owner-test conditional is opaque to
// the compiler, which (as in the paper) blocks Push but leaves the pivot
// column read analyzable — the case where merging data with
// synchronization pays off via broadcast.
func Gauss() *App {
	return &App{
		Name:  "gauss",
		Build: gaussProg,
		Sets:  map[DataSet]rsd.Env{Large: {"m": 384, "mpad": 512, "cscale": 5}, Small: {"m": 256, "mpad": 512, "cscale": 4}},
		// The paper's sizes: large m=2048 mpad=2048, small m=1024 mpad=1024.
		CheckArray:      "A",
		WSyncApplicable: true,
		WSyncProfitable: true, // broadcast of the pivot column at the barrier
		PushApplicable:  false,
		XHPF:            true,
		XHPFOverhead:    150 * time.Microsecond,
		MP:              gaussMP,
	}
}

// gaussProg builds the cyclic-column elimination program for n processors.
func gaussProg(nprocs int) *ir.Program {
	m := v("m")       // logical dimension (rows used)
	mpad := v("mpad") // padded column length, a page multiple
	k, i, j := v("k"), v("i"), v("j")

	prog := &ir.Program{
		Name: "gauss",
		Arrays: []ir.ArrayDecl{
			{Name: "A", Dims: []rsd.Lin{mpad, m}},
		},
		Params: []rsd.Sym{"m", "mpad"},
	}

	owner := func(e rsd.Env) bool { return (e["k"]-1)%e["nprocs"] == e["p"] }

	initKernel := ir.Kernel{
		Name: "init-A",
		Accesses: []ir.TaggedSection{{
			Sec: rsd.Section{Array: "A", Dims: []rsd.Bound{
				rsd.Dense(c(1), m),
				{Lo: v("p").Plus(1), Hi: m, Stride: nprocs},
			}},
			Tag:   rsd.Write | rsd.WriteFirst,
			Exact: true,
		}},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			mm, n, p := e["m"], e["nprocs"], e["p"]
			a := ctx.Array("A")
			for j := p + 1; j <= mm; j += n {
				data := ctx.WriteRegion(a.Index(1, j), a.Index(mm, j)+1)
				for i := 1; i <= mm; i++ {
					data[a.Index(i, j)] = gaussInit(i, j, mm)
				}
			}
			ctx.Charge(time.Duration(mm*(mm/n+1)) * (10 * time.Nanosecond))
		},
	}

	normalize := ir.If{
		Cond: owner,
		Then: []ir.Stmt{
			ir.Loop{Var: "i", Lo: k.Plus(1), Hi: m, Body: []ir.Stmt{
				ir.Assign{
					LHS: ir.At("A", i, k),
					RHS: []ir.Ref{ir.At("A", i, k), ir.At("A", k, k)},
					Fn: func(d []float64, s [][]float64) {
						a, piv := s[0][:len(d)], s[1][:len(d)]
						for t := range d {
							d[t] = a[t] / piv[t]
						}
					},
					Cost: gaussNormCost,
				},
			}},
		},
	}

	update := ir.Loop{Var: "j", Lo: v("jfirst"), Hi: m, Step: nprocs, Body: []ir.Stmt{
		ir.Loop{Var: "i", Lo: k.Plus(1), Hi: m, Body: []ir.Stmt{
			ir.Assign{
				LHS: ir.At("A", i, j),
				RHS: []ir.Ref{ir.At("A", i, j), ir.At("A", i, k), ir.At("A", k, j)},
				Fn: func(d []float64, s [][]float64) {
					a, l, u := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)]
					for t := range d {
						d[t] = a[t] - l[t]*u[t]
					}
				},
				Cost: gaussElimCost,
			},
		}},
	}}

	prog.Body = []ir.Stmt{
		initKernel,
		ir.Barrier{ID: 0},
		ir.Loop{Var: "k", Lo: c(1), Hi: m.Plus(-1), Body: []ir.Stmt{
			normalize,
			ir.Compute{Sym: "jfirst", Fn: func(e rsd.Env) int {
				return cyclicFirst(e["k"]+1, e["p"], e["nprocs"])
			}},
			ir.Barrier{ID: 1},
			update,
		}},
		ir.Barrier{ID: 2},
	}
	return prog
}

// cyclicFirst returns the smallest j >= lo owned by p under a cyclic
// distribution (column j belongs to (j-1) mod n).
func cyclicFirst(lo, p, n int) int {
	r := (p + 1 - lo) % n
	if r < 0 {
		r += n
	}
	return lo + r
}

// gaussMP is the hand-coded message-passing Gauss: the pivot-column owner
// normalizes and broadcasts the multipliers; everyone updates their own
// cyclic columns.
func gaussMP(r *mp.Rank, params rsd.Env, perIter time.Duration, verify bool) float64 {
	m := params["m"]
	// Local columns p+1, p+1+n, ... stored contiguously.
	var mine []int
	for j := r.ID + 1; j <= m; j += r.N {
		mine = append(mine, j)
	}
	colOf := map[int]int{}
	local := make([]float64, len(mine)*m)
	for li, j := range mine {
		colOf[j] = li
		for i := 1; i <= m; i++ {
			local[li*m+i-1] = gaussInit(i, j, m)
		}
	}
	r.Advance(time.Duration(m*(len(mine))) * (10 * time.Nanosecond))

	piv := make([]float64, m) // pivot column multipliers, rows k+1..m at k..m-1
	for k := 1; k <= m-1; k++ {
		if perIter > 0 {
			r.AdvanceFixed(perIter)
		}
		owner := (k - 1) % r.N
		if owner == r.ID {
			col := local[colOf[k]*m:]
			akk := col[k-1]
			for i := k + 1; i <= m; i++ {
				col[i-1] /= akk
			}
			r.Advance(time.Duration(m-k) * gaussNormCost)
			copy(piv, col[:m])
		}
		got := r.Bcast(owner, piv[:m])
		copy(piv, got)
		for _, j := range mine {
			if j <= k {
				continue
			}
			col := local[colOf[j]*m:]
			akj := col[k-1]
			for i := k + 1; i <= m; i++ {
				col[i-1] -= piv[i-1] * akj
			}
		}
		cnt := 0
		for _, j := range mine {
			if j > k {
				cnt += m - k
			}
		}
		r.Advance(time.Duration(cnt) * gaussElimCost)
	}

	if !verify {
		return 0
	}
	mpadSum := 0.0
	mpad := params["mpad"]
	for li, j := range mine {
		colVals := make([]float64, mpad)
		copy(colVals, local[li*m:li*m+m])
		mpadSum += ChecksumSlice(colVals, (j-1)*mpad)
	}
	return gatherSum(r, mpadSum)
}
