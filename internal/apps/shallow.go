package apps

import (
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/mp"
	"sdsm/internal/rsd"
)

// Cost calibrated against Table 1: Shallow 1024² at 100 iterations with
// ten per-element assignments per iteration gives ~75 s (paper: 74.8 s);
// the 1024×512 set gives ~37 s (paper: 36.9 s).
const shallowCost = 72 * time.Nanosecond

func shInitU(i, j int) float64 { return float64((i*3+j*11)%53) / 53 }
func shInitV(i, j int) float64 { return float64((i*17+j*5)%47) / 47 }
func shInitP(i, j int) float64 { return 2 + float64((i*7+j*3)%41)/41 }

// Shallow builds the shallow-water benchmark: nine shared grids updated
// in three phases per iteration, each phase inside a subroutine. The call
// boundaries model the paper's interprocedural limitation: the compiler
// can aggregate communication and eliminate consistency overhead for each
// phase, but cannot merge data movement with the barriers nor replace
// them with Push.
func Shallow() *App {
	return &App{
		Name:  "shallow",
		Build: func(int) *ir.Program { return shallowProg() },
		Sets: map[DataSet]rsd.Env{
			Large: {"m": 512, "mc": 128, "iters": 16, "cscale": 8},
			Small: {"m": 512, "mc": 64, "iters": 16, "cscale": 8},
		},
		// The paper's sizes: large m=1024 mc=1024 iters=100, small m=1024 mc=512 iters=100.
		CheckArray:      "p",
		WSyncApplicable: false, // would require interprocedural analysis
		PushApplicable:  false, // likewise
		XHPF:            true,
		XHPFOverhead:    250 * time.Microsecond,
		MP:              shallowMP,
	}
}

func shallowProg() *ir.Program {
	m, mc := v("m"), v("mc")
	i, j := v("i"), v("j")

	arrays := []string{"u", "v", "p", "cu", "cv", "z", "h", "unew", "vnew", "pnew"}
	prog := &ir.Program{
		Name:   "shallow",
		Params: []rsd.Sym{"m", "mc", "iters"},
		Derived: []ir.DerivedParam{
			{Name: "begin", Fn: func(e rsd.Env) int { return max(2, blockLow(e["mc"], e["p"], e["nprocs"])) }},
			{Name: "end", Fn: func(e rsd.Env) int { return min(e["mc"]-1, blockHigh(e["mc"], e["p"], e["nprocs"])) }},
			{Name: "ibegin", Fn: func(e rsd.Env) int { return blockLow(e["mc"], e["p"], e["nprocs"]) }},
			{Name: "iend", Fn: func(e rsd.Env) int { return blockHigh(e["mc"], e["p"], e["nprocs"]) }},
		},
	}
	for _, a := range arrays {
		prog.Arrays = append(prog.Arrays, ir.ArrayDecl{Name: a, Dims: []rsd.Lin{m, mc}})
	}

	initKernel := ir.Kernel{
		Name: "init",
		Accesses: []ir.TaggedSection{
			{Sec: colSection("u", m, "ibegin", "iend"), Tag: rsd.Write | rsd.WriteFirst, Exact: true},
			{Sec: colSection("v", m, "ibegin", "iend"), Tag: rsd.Write | rsd.WriteFirst, Exact: true},
			{Sec: colSection("p", m, "ibegin", "iend"), Tag: rsd.Write | rsd.WriteFirst, Exact: true},
		},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			mm, lo, hi := e["m"], e["ibegin"], e["iend"]
			for _, name := range []string{"u", "v", "p"} {
				arr := ctx.Array(name)
				data := ctx.WriteRegion(arr.Index(1, lo), arr.Index(mm, hi)+1)
				for j := lo; j <= hi; j++ {
					for i := 1; i <= mm; i++ {
						switch name {
						case "u":
							data[arr.Index(i, j)] = shInitU(i, j)
						case "v":
							data[arr.Index(i, j)] = shInitV(i, j)
						case "p":
							data[arr.Index(i, j)] = shInitP(i, j)
						}
					}
				}
			}
			ctx.Charge(time.Duration(3*mm*(hi-lo+1)) * shallowCost)
		},
	}

	// own-column loop nest over one assignment
	nest := func(a ir.Assign) ir.Stmt {
		return ir.Loop{Var: "j", Lo: v("begin"), Hi: v("end"), Body: []ir.Stmt{
			ir.Loop{Var: "i", Lo: c(2), Hi: m.Plus(-1), Body: []ir.Stmt{a}},
		}}
	}

	// Phase 1: fluxes and vorticity from u, v, p (reads column j-1).
	phase1 := []ir.Stmt{
		nest(ir.Assign{LHS: ir.At("cu", i, j),
			RHS: []ir.Ref{ir.At("p", i, j), ir.At("p", i.Plus(-1), j), ir.At("u", i, j)},
			Fn:  halfSumTimes, Cost: shallowCost}),
		nest(ir.Assign{LHS: ir.At("cv", i, j),
			RHS: []ir.Ref{ir.At("p", i, j), ir.At("p", i, j.Plus(-1)), ir.At("v", i, j)},
			Fn:  halfSumTimes, Cost: shallowCost}),
		nest(ir.Assign{LHS: ir.At("z", i, j),
			RHS: []ir.Ref{ir.At("v", i, j), ir.At("v", i.Plus(-1), j), ir.At("u", i, j), ir.At("u", i, j.Plus(-1)), ir.At("p", i, j)},
			Fn: func(d []float64, s [][]float64) {
				a, b, c, e, f := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)], s[3][:len(d)], s[4][:len(d)]
				for t := range d {
					d[t] = (a[t] - b[t] + c[t] - e[t]) / (4 + f[t])
				}
			}, Cost: shallowCost}),
		nest(ir.Assign{LHS: ir.At("h", i, j),
			RHS: []ir.Ref{ir.At("p", i, j), ir.At("u", i, j), ir.At("v", i, j)},
			Fn: func(d []float64, s [][]float64) {
				a, b, c := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)]
				for t := range d {
					d[t] = a[t] + 0.25*(b[t]*b[t]+c[t]*c[t])
				}
			}, Cost: shallowCost}),
	}

	// Phase 2: new fields from the fluxes (reads column j+1).
	phase2 := []ir.Stmt{
		nest(ir.Assign{LHS: ir.At("unew", i, j),
			RHS: []ir.Ref{ir.At("u", i, j), ir.At("z", i, j.Plus(1)), ir.At("cv", i, j), ir.At("h", i, j), ir.At("h", i.Plus(-1), j)},
			Fn: func(d []float64, s [][]float64) {
				a, b, c, e, f := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)], s[3][:len(d)], s[4][:len(d)]
				for t := range d {
					d[t] = 0.99*a[t] + 0.01*(b[t]*c[t]-(e[t]-f[t]))
				}
			}, Cost: shallowCost}),
		nest(ir.Assign{LHS: ir.At("vnew", i, j),
			RHS: []ir.Ref{ir.At("v", i, j), ir.At("z", i.Plus(1), j), ir.At("cu", i, j), ir.At("h", i, j), ir.At("h", i, j.Plus(1))},
			Fn: func(d []float64, s [][]float64) {
				a, b, c, e, f := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)], s[3][:len(d)], s[4][:len(d)]
				for t := range d {
					d[t] = 0.99*a[t] - 0.01*(b[t]*c[t]+(e[t]-f[t]))
				}
			}, Cost: shallowCost}),
		nest(ir.Assign{LHS: ir.At("pnew", i, j),
			RHS: []ir.Ref{ir.At("p", i, j), ir.At("cu", i, j), ir.At("cu", i.Plus(-1), j), ir.At("cv", i, j), ir.At("cv", i, j.Plus(1))},
			Fn: func(d []float64, s [][]float64) {
				a, b, c, e, f := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)], s[3][:len(d)], s[4][:len(d)]
				for t := range d {
					d[t] = a[t] - 0.01*(b[t]-c[t]+e[t]-f[t])
				}
			}, Cost: shallowCost}),
	}

	// Phase 3: copy back.
	cp := func(dst, src string) ir.Stmt {
		return nest(ir.Assign{LHS: ir.At(dst, i, j), RHS: []ir.Ref{ir.At(src, i, j)},
			Fn: copySpan, Cost: shallowCost})
	}
	phase3 := []ir.Stmt{cp("u", "unew"), cp("v", "vnew"), cp("p", "pnew")}

	var iter []ir.Stmt
	iter = append(iter, ir.CallBoundary{Name: "calc1"})
	iter = append(iter, phase1...)
	iter = append(iter, ir.Barrier{ID: 1}, ir.CallBoundary{Name: "calc2"})
	iter = append(iter, phase2...)
	iter = append(iter, ir.Barrier{ID: 2}, ir.CallBoundary{Name: "calc3"})
	iter = append(iter, phase3...)
	iter = append(iter, ir.Barrier{ID: 3})

	prog.Body = []ir.Stmt{
		initKernel,
		ir.Barrier{ID: 0},
		ir.Loop{Var: "it", Lo: c(1), Hi: v("iters"), Body: iter},
	}
	return prog
}

// colSection builds the full-column section arr[1:m, lo:hi].
func colSection(arr string, m rsd.Lin, lo, hi rsd.Sym) rsd.Section {
	return rsd.Section{Array: arr, Dims: []rsd.Bound{
		rsd.Dense(c(1), m), rsd.Dense(rsd.Var(lo), rsd.Var(hi)),
	}}
}

// shallowMP is the hand-coded message-passing Shallow: per iteration two
// ghost-column exchanges, each combining all needed arrays in a single
// message per neighbour.
func shallowMP(r *mp.Rank, params rsd.Env, perIter time.Duration, verify bool) float64 {
	m, mc, iters := params["m"], params["mc"], params["iters"]
	ibegin, iend := blockLow(mc, r.ID, r.N), blockHigh(mc, r.ID, r.N)
	begin, end := max(2, ibegin), min(mc-1, iend)
	lo, hi := max(1, ibegin-1), min(mc, iend+1)
	cols := hi - lo + 1
	col := func(j int) int { return (j - lo) * m }

	names := []string{"u", "v", "p", "cu", "cv", "z", "h", "unew", "vnew", "pnew"}
	g := map[string][]float64{}
	for _, nm := range names {
		g[nm] = make([]float64, cols*m)
	}
	for j := ibegin; j <= iend; j++ {
		for i := 1; i <= m; i++ {
			g["u"][col(j)+i-1] = shInitU(i, j)
			g["v"][col(j)+i-1] = shInitV(i, j)
			g["p"][col(j)+i-1] = shInitP(i, j)
		}
	}
	r.Advance(time.Duration(3*m*(iend-ibegin+1)) * shallowCost)

	// exchangeLeft ships our first owned column of the named arrays to the
	// left neighbour's right ghost... direction conventions:
	//   phase1 reads column j-1 of u, v, p: each rank needs its LEFT ghost
	//   (ibegin-1), provided by the left neighbour's iend column.
	//   phase2 reads column j+1 of cu, cv, z, h: each rank needs its RIGHT
	//   ghost (iend+1), provided by the right neighbour's ibegin column.
	pack := func(arrs []string, j int) []float64 {
		out := make([]float64, 0, len(arrs)*m)
		for _, nm := range arrs {
			out = append(out, g[nm][col(j):col(j)+m]...)
		}
		return out
	}
	unpack := func(arrs []string, j int, blk []float64) {
		for t, nm := range arrs {
			copy(g[nm][col(j):col(j)+m], blk[t*m:(t+1)*m])
		}
	}
	leftArrs := []string{"u", "v", "p"}
	rightArrs := []string{"cu", "cv", "z", "h"}
	exchangeUVP := func() {
		if r.ID < r.N-1 {
			r.Send(r.ID+1, pack(leftArrs, iend))
		}
		if r.ID > 0 {
			unpack(leftArrs, ibegin-1, r.Recv(r.ID-1))
		}
	}
	exchangeFlux := func() {
		if r.ID > 0 {
			r.Send(r.ID-1, pack(rightArrs, ibegin))
		}
		if r.ID < r.N-1 {
			unpack(rightArrs, iend+1, r.Recv(r.ID+1))
		}
	}
	exchangeUVP()

	for it := 0; it < iters; it++ {
		if perIter > 0 {
			r.AdvanceFixed(perIter)
		}
		for j := begin; j <= end; j++ {
			for i := 2; i <= m-1; i++ {
				pj, pl := g["p"][col(j):], g["p"][col(j-1):]
				uj, ul := g["u"][col(j):], g["u"][col(j-1):]
				vj := g["v"][col(j):]
				g["cu"][col(j)+i-1] = 0.5 * (pj[i-1] + pj[i-2]) * uj[i-1]
				g["cv"][col(j)+i-1] = 0.5 * (pj[i-1] + pl[i-1]) * vj[i-1]
				g["z"][col(j)+i-1] = (vj[i-1] - vj[i-2] + uj[i-1] - ul[i-1]) / (4 + pj[i-1])
				g["h"][col(j)+i-1] = pj[i-1] + 0.25*(uj[i-1]*uj[i-1]+vj[i-1]*vj[i-1])
			}
		}
		r.Advance(time.Duration(4*(end-begin+1)*(m-2)) * shallowCost)
		exchangeFlux()
		for j := begin; j <= end; j++ {
			for i := 2; i <= m-1; i++ {
				uj, vj, pj := g["u"][col(j):], g["v"][col(j):], g["p"][col(j):]
				zj, zr := g["z"][col(j):], g["z"][col(j+1):]
				cuj := g["cu"][col(j):]
				cvj, cvr := g["cv"][col(j):], g["cv"][col(j+1):]
				hj, hr := g["h"][col(j):], g["h"][col(j+1):]
				g["unew"][col(j)+i-1] = 0.99*uj[i-1] + 0.01*(zr[i-1]*cvj[i-1]-(hj[i-1]-hj[i-2]))
				g["vnew"][col(j)+i-1] = 0.99*vj[i-1] - 0.01*(zj[i]*cuj[i-1]+(hj[i-1]-hr[i-1]))
				g["pnew"][col(j)+i-1] = pj[i-1] - 0.01*(cuj[i-1]-cuj[i-2]+cvj[i-1]-cvr[i-1])
			}
		}
		r.Advance(time.Duration(3*(end-begin+1)*(m-2)) * shallowCost)
		for j := begin; j <= end; j++ {
			// Interior rows only, matching the shared-memory loop nests.
			copy(g["u"][col(j)+1:col(j)+m-1], g["unew"][col(j)+1:col(j)+m-1])
			copy(g["v"][col(j)+1:col(j)+m-1], g["vnew"][col(j)+1:col(j)+m-1])
			copy(g["p"][col(j)+1:col(j)+m-1], g["pnew"][col(j)+1:col(j)+m-1])
		}
		r.Advance(time.Duration(3*(end-begin+1)*m) * shallowCost)
		exchangeUVP()
	}

	if !verify {
		return 0
	}
	sum := 0.0
	for j := ibegin; j <= iend; j++ {
		sum += ChecksumSlice(g["p"][col(j):col(j)+m], (j-1)*m)
	}
	return gatherSum(r, sum)
}
