package apps

import (
	"math"
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/mp"
	"sdsm/internal/rsd"
)

// Costs calibrated against Table 1: at 2^6·2^6·2^6 with 6 iterations the
// virtual time is ~9.8 s (paper: 9.5 s); at 2^5·2^6·2^5 it is ~2.2 s
// (paper: 2.3 s).
const (
	fftButterflyCost = 110 * time.Nanosecond // per element per FFT stage
	fftPointCost     = 80 * time.Nanosecond  // evolve/transpose per element
)

func fftInitRe(i, j, k int) float64 { return float64((i*5+j*3+k*7)%31) / 31 }
func fftInitIm(i, j, k int) float64 { return float64((i*11+j*13+k*2)%29) / 29 }

// fft1d is an in-place iterative radix-2 complex FFT over re/im slices
// (stride-1 pencils). n must be a power of two.
func fft1d(re, im []float64) {
	n := len(re)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			cwr, cwi := 1.0, 0.0
			for k := 0; k < length/2; k++ {
				a, b := start+k, start+k+length/2
				ur, ui := re[a], im[a]
				vr := re[b]*cwr - im[b]*cwi
				vi := re[b]*cwi + im[b]*cwr
				re[a], im[a] = ur+vr, ui+vi
				re[b], im[b] = ur-vr, ui-vi
				cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
			}
		}
	}
}

// log2 of a power of two.
func ilog2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// FFT3D builds the NAS-style 3-D FFT: a z-slab decomposition with local
// FFTs along x and y, a transpose (the producer-consumer communication at
// the barrier the paper describes), an FFT along z in the transposed
// array, a transpose back, and a point-wise evolve. The two transpose
// barriers qualify for Push; for the small data set each contiguous piece
// spans less than a page, so Push also removes false sharing — both paper
// observations.
func FFT3D() *App {
	return &App{
		Name:  "fft",
		Build: fftProg,
		Sets:  map[DataSet]rsd.Env{Large: {"nx": 32, "ny": 32, "nz": 32, "iters": 3, "cscale": 6}, Small: {"nx": 16, "ny": 32, "nz": 16, "iters": 3, "cscale": 4}},
		// The paper's sizes: large nx=64 ny=64 nz=64 iters=6, small nx=32 ny=64 nz=32 iters=6.
		CheckArray:      "re",
		WSyncApplicable: true,
		WSyncProfitable: false, // "no additional gains: the bottleneck is data volume"
		PushApplicable:  true,
		PushProfitable:  true, // eliminates false sharing on the small set
		XHPF:            true,
		XHPFOverhead:    300 * time.Microsecond,
		MP:              fftMP,
	}
}

func fftProg(nprocs int) *ir.Program {
	nx, ny, nz := v("nx"), v("ny"), v("nz")
	i, j, k := v("i"), v("j"), v("k")

	prog := &ir.Program{
		Name: "fft",
		Arrays: []ir.ArrayDecl{
			{Name: "re", Dims: []rsd.Lin{nx, ny, nz}},
			{Name: "im", Dims: []rsd.Lin{nx, ny, nz}},
			{Name: "re2", Dims: []rsd.Lin{nz, ny, nx}},
			{Name: "im2", Dims: []rsd.Lin{nz, ny, nx}},
		},
		Params: []rsd.Sym{"nx", "ny", "nz", "iters"},
		Derived: []ir.DerivedParam{
			{Name: "zb", Fn: func(e rsd.Env) int { return blockLow(e["nz"], e["p"], e["nprocs"]) }},
			{Name: "ze", Fn: func(e rsd.Env) int { return blockHigh(e["nz"], e["p"], e["nprocs"]) }},
			{Name: "xb", Fn: func(e rsd.Env) int { return blockLow(e["nx"], e["p"], e["nprocs"]) }},
			{Name: "xe", Fn: func(e rsd.Env) int { return blockHigh(e["nx"], e["p"], e["nprocs"]) }},
		},
	}

	zSlab := func(arr string) rsd.Section {
		return rsd.Section{Array: arr, Dims: []rsd.Bound{
			rsd.Dense(c(1), nx), rsd.Dense(c(1), ny), rsd.Dense(v("zb"), v("ze")),
		}}
	}
	xSlab := func(arr string) rsd.Section {
		return rsd.Section{Array: arr, Dims: []rsd.Bound{
			rsd.Dense(c(1), nz), rsd.Dense(c(1), ny), rsd.Dense(v("xb"), v("xe")),
		}}
	}

	initKernel := ir.Kernel{
		Name: "init",
		Accesses: []ir.TaggedSection{
			{Sec: zSlab("re"), Tag: rsd.Write | rsd.WriteFirst, Exact: true},
			{Sec: zSlab("im"), Tag: rsd.Write | rsd.WriteFirst, Exact: true},
		},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			nxv, nyv := e["nx"], e["ny"]
			zb, ze := e["zb"], e["ze"]
			reA, imA := ctx.Array("re"), ctx.Array("im")
			re := ctx.WriteRegion(reA.Index(1, 1, zb), reA.Index(nxv, nyv, ze)+1)
			im := ctx.WriteRegion(imA.Index(1, 1, zb), imA.Index(nxv, nyv, ze)+1)
			for kk := zb; kk <= ze; kk++ {
				for jj := 1; jj <= nyv; jj++ {
					for ii := 1; ii <= nxv; ii++ {
						re[reA.Index(ii, jj, kk)] = fftInitRe(ii, jj, kk)
						im[imA.Index(ii, jj, kk)] = fftInitIm(ii, jj, kk)
					}
				}
			}
			ctx.Charge(time.Duration(nxv*nyv*(ze-zb+1)) * fftPointCost)
		},
	}

	// Evolve (point-wise damping) plus local FFTs along x and y within the
	// owned z-slab.
	localFFT := ir.Kernel{
		Name: "evolve+fft-xy",
		Accesses: []ir.TaggedSection{
			{Sec: zSlab("re"), Tag: rsd.Read | rsd.Write, Exact: true},
			{Sec: zSlab("im"), Tag: rsd.Read | rsd.Write, Exact: true},
		},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			nxv, nyv := e["nx"], e["ny"]
			zb, ze := e["zb"], e["ze"]
			reA, imA := ctx.Array("re"), ctx.Array("im")
			lo := reA.Index(1, 1, zb)
			hi := reA.Index(nxv, nyv, ze) + 1
			re := ctx.ReadRegion(lo, hi)
			re = ctx.WriteRegion(lo, hi)
			ilo := imA.Index(1, 1, zb)
			ihi := imA.Index(nxv, nyv, ze) + 1
			im := ctx.ReadRegion(ilo, ihi)
			im = ctx.WriteRegion(ilo, ihi)
			elems := nxv * nyv * (ze - zb + 1)
			// Evolve: damp towards zero so values stay bounded.
			for kk := zb; kk <= ze; kk++ {
				base := reA.Index(1, 1, kk)
				ibase := imA.Index(1, 1, kk)
				for t := 0; t < nxv*nyv; t++ {
					re[base+t] *= 0.5
					im[ibase+t] *= 0.5
				}
			}
			ctx.Charge(time.Duration(elems) * fftPointCost)
			// FFT along x: contiguous pencils.
			for kk := zb; kk <= ze; kk++ {
				for jj := 1; jj <= nyv; jj++ {
					a := reA.Index(1, jj, kk)
					b := imA.Index(1, jj, kk)
					fft1d(re[a:a+nxv], im[b:b+nxv])
				}
			}
			ctx.Charge(time.Duration(elems*ilog2(nxv)) * fftButterflyCost)
			// FFT along y: gather strided pencils into scratch.
			sr := make([]float64, nyv)
			si := make([]float64, nyv)
			for kk := zb; kk <= ze; kk++ {
				for ii := 1; ii <= nxv; ii++ {
					for jj := 1; jj <= nyv; jj++ {
						sr[jj-1] = re[reA.Index(ii, jj, kk)]
						si[jj-1] = im[imA.Index(ii, jj, kk)]
					}
					fft1d(sr, si)
					for jj := 1; jj <= nyv; jj++ {
						re[reA.Index(ii, jj, kk)] = sr[jj-1]
						im[imA.Index(ii, jj, kk)] = si[jj-1]
					}
				}
			}
			ctx.Charge(time.Duration(elems*ilog2(nyv)) * fftButterflyCost)
		},
	}

	fftZ := ir.Kernel{
		Name: "fft-z",
		Accesses: []ir.TaggedSection{
			{Sec: xSlab("re2"), Tag: rsd.Read | rsd.Write, Exact: true},
			{Sec: xSlab("im2"), Tag: rsd.Read | rsd.Write, Exact: true},
		},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			nyv, nzv := e["ny"], e["nz"]
			xb, xe := e["xb"], e["xe"]
			reA, imA := ctx.Array("re2"), ctx.Array("im2")
			lo := reA.Index(1, 1, xb)
			hi := reA.Index(nzv, nyv, xe) + 1
			re2 := ctx.ReadRegion(lo, hi)
			re2 = ctx.WriteRegion(lo, hi)
			ilo := imA.Index(1, 1, xb)
			ihi := imA.Index(nzv, nyv, xe) + 1
			im2 := ctx.ReadRegion(ilo, ihi)
			im2 = ctx.WriteRegion(ilo, ihi)
			for ii := xb; ii <= xe; ii++ {
				for jj := 1; jj <= nyv; jj++ {
					a := reA.Index(1, jj, ii)
					b := imA.Index(1, jj, ii)
					fft1d(re2[a:a+nzv], im2[b:b+nzv])
				}
			}
			ctx.Charge(time.Duration((xe-xb+1)*nyv*nzv*ilog2(nzv)) * fftButterflyCost)
		},
	}

	// Transpose: each processor builds its x-slab of re2/im2 by reading
	// everyone's z-slabs of re/im.
	transpose := []ir.Stmt{
		ir.Loop{Var: "i", Lo: v("xb"), Hi: v("xe"), Body: []ir.Stmt{
			ir.Loop{Var: "j", Lo: c(1), Hi: ny, Body: []ir.Stmt{
				ir.Loop{Var: "k", Lo: c(1), Hi: nz, Body: []ir.Stmt{
					ir.Assign{LHS: ir.At("re2", k, j, i), RHS: []ir.Ref{ir.At("re", i, j, k)}, Fn: copySpan, Cost: fftPointCost},
				}},
			}},
		}},
		ir.Loop{Var: "i", Lo: v("xb"), Hi: v("xe"), Body: []ir.Stmt{
			ir.Loop{Var: "j", Lo: c(1), Hi: ny, Body: []ir.Stmt{
				ir.Loop{Var: "k", Lo: c(1), Hi: nz, Body: []ir.Stmt{
					ir.Assign{LHS: ir.At("im2", k, j, i), RHS: []ir.Ref{ir.At("im", i, j, k)}, Fn: copySpan, Cost: fftPointCost},
				}},
			}},
		}},
	}
	// Transpose back into the owned z-slab of re/im.
	transposeBack := []ir.Stmt{
		ir.Loop{Var: "k", Lo: v("zb"), Hi: v("ze"), Body: []ir.Stmt{
			ir.Loop{Var: "j", Lo: c(1), Hi: ny, Body: []ir.Stmt{
				ir.Loop{Var: "i", Lo: c(1), Hi: nx, Body: []ir.Stmt{
					ir.Assign{LHS: ir.At("re", i, j, k), RHS: []ir.Ref{ir.At("re2", k, j, i)}, Fn: copySpan, Cost: fftPointCost},
				}},
			}},
		}},
		ir.Loop{Var: "k", Lo: v("zb"), Hi: v("ze"), Body: []ir.Stmt{
			ir.Loop{Var: "j", Lo: c(1), Hi: ny, Body: []ir.Stmt{
				ir.Loop{Var: "i", Lo: c(1), Hi: nx, Body: []ir.Stmt{
					ir.Assign{LHS: ir.At("im", i, j, k), RHS: []ir.Ref{ir.At("im2", k, j, i)}, Fn: copySpan, Cost: fftPointCost},
				}},
			}},
		}},
	}

	var loop []ir.Stmt
	loop = append(loop, localFFT, ir.Barrier{ID: 1})
	loop = append(loop, transpose...)
	loop = append(loop, ir.Barrier{ID: 2}, fftZ, ir.Barrier{ID: 3})
	loop = append(loop, transposeBack...)
	loop = append(loop, ir.Barrier{ID: 4})

	prog.Body = []ir.Stmt{
		initKernel,
		ir.Barrier{ID: 0},
		ir.Loop{Var: "it", Lo: c(1), Hi: v("iters"), Body: loop},
	}
	return prog
}

// fftMP is the hand-coded message-passing 3-D FFT: local FFTs plus an
// all-to-all block exchange for each transpose.
func fftMP(r *mp.Rank, params rsd.Env, perIter time.Duration, verify bool) float64 {
	nx, ny, nz, iters := params["nx"], params["ny"], params["nz"], params["iters"]
	zb, ze := blockLow(nz, r.ID, r.N), blockHigh(nz, r.ID, r.N)
	xb, xe := blockLow(nx, r.ID, r.N), blockHigh(nx, r.ID, r.N)
	zw, xw := ze-zb+1, xe-xb+1

	// Local z-slab of re/im: index (i, j, kk) kk local 0..zw-1.
	at := func(i, j, kk int) int { return (i - 1) + (j-1)*nx + kk*nx*ny }
	// Local x-slab of re2/im2: (k, j, ii).
	at2 := func(k, j, ii int) int { return (k - 1) + (j-1)*nz + ii*nz*ny }
	re := make([]float64, nx*ny*zw)
	im := make([]float64, nx*ny*zw)
	re2 := make([]float64, nz*ny*xw)
	im2 := make([]float64, nz*ny*xw)
	for kk := 0; kk < zw; kk++ {
		for j := 1; j <= ny; j++ {
			for i := 1; i <= nx; i++ {
				re[at(i, j, kk)] = fftInitRe(i, j, zb+kk)
				im[at(i, j, kk)] = fftInitIm(i, j, zb+kk)
			}
		}
	}
	r.Advance(time.Duration(nx*ny*zw) * fftPointCost)

	sr := make([]float64, ny)
	si := make([]float64, ny)
	for it := 0; it < iters; it++ {
		if perIter > 0 {
			r.AdvanceFixed(perIter)
		}
		elems := nx * ny * zw
		for t := range re {
			re[t] *= 0.5
			im[t] *= 0.5
		}
		r.Advance(time.Duration(elems) * fftPointCost)
		for kk := 0; kk < zw; kk++ {
			for j := 1; j <= ny; j++ {
				a := at(1, j, kk)
				fft1d(re[a:a+nx], im[a:a+nx])
			}
		}
		r.Advance(time.Duration(elems*ilog2(nx)) * fftButterflyCost)
		for kk := 0; kk < zw; kk++ {
			for i := 1; i <= nx; i++ {
				for j := 1; j <= ny; j++ {
					sr[j-1] = re[at(i, j, kk)]
					si[j-1] = im[at(i, j, kk)]
				}
				fft1d(sr, si)
				for j := 1; j <= ny; j++ {
					re[at(i, j, kk)] = sr[j-1]
					im[at(i, j, kk)] = si[j-1]
				}
			}
		}
		r.Advance(time.Duration(elems*ilog2(ny)) * fftButterflyCost)

		// Transpose: all-to-all. Block for peer q: i in q's x-range, all j,
		// k in my z-range.
		for q := 0; q < r.N; q++ {
			qxb, qxe := blockLow(nx, q, r.N), blockHigh(nx, q, r.N)
			blk := make([]float64, 0, 2*(qxe-qxb+1)*ny*zw)
			for kk := 0; kk < zw; kk++ {
				for j := 1; j <= ny; j++ {
					for i := qxb; i <= qxe; i++ {
						blk = append(blk, re[at(i, j, kk)], im[at(i, j, kk)])
					}
				}
			}
			if q == r.ID {
				unpackTranspose(blk, re2, im2, at2, qxb, qxe, ny, zb, zw)
				continue
			}
			r.Send(q, blk)
		}
		for q := 0; q < r.N; q++ {
			if q == r.ID {
				continue
			}
			blk := r.Recv(q)
			qzb := blockLow(nz, q, r.N)
			qzw := blockHigh(nz, q, r.N) - qzb + 1
			unpackTranspose(blk, re2, im2, at2, xb, xe, ny, qzb, qzw)
		}
		r.Advance(time.Duration(nz*ny*xw) * fftPointCost)

		for ii := 0; ii < xw; ii++ {
			for j := 1; j <= ny; j++ {
				a := at2(1, j, ii)
				fft1d(re2[a:a+nz], im2[a:a+nz])
			}
		}
		r.Advance(time.Duration(nz*ny*xw*ilog2(nz)) * fftButterflyCost)

		// Transpose back.
		for q := 0; q < r.N; q++ {
			qzb, qze := blockLow(nz, q, r.N), blockHigh(nz, q, r.N)
			blk := make([]float64, 0, 2*(qze-qzb+1)*ny*xw)
			for ii := 0; ii < xw; ii++ {
				for j := 1; j <= ny; j++ {
					for k := qzb; k <= qze; k++ {
						blk = append(blk, re2[at2(k, j, ii)], im2[at2(k, j, ii)])
					}
				}
			}
			if q == r.ID {
				unpackBack(blk, re, im, at, xb, xe, ny, zb, qzb, qze)
				continue
			}
			r.Send(q, blk)
		}
		for q := 0; q < r.N; q++ {
			if q == r.ID {
				continue
			}
			blk := r.Recv(q)
			qxb, qxe := blockLow(nx, q, r.N), blockHigh(nx, q, r.N)
			unpackBack(blk, re, im, at, qxb, qxe, ny, zb, zb, ze)
		}
		r.Advance(time.Duration(nx*ny*zw) * fftPointCost)
	}

	if !verify {
		return 0
	}
	sum := 0.0
	for kk := 0; kk < zw; kk++ {
		for j := 1; j <= ny; j++ {
			row := make([]float64, nx)
			for i := 1; i <= nx; i++ {
				row[i-1] = re[at(i, j, kk)]
			}
			sum += ChecksumSlice(row, (zb+kk-1)*nx*ny+(j-1)*nx)
		}
	}
	return gatherSum(r, sum)
}

// unpackTranspose scatters a transpose block (i-range, all j, k-range of
// the sender) into the local x-slab arrays.
func unpackTranspose(blk, re2, im2 []float64, at2 func(k, j, ii int) int, ixb, ixe, ny, kzb, kzw int) {
	t := 0
	for kk := 0; kk < kzw; kk++ {
		for j := 1; j <= ny; j++ {
			for i := ixb; i <= ixe; i++ {
				re2[at2(kzb+kk, j, i-ixb)] = blk[t]
				im2[at2(kzb+kk, j, i-ixb)] = blk[t+1]
				t += 2
			}
		}
	}
}

// unpackBack scatters a transpose-back block into the local z-slab arrays.
func unpackBack(blk, re, im []float64, at func(i, j, kk int) int, ixb, ixe, ny, zb, kzb, kze int) {
	t := 0
	for ii := ixb; ii <= ixe; ii++ {
		for j := 1; j <= ny; j++ {
			for k := kzb; k <= kze; k++ {
				re[at(ii, j, k-zb)] = blk[t]
				im[at(ii, j, k-zb)] = blk[t+1]
				t += 2
			}
		}
	}
}
