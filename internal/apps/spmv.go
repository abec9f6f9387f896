package apps

import (
	"math/bits"
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

// spmvNbrs returns the four neighbors of 0-based element g in a ring of n
// elements: the two adjacent elements plus two hash-derived jumps of up to
// one and two pages. Deterministic and fixed across iterations; no affine
// summary exists.
func spmvNbrs(g, n int) (prev, next, near, far int) {
	prev, next = g-1, g+1
	if g == 0 {
		prev = n - 1
	}
	if next == n {
		next = 0
	}
	return prev, next, spmvJump(g, 2, shm.PageWords, n), spmvJump(g, 3, 2*shm.PageWords, n)
}

// spmvJump is neighbor j of g, up to reach elements away either side. It
// divides nothing: the offset is the hash masked to [0, 2·reach), 2·reach
// being a power of two, and once n > reach the jumped-to g+d lies in
// (-n, 2n), so one add or subtract of n wraps it.
func spmvJump(g, j, reach, n int) int {
	x := uint64(g)*0x9E3779B97F4A7C15 + uint64(j)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	x *= 0x94D049BB133111EB
	x ^= x >> 32
	r := g + int(x&uint64(2*reach-1)) - reach
	switch {
	case n <= reach:
		return (r%n + n) % n
	case r < 0:
		return r + n
	case r >= n:
		return r - n
	}
	return r
}

// The mask in spmvJump is x mod 2·reach only if a page is a power of two
// words; this fails to compile otherwise.
const _ = uint(-(shm.PageWords & (shm.PageWords - 1)))

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

	// Each rank's touched pages of val (relaxKernel) are its private state.
	prog.Local = func() any { return new(spmvPages) }
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
			// The set is a bitset over val's pages: a few dozen at every
			// size the suite runs, so four words hold it, and walking it in
			// page order yields the runs already sorted, with nothing to
			// hash and nothing to sort. The neighbor graph is fixed, so the
			// set depends on (n, lo, hi, vbase) alone and each rank keeps
			// its own, in its private state, from one iteration to the next.
			// Every neighbor wraps with a compare, not a division (spmvJump
			// says why one suffices).
			m := ctx.Local().(*spmvPages)
			first := uint(vbase) / shm.PageWords
			touched := m.touched(n, lo, hi, vbase)
			var data []float64
			for plo, phi := touched.run(0); plo < phi; plo, phi = touched.run(phi) {
				rlo := max(int(first+plo)*shm.PageWords, vbase)
				rhi := min(int(first+phi)*shm.PageWords, vbase+n)
				data = ctx.ReadRegion(rlo, rhi)
			}
			wbase := ctx.Array("nval").Index(1)
			out := ctx.WriteRegion(wbase+lo-1, wbase+hi)
			for g := lo - 1; g <= hi-1; g++ {
				prev, next, near, far := spmvNbrs(g, n)
				s := 0.0
				s += data[vbase+prev]
				s += data[vbase+next]
				s += data[vbase+near]
				s += data[vbase+far]
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

// spmvPages is one rank's set of touched pages of val, relative to val's
// first page, and the (n, lo, hi, vbase) it was made for.
type spmvPages struct {
	key   [4]int
	words int // 0 until made
	set   [4]uint64
}

// touched returns the pages val's elements lo..hi (1-based) read as
// neighbors, made again only when the key differs from the last call's; a
// set too large for the memo is made afresh on every call.
func (m *spmvPages) touched(n, lo, hi, vbase int) pageSet {
	key := [4]int{n, lo, hi, vbase}
	if m.words > 0 && m.key == key {
		return m.set[:m.words]
	}
	first := uint(vbase) / shm.PageWords
	set := newPageSet(m.set[:], (uint(vbase+n)+shm.PageWords-1)/shm.PageWords-first)
	for g := lo - 1; g <= hi-1; g++ {
		prev, next, near, far := spmvNbrs(g, n)
		for _, nb := range [4]int{prev, next, near, far} {
			set.add(uint(vbase+nb)/shm.PageWords - first)
		}
	}
	if len(set) <= len(m.set) {
		m.key, m.words = key, len(set)
	}
	return set
}

// pageSet is a set of page indices, one bit each.
type pageSet []uint64

// newPageSet returns an empty set of pages 0..pages-1 in buf, or in a new
// slice when buf is too short.
func newPageSet(buf []uint64, pages uint) pageSet {
	words := (pages + 63) / 64
	if words > uint(len(buf)) {
		return make(pageSet, words)
	}
	clear(buf[:words])
	return buf[:words]
}

func (s pageSet) add(pg uint) { s[pg/64] |= 1 << (pg % 64) }

// run returns the first maximal run [lo, hi) of set pages at or after from;
// lo == hi when none is left.
func (s pageSet) run(from uint) (lo, hi uint) {
	lo = s.next(from, 0)
	return lo, s.next(lo, ^uint64(0))
}

// next returns the first page at or after from that is in the set when
// flip is 0, or not in it when flip is all ones; the set's capacity, a
// multiple of 64, when there is none.
func (s pageSet) next(from uint, flip uint64) uint {
	w := from / 64
	if w >= uint(len(s)) {
		return uint(len(s)) * 64
	}
	x := (s[w] ^ flip) >> (from % 64) << (from % 64)
	for x == 0 {
		if w++; w == uint(len(s)) {
			return w * 64
		}
		x = s[w] ^ flip
	}
	return w*64 + uint(bits.TrailingZeros64(x))
}
