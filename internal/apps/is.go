package apps

import (
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/mp"
	"sdsm/internal/rsd"
)

// Costs calibrated against Table 1's large set (IS 2^23/2^19: 91.2 s over
// 10 repetitions with ~2N key operations per repetition gives ~540 ns per
// key operation; the paper's small set is super-linearly faster, which a
// linear model does not capture — see EXPERIMENTS.md).
const (
	isKeyCost    = 540 * time.Nanosecond
	isBucketCost = 100 * time.Nanosecond
)

// isKey generates the deterministic key for global slot g (keys are in
// [0, buckets)); slots are block-partitioned, so slot g belongs to the
// processor whose [p·keys/n, (p+1)·keys/n) block contains it.
func isKey(g, buckets int) int {
	x := uint64(g)*2654435761 + 12345
	x ^= x >> 13
	x *= 1099511628211
	x ^= x >> 7
	return int(x % uint64(buckets))
}

// IS builds the NAS Integer Sort: processors count keys into private
// buckets, merge them into shared buckets section by section under
// staggered locks (the data is migratory), and rank their keys from the
// summed buckets after a barrier. The indirect access to the key array
// keeps XHPF from parallelizing it; the compiler still optimizes the lock
// phases (READ&WRITE_ALL on the bucket sections) and the ranking read —
// the paper's example of partial analysis being beneficial.
//
// Keys and bucket sections are block-partitioned with exact bounds
// (p·m/n .. (p+1)·m/n), so processor counts that do not divide the key or
// bucket count distribute the remainders instead of truncating them: the
// parallel program computes the sequential problem at every processor
// count, and results are comparable to the sequential reference — and
// identical across backends — everywhere. At dividing counts the bounds
// reduce to the historical m/n blocks, leaving the paper tables unchanged.
func IS() *App {
	return &App{
		Name:  "is",
		Build: isProg,
		Sets: map[DataSet]rsd.Env{
			Large: {"keys": 1 << 16, "buckets": 1 << 15, "iters": 4, "cscale": 8},
			Small: {"keys": 1 << 14, "buckets": 1 << 13, "iters": 4, "cscale": 16},
		},
		// The paper's sizes: large keys=1<<23 buckets=1<<19 iters=10, small keys=1<<20 buckets=1<<15 iters=10.
		CheckArray:      "ranks",
		WSyncApplicable: true,
		WSyncProfitable: false, // merging made IS worse (page-list scan overhead)
		PushApplicable:  false, // the compiler cannot know who held the lock last
		XHPF:            false, // indirect access to the main array
		MP:              isMP,
	}
}

func isProg(nprocs int) *ir.Program {
	b := v("b")
	prog := &ir.Program{
		Name: "is",
		Arrays: []ir.ArrayDecl{
			{Name: "buckets", Dims: []rsd.Lin{v("buckets")}},
			{Name: "priv", Dims: []rsd.Lin{v("buckets"), c(nprocs)}},
			{Name: "ranks", Dims: []rsd.Lin{v("keys")}},
		},
		Params: []rsd.Sym{"keys", "buckets", "iters"},
		Derived: []ir.DerivedParam{
			{Name: "pcol", Fn: func(e rsd.Env) int { return e["p"] + 1 }},
			// Exact block bounds of the owned keys (1-based, inclusive).
			{Name: "klo", Fn: func(e rsd.Env) int { return blockLow(e["keys"], e["p"], e["nprocs"]) }},
			{Name: "khi", Fn: func(e rsd.Env) int { return blockHigh(e["keys"], e["p"], e["nprocs"]) }},
		},
	}

	countKernel := ir.Kernel{
		Name: "count",
		Accesses: []ir.TaggedSection{{
			Sec: rsd.Section{Array: "priv", Dims: []rsd.Bound{
				rsd.Dense(c(1), v("buckets")),
				rsd.Dense(v("pcol"), v("pcol")),
			}},
			Tag:   rsd.Write | rsd.WriteFirst,
			Exact: true,
		}},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			nb, klo, khi, p := e["buckets"], e["klo"], e["khi"], e["p"]
			lo := ctx.Array("priv").Index(1, p+1)
			data := ctx.WriteRegion(lo, lo+nb)
			for t := lo; t < lo+nb; t++ {
				data[t] = 0
			}
			for g := klo - 1; g <= khi-1; g++ {
				data[lo+isKey(g, nb)]++
			}
			ctx.Charge(time.Duration(khi-klo+1)*isKeyCost + time.Duration(nb)*isBucketCost/4)
		},
	}

	addFn := func(d []float64, s [][]float64) {
		a, b := s[0][:len(d)], s[1][:len(d)]
		for t := range d {
			d[t] = a[t] + b[t]
		}
	}
	zeroFn := func(d []float64, _ [][]float64) { clear(d) }

	// Each processor clears its own section of the shared buckets; the
	// barrier that follows makes the staggered accumulation order-free.
	zeroOwn := []ir.Stmt{
		ir.Compute{Sym: "blo0", Fn: func(e rsd.Env) int { return blockLow(e["buckets"], e["p"], e["nprocs"]) }},
		ir.Compute{Sym: "bhi0", Fn: func(e rsd.Env) int { return blockHigh(e["buckets"], e["p"], e["nprocs"]) }},
		ir.LockAcquire{ID: v("p")},
		ir.Loop{Var: "b", Lo: v("blo0"), Hi: v("bhi0"), Body: []ir.Stmt{
			ir.Assign{LHS: ir.At("buckets", b), Fn: zeroFn, Cost: isBucketCost / 4},
		}},
		ir.LockRelease{ID: v("p")},
		ir.Barrier{ID: 3},
	}

	// Staggered visits to the sections (own first): accumulate under locks;
	// the bucket data is migratory.
	stagger := ir.Loop{Var: "s", Lo: c(0), Hi: v("nprocs").Plus(-1), Body: []ir.Stmt{
		ir.Compute{Sym: "sec", Fn: func(e rsd.Env) int { return (e["p"] + e["s"]) % e["nprocs"] }},
		ir.Compute{Sym: "blo", Fn: func(e rsd.Env) int { return blockLow(e["buckets"], e["sec"], e["nprocs"]) }},
		ir.Compute{Sym: "bhi", Fn: func(e rsd.Env) int { return blockHigh(e["buckets"], e["sec"], e["nprocs"]) }},
		ir.LockAcquire{ID: v("sec")},
		ir.Loop{Var: "b", Lo: v("blo"), Hi: v("bhi"), Body: []ir.Stmt{
			ir.Assign{LHS: ir.At("buckets", b), RHS: []ir.Ref{ir.At("buckets", b), ir.At("priv", b, v("pcol"))}, Fn: addFn, Cost: isBucketCost},
		}},
		ir.LockRelease{ID: v("sec")},
	}}

	// Each rank's prefix sums (rankKernel) are its private state, the
	// buffer handed back zeroed from the rank's last run.
	prog.Local = func(prev any) any {
		if buf, ok := prev.(*[]float64); ok {
			clear(*buf)
			return buf
		}
		return new([]float64)
	}
	rankKernel := ir.Kernel{
		Name: "rank",
		Accesses: []ir.TaggedSection{
			{
				Sec:   rsd.Section{Array: "buckets", Dims: []rsd.Bound{rsd.Dense(c(1), v("buckets"))}},
				Tag:   rsd.Read,
				Exact: true,
			},
			{
				Sec: rsd.Section{Array: "ranks", Dims: []rsd.Bound{
					rsd.Dense(v("klo"), v("khi")),
				}},
				Tag:   rsd.Write | rsd.WriteFirst,
				Exact: true,
			},
		},
		Run: func(ctx ir.KernelCtx) {
			e := ctx.Env()
			nb, klo, khi := e["buckets"], e["klo"], e["khi"]
			blo := ctx.Array("buckets").Index(1)
			bdata := ctx.ReadRegion(blo, blo+nb)
			// Prefix sums: rank of a key k is the number of keys < k. Each
			// rank keeps its buffer from one iteration to the next; every
			// element is written before it is read.
			buf := ctx.Local().(*[]float64)
			if cap(*buf) < nb {
				*buf = make([]float64, nb)
			}
			prefix := (*buf)[:nb]
			run := 0.0
			for t := 0; t < nb; t++ {
				prefix[t] = run
				run += bdata[blo+t]
			}
			rlo := ctx.Array("ranks").Index(klo)
			rdata := ctx.WriteRegion(rlo, rlo+khi-klo+1)
			for g := klo - 1; g <= khi-1; g++ {
				rdata[rlo+g-(klo-1)] = prefix[isKey(g, nb)]
			}
			ctx.Charge(time.Duration(khi-klo+1)*isKeyCost + time.Duration(nb)*isBucketCost)
		},
	}

	var iter []ir.Stmt
	iter = append(iter, countKernel)
	iter = append(iter, zeroOwn...)
	iter = append(iter, stagger, ir.Barrier{ID: 1}, rankKernel, ir.Barrier{ID: 2})

	prog.Body = []ir.Stmt{
		ir.Barrier{ID: 0},
		ir.Loop{Var: "it", Lo: c(1), Hi: v("iters"), Body: iter},
	}
	return prog
}

// isMP is the hand-coded message-passing IS. It reproduces the pipelined
// structure the paper credits for PVMe's edge: partial section sums flow
// around a ring (each processor adds its private counts and forwards), so
// the transfer to the next processor is pipelined; afterwards each final
// section is broadcast for ranking.
func isMP(r *mp.Rank, params rsd.Env, perIter time.Duration, verify bool) float64 {
	nb, keys, iters := params["buckets"], params["keys"], params["iters"]
	// Exact block partitions (0-based, half-open) of keys and bucket
	// sections; at dividing counts they reduce to the historical keys/N and
	// buckets/N blocks.
	klo := r.ID * keys / r.N
	khi := (r.ID + 1) * keys / r.N
	kp := khi - klo
	secLo := func(s int) int { return s * nb / r.N }
	secHi := func(s int) int { return (s + 1) * nb / r.N }
	priv := make([]float64, nb)
	all := make([]float64, nb)
	ranks := make([]float64, kp)

	for it := 0; it < iters; it++ {
		if perIter > 0 {
			r.AdvanceFixed(perIter)
		}
		for t := range priv {
			priv[t] = 0
		}
		for g := klo; g < khi; g++ {
			priv[isKey(g, nb)]++
		}
		r.Advance(time.Duration(kp)*isKeyCost + time.Duration(nb)*isBucketCost/4)

		// Ring pipeline: section s is completed at rank (s+N-1) mod N after
		// passing through all ranks starting at rank s.
		next := (r.ID + 1) % r.N
		prev := (r.ID - 1 + r.N) % r.N
		// Start own section.
		sec := r.ID
		cur := append([]float64(nil), priv[secLo(sec):secHi(sec)]...)
		for hop := 0; hop < r.N-1; hop++ {
			r.Send(next, cur)
			in := r.Recv(prev)
			sec = (sec - 1 + r.N) % r.N
			cur = in
			for t := secLo(sec); t < secHi(sec); t++ {
				cur[t-secLo(sec)] += priv[t]
			}
			r.Advance(time.Duration(secHi(sec)-secLo(sec)) * isBucketCost)
		}
		// cur now holds the completed section `sec`; share all sections.
		copy(all[secLo(sec):secHi(sec)], cur)
		for q := 0; q < r.N; q++ {
			owner := (q + r.N - 1) % r.N // rank holding completed section q
			if owner == r.ID {
				blk := r.Bcast(owner, all[secLo(q):secHi(q)])
				copy(all[secLo(q):secHi(q)], blk)
			} else {
				blk := r.Bcast(owner, nil)
				copy(all[secLo(q):secHi(q)], blk)
			}
		}

		prefix := make([]float64, nb)
		run := 0.0
		for t := 0; t < nb; t++ {
			prefix[t] = run
			run += all[t]
		}
		for g := klo; g < khi; g++ {
			ranks[g-klo] = prefix[isKey(g, nb)]
		}
		r.Advance(time.Duration(kp)*isKeyCost + time.Duration(nb)*isBucketCost)
	}

	if !verify {
		return 0
	}
	sum := ChecksumSlice(ranks, klo)
	return gatherSum(r, sum)
}
