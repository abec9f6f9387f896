package interp

import (
	"math/rand"
	"slices"
	"testing"

	"sdsm/internal/compiler"
	"sdsm/internal/ir"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
)

// randomSection draws a section of one of the arrays a and b (extents
// dims) whose bounds move with the rank p — an offset of up to two indices
// per rank, a length that may shrink with p to nothing — and stay inside
// the array on every one of nprocs ranks: dense and strided (1 to 8)
// dimensions, whole extents, single indices and empty bounds.
func randomSection(rnd *rand.Rand, dims []int, nprocs int) rsd.Section {
	p := rsd.Var("p")
	sec := rsd.Section{Array: []string{"a", "b"}[rnd.Intn(2)], Dims: make([]rsd.Bound, len(dims))}
	for d, ext := range dims {
		stride := 1
		if rnd.Intn(2) == 0 {
			stride = 1 + rnd.Intn(8)
		}
		for {
			lo := rsd.Const(1 + rnd.Intn(ext)).Add(p.Scale(rnd.Intn(3)))
			var hi rsd.Lin
			switch rnd.Intn(5) {
			case 0:
				lo, hi = rsd.Const(1), rsd.Const(ext)
			case 1:
				hi = lo
			case 2:
				hi = lo.Plus(-1 - rnd.Intn(2))
			default:
				hi = lo.Plus(rnd.Intn(ext)).Add(p.Scale(-rnd.Intn(2)))
			}
			inside := true
			for i := 0; i < nprocs; i++ {
				env := rsd.Env{"p": i}
				l, h := lo.Eval(env), hi.Eval(env)
				inside = inside && (h < l || l >= 1 && h <= ext)
			}
			if inside {
				sec.Dims[d] = rsd.Bound{Lo: lo, Hi: hi, Stride: stride}
				break
			}
		}
	}
	return sec
}

// TestPushPlanMatchesWordLists: for random Push statements at 1, 3 and 8
// ranks — one to three read and write sections each, over two arrays of a
// random 1- to 3-D shape — every rank's executor hands the runtime, for
// every peer, what word-list intersection of every rank's full region sets
// gives (refPlan): the section intersections, expanded and normalized,
// lose and add no word, and "receives from" is exact.
func TestPushPlanMatchesWordLists(t *testing.T) {
	crossed := 0
	for seed := int64(0); seed < 200; seed++ {
		for _, nprocs := range []int{1, 3, 8} {
			rnd := rand.New(rand.NewSource(seed))
			dims := make([]int, 1+rnd.Intn(3))
			for d := range dims {
				dims[d] = 1 + rnd.Intn(12) + 2*nprocs
			}
			var decl []rsd.Lin
			for _, ext := range dims {
				decl = append(decl, rsd.Const(ext))
			}
			st := ir.PushStmt{ReplacedBarrier: 1}
			for n := 1 + rnd.Intn(3); n > 0; n-- {
				st.Reads = append(st.Reads, randomSection(rnd, dims, nprocs))
			}
			for n := 1 + rnd.Intn(3); n > 0; n-- {
				st.Writes = append(st.Writes, randomSection(rnd, dims, nprocs))
			}
			prog := &ir.Program{Name: "push", Arrays: []ir.ArrayDecl{{Name: "a", Dims: decl}, {Name: "b", Dims: decl}}, Body: []ir.Stmt{st}}
			params := rsd.Env{}
			layout := compiler.BuildLayout(prog, params)
			ref := &refExecutor{layout: layout}
			reads, writes := make([][]shm.Region, nprocs), make([][]shm.Region, nprocs)
			for i := range reads {
				env := prog.Env(params, i, nprocs)
				reads[i], writes[i] = ref.regions(st.Reads, env), ref.regions(st.Writes, env)
			}
			lp := Lower(prog, layout, params, nprocs)
			for rank := 0; rank < nprocs; rank++ {
				rec := &pushRecorder{}
				newExecutor(lp, rank, rec).exec(lp.body)
				send, from := refPlan(rank, reads, writes)
				if !slices.EqualFunc(rec.send[0], send, slices.Equal) || !slices.Equal(rec.from[0], from) {
					t.Fatalf("seed %d, %d ranks, rank %d, reads %v, writes %v:\nsend %v from %v\nwant %v %v",
						seed, nprocs, rank, st.Reads, st.Writes, rec.send[0], rec.from[0], send, from)
				}
				for i := range send {
					if len(send[i]) > 0 {
						crossed++
					}
				}
			}
		}
	}
	if crossed < 200 {
		t.Fatalf("only %d non-empty sends: the generated sections barely cross", crossed)
	}
	t.Logf("%d non-empty sends", crossed)
}
