package apps

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"sdsm/internal/ir"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
)

// spmvNbrMod is spmvNbr as first written, every wrap a modulo: the oracle
// the division-free version is held to.
func spmvNbrMod(g, j, n int) int {
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
	reach := shm.PageWords
	if j == 3 {
		reach = 2 * shm.PageWords
	}
	d := int(x%uint64(2*reach)) - reach
	return ((g+d)%n + n) % n
}

// pageRuns converts a touched-page set into sorted [first, last+1) page
// runs: the map-and-sort walk the relax kernel's bitset replaced.
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

// relaxOracle is the relax kernel as first written: a map of touched
// pages, sorted into runs, and every neighbor found by modulo.
func relaxOracle(ctx ir.KernelCtx) {
	e := ctx.Env()
	n, lo, hi := e["n"], e["lo"], e["hi"]
	vbase := ctx.Array("val").Index(1)
	touched := map[int]bool{}
	for g := lo - 1; g <= hi-1; g++ {
		for j := 0; j < 4; j++ {
			touched[(vbase+spmvNbrMod(g, j, n))/shm.PageWords] = true
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
			s += data[vbase+spmvNbrMod(g, j, n)]
		}
		out[wbase+g] = 0.25 * s
	}
	ctx.Charge(time.Duration(hi-lo+1) * spmvRelaxCost)
}

// TestSpmvNbrMatchesModulo holds the division-free neighbor function to the
// modulo one at every element and neighbor of rings smaller than a jump's
// reach (the modulo fallback), equal to it, not a power of two, and the
// sizes spmv runs.
func TestSpmvNbrMatchesModulo(t *testing.T) {
	for _, n := range []int{1, 2, 511, 512, 1000, 1024, 8192, 32768} {
		for g := range n {
			for j := range 4 {
				prev, next, near, far := spmvNbrs(g, n)
				if got, want := [4]int{prev, next, near, far}[j], spmvNbrMod(g, j, n); got != want {
					t.Fatalf("n=%d: neighbor %d of %d is %d, modulo says %d", n, j, g, got, want)
				}
			}
		}
	}
}

// kernelCall is one call a kernel makes on its context.
type kernelCall struct {
	op     string
	lo, hi int
	d      time.Duration
}

// recordingCtx is a kernel context over a private image that logs every
// access and charge in order; local is the private state it hands the
// kernel.
type recordingCtx struct {
	env    rsd.Env
	layout *shm.Layout
	mem    []float64
	log    []kernelCall
	local  any
}

func (c *recordingCtx) Env() rsd.Env                 { return c.env }
func (c *recordingCtx) Array(name string) *shm.Array { return c.layout.Array(name) }
func (c *recordingCtx) ReadRegion(lo, hi int) []float64 {
	c.log = append(c.log, kernelCall{op: "read", lo: lo, hi: hi})
	return c.mem
}
func (c *recordingCtx) WriteRegion(lo, hi int) []float64 {
	c.log = append(c.log, kernelCall{op: "write", lo: lo, hi: hi})
	return c.mem
}
func (c *recordingCtx) Charge(d time.Duration) {
	c.log = append(c.log, kernelCall{op: "charge", d: d})
}
func (c *recordingCtx) Local() any { return c.local }

// relaxKernel returns the relax kernel of spmv's program for nprocs.
func relaxKernel(t testing.TB, nprocs int) ir.Kernel {
	t.Helper()
	for _, st := range spmvProg(nprocs).Body {
		if l, ok := st.(ir.Loop); ok {
			for _, st := range l.Body {
				if k, ok := st.(ir.Kernel); ok && k.Name == "relax" {
					return k
				}
			}
		}
	}
	t.Fatal("spmv builds no relax kernel")
	return ir.Kernel{}
}

// newRelaxCtx lays val out behind pad words of another array, so its
// first page is pad rounded up to pages, and seeds the image; the kernel
// gets local as its private state.
func newRelaxCtx(env rsd.Env, pad int, local any) *recordingCtx {
	layout := shm.NewLayout()
	layout.Alloc("pad", pad)
	layout.Alloc("val", env["n"])
	layout.Alloc("nval", env["n"])
	pages := (layout.Words() + shm.PageWords - 1) / shm.PageWords
	mem := make([]float64, pages*shm.PageWords)
	rnd := rand.New(rand.NewSource(int64(env["p"])))
	for w := range mem {
		mem[w] = rnd.Float64()
	}
	return &recordingCtx{env: env, layout: layout, mem: mem, local: local}
}

// relaxMatches runs kernel twice, on fresh contexts of env handing it the
// private state local, and relaxOracle once, and reports the first call of
// either run, or word of its image, that differs from the oracle's.
func relaxMatches(kernel ir.Kernel, local any, env rsd.Env, pad int) error {
	want := newRelaxCtx(env, pad, nil)
	relaxOracle(want)
	for call := range 2 {
		got := newRelaxCtx(env, pad, local)
		kernel.Run(got)
		if !reflect.DeepEqual(got.log, want.log) {
			return fmt.Errorf("call %d: the kernel calls\n%v\nthe oracle\n%v", call, got.log, want.log)
		}
		for w := range got.mem {
			if math.Float64bits(got.mem[w]) != math.Float64bits(want.mem[w]) {
				return fmt.Errorf("call %d: word %d is %v, the oracle wrote %v", call, w, got.mem[w], want.mem[w])
			}
		}
	}
	return nil
}

// TestSpmvRelaxMatchesOracle runs the relax kernel and relaxOracle for
// every rank of spmv small and large at every rank count the suite pins,
// and of rings smaller than a page and than a jump, with val's first page
// at 4 and at 70, and requires the same reads, write and charge in the
// same order and the same values written, bit for bit. Each rank keeps
// its private state across every size and runs each twice, so a call that
// its remembered page set serves is held to the oracle too, after a change
// of size.
func TestSpmvRelaxMatchesOracle(t *testing.T) {
	var sizes []rsd.Env
	for _, set := range []DataSet{Small, Large} {
		sizes = append(sizes, SpMV().Sets[set])
	}
	sizes = append(sizes, rsd.Env{"n": 300}, rsd.Env{"n": 1000}, rsd.Env{"n": 5000})
	for _, nprocs := range []int{1, 2, 3, 4, 5, 8, 16, 32} {
		kernel, prog := relaxKernel(t, nprocs), spmvProg(nprocs)
		locals := make([]any, nprocs)
		for p := range locals {
			locals[p] = prog.Local(nil)
		}
		for _, params := range sizes {
			for _, pad := range []int{3*shm.PageWords + 1, 70 * shm.PageWords} {
				for p := range nprocs {
					if err := relaxMatches(kernel, locals[p], prog.Env(params, p, nprocs), pad); err != nil {
						t.Fatalf("n=%d pad=%d p=%d/%d: %v", params["n"], pad, p, nprocs, err)
					}
				}
			}
		}
	}
}

// TestSpmvRelaxMemoKey runs rank 0 of one program, with one private state,
// over blocks that agree with the call before in all but one of n, lo and
// hi, so a page set remembered without any one of them would serve a call
// the last one's pages.
func TestSpmvRelaxMemoKey(t *testing.T) {
	kernel, local := relaxKernel(t, 1), spmvProg(1).Local(nil)
	for _, b := range [][3]int{{8192, 1, 1000}, {32768, 1, 1000}, {32768, 1, 20000}, {32768, 19001, 20000}, {8192, 1, 1000}} {
		env := rsd.Env{"p": 0, "n": b[0], "lo": b[1], "hi": b[2]}
		if err := relaxMatches(kernel, local, env, shm.PageWords); err != nil {
			t.Fatalf("n=%d, elements %d..%d: %v", b[0], b[1], b[2], err)
		}
	}
}

// TestSpmvRelaxConcurrentRanks runs every rank of one program at once, as
// the real and net backends do, each three times with the private state
// its executor would make: under the race detector it fails if the kernel
// writes anything between calls that is not that state.
func TestSpmvRelaxConcurrentRanks(t *testing.T) {
	const nprocs = 8
	kernel, prog := relaxKernel(t, nprocs), spmvProg(nprocs)
	params := SpMV().Sets[Small]
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for p := range nprocs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := prog.Local(nil)
			for range 3 {
				if errs[p] == nil {
					errs[p] = relaxMatches(kernel, local, prog.Env(params, p, nprocs), shm.PageWords)
				}
			}
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

// TestPageSetRunsMatchPageRuns holds the bitset's run walk to pageRuns on
// random sets of every density, sized below, at and above a word and
// above the relax kernel's stack buffer.
func TestPageSetRunsMatchPageRuns(t *testing.T) {
	rnd := rand.New(rand.NewSource(39))
	var stack [4]uint64
	for _, pages := range []uint{1, 5, 63, 64, 65, 128, 200, 256, 257, 700} {
		for trial := range 200 {
			density := float64(trial%10) / 9
			set, want := newPageSet(stack[:], pages), map[int]bool{}
			for pg := range pages {
				if rnd.Float64() < density {
					set.add(pg)
					want[int(pg)] = true
				}
			}
			var got [][2]int
			for lo, hi := set.run(0); lo < hi; lo, hi = set.run(hi) {
				got = append(got, [2]int{int(lo), int(hi)})
			}
			if w := pageRuns(want); !reflect.DeepEqual(got, w) {
				t.Fatalf("%d pages, density %.2f: runs %v, pageRuns %v", pages, density, got, w)
			}
		}
	}
}
