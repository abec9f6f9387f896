package apps_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/ir"
)

// assignments returns every ir.Assign reachable in stmts.
func assignments(stmts []ir.Stmt) (out []ir.Assign) {
	for _, st := range stmts {
		switch st := st.(type) {
		case ir.Assign:
			out = append(out, st)
		case ir.Loop:
			out = append(out, assignments(st.Body)...)
		case ir.If:
			out = append(out, assignments(st.Then)...)
			out = append(out, assignments(st.Else)...)
		}
	}
	return out
}

// kernelSpan is the length the kernels are tried at: odd, and longer than
// any unrolling a kernel might do.
const kernelSpan = 17

// kernelRun calls a's kernel over kernelSpan elements of seeded operands —
// the operands that name the very element assigned being the destination
// itself when alias is set — in one call (whole) or one call per element,
// and returns the destination. Every buffer has a guard word either side.
func kernelRun(t *testing.T, a ir.Assign, alias, whole bool) []float64 {
	t.Helper()
	guard := math.Float64frombits(0x7ff8_0000_dead_beef)
	rnd := rand.New(rand.NewSource(24))
	buffer := func() []float64 {
		b := make([]float64, kernelSpan+2)
		for w := range b {
			b[w] = 0.5 + rnd.Float64()
		}
		b[0], b[kernelSpan+1] = guard, guard
		return b
	}
	bufs := [][]float64{buffer()}
	src := make([][]float64, len(a.RHS)) // len == cap: a kernel reaching past its operands panics
	for j, r := range a.RHS {
		if alias && reflect.DeepEqual(r, a.LHS) {
			src[j] = bufs[0][1 : kernelSpan+1]
			continue
		}
		bufs = append(bufs, buffer())
		src[j] = bufs[len(bufs)-1][1 : kernelSpan+1]
	}
	dst := bufs[0][1 : kernelSpan+1]
	before := make([][]float64, len(bufs))
	for k := range bufs {
		before[k] = append([]float64(nil), bufs[k]...)
	}
	if whole {
		a.Fn(dst, src)
	} else {
		one := make([][]float64, len(src))
		for e := 0; e < kernelSpan; e++ {
			for j := range src {
				one[j] = src[j][e : e+1 : e+1]
			}
			a.Fn(dst[e:e+1:e+1], one)
		}
	}
	for k, b := range bufs {
		if math.Float64bits(b[0]) != math.Float64bits(guard) || math.Float64bits(b[kernelSpan+1]) != math.Float64bits(guard) {
			t.Errorf("buffer %d: the kernel wrote outside its span", k)
		}
		if k > 0 && !reflect.DeepEqual(b[1:kernelSpan+1], before[k][1:kernelSpan+1]) {
			t.Errorf("buffer %d: the kernel wrote to an operand", k)
		}
	}
	return dst
}

// TestKernelContract holds every assignment of every application to the
// kernel's half of ir.Assign's contract: elementwise and independent of
// position (one call over a span and one call per element leave the same
// bits, with separate buffers and with the aliasing the assignment's own
// references ask for), exactly len(RHS) operands read, nothing written but
// dst. The executor chooses between those call forms by address alone, and
// its oracle calls kernels one element at a time, so both lean on this for
// the kernels no generated program contains.
func TestKernelContract(t *testing.T) {
	total := 0
	for _, app := range apps.All() {
		for _, nprocs := range []int{1, 8} {
			for k, a := range assignments(app.Build(nprocs).Body) {
				total++
				t.Run(fmt.Sprintf("%s/%d/%d:%s", app.Name, nprocs, k, a.LHS.Array), func(t *testing.T) {
					for _, alias := range []bool{false, true} {
						span, each := kernelRun(t, a, alias, true), kernelRun(t, a, alias, false)
						for e := range span {
							if math.Float64bits(span[e]) != math.Float64bits(each[e]) {
								t.Errorf("alias=%v, element %d: %v from the span call, %v on its own", alias, e, span[e], each[e])
							}
						}
					}
				})
			}
		}
	}
	// jacobi 2, gauss 2, is 2, fft 4, shallow 10, at both counts.
	if total != 40 {
		t.Errorf("walked %d assignments, the applications build 40", total)
	}
}
