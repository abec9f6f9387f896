//go:build !race

package apps

import (
	"testing"

	"sdsm/internal/shm"
)

// TestSpmvRelaxAllocs pins the relax kernel at no allocation per call at
// both of spmv's sizes, once the rank's private state remembers its page
// set. A map of pages and the sorted list made from it used to allocate on
// every call.
func TestSpmvRelaxAllocs(t *testing.T) {
	for _, set := range []DataSet{Small, Large} {
		params := SpMV().Sets[set]
		for _, nprocs := range []int{1, 4, 8, 32} {
			prog := spmvProg(nprocs)
			kernel := relaxKernel(t, nprocs)
			ctx := newRelaxCtx(prog.Env(params, nprocs-1, nprocs), shm.PageWords, prog.Local())
			ctx.log = make([]kernelCall, 0, 1<<10)
			if a := testing.AllocsPerRun(10, func() { ctx.log = ctx.log[:0]; kernel.Run(ctx) }); a != 0 {
				t.Errorf("%s p%d/%d: the relax kernel allocates %.1f objects per call, want 0", set, nprocs-1, nprocs, a)
			}
		}
	}
}
