package harness

import (
	"strings"
	"testing"
	"unsafe"

	"sdsm/internal/apps"
	"sdsm/internal/ir"
	"sdsm/internal/leaktest"
	"sdsm/internal/rsd"
	"sdsm/internal/vm"
)

// hostileApp is a test-local application whose only statement is an
// opaque kernel: rank 1 runs misbehave on its memory image, everyone then
// meets at a barrier.
func hostileApp(misbehave func(mem []float64)) *apps.App {
	prog := &ir.Program{
		Name:   "hostile",
		Arrays: []ir.ArrayDecl{{Name: "x", Dims: []rsd.Lin{rsd.Const(1024)}}},
		Body: []ir.Stmt{
			ir.Kernel{Name: "misbehave", Run: func(ctx ir.KernelCtx) {
				if ctx.Env()["p"] == 1 {
					misbehave(ctx.WriteRegion(0, 1))
				}
			}},
			ir.Barrier{ID: 1},
		},
	}
	return &apps.App{
		Name:       "hostile",
		Build:      func(int) *ir.Program { return prog },
		Sets:       map[apps.DataSet]rsd.Env{Small: {}},
		CheckArray: "x",
	}
}

// TestFailedJobReleasesArenas is "a job can fail; the pool cannot" at the
// layer that owns the loans: a job whose program faults on one rank, and
// a job that scribbles past its address space into the arena's guard
// words, must each fail loudly AND hand every loan back — so that a clean
// job scheduled on the same slots afterwards succeeds instead of
// re-auditing the dead job's storage forever.
func TestFailedJobReleasesArenas(t *testing.T) {
	jac, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	clean := Config{App: jac, Set: Small, System: Base, Procs: 2, Verify: true}
	fresh, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		misbehave func(mem []float64)
		wantErr   string
	}{
		{"program fault", func([]float64) { panic("injected program fault") }, "injected program fault"},
		{"guard trip", func(mem []float64) {
			// The loan is capacity-capped before the guards, so an overrun
			// needs pointer arithmetic, like the bug it stands in for.
			*(*float64)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(mem)), len(mem)*8)) = 42
		}, "guard word"},
	}
	for _, backend := range []Backend{BackendSim, BackendNet} {
		for _, c := range cases {
			t.Run(string(backend)+"/"+c.name, func(t *testing.T) {
				// Rank 0 is parked at the barrier when rank 1 dies: the
				// backend must unwind it, not leave it pinning the node
				// images (the sim engine used to).
				leaktest.Check(t)
				pool := []*vm.Arena{vm.NewArena(), vm.NewArena()}
				loans := func() (n int) {
					for _, ar := range pool {
						n += ar.Loans()
					}
					return n
				}
				_, err := Run(Config{App: hostileApp(c.misbehave), Set: Small, System: Base, Procs: 2, Backend: backend, Arenas: pool})
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("hostile job: err = %v, want %q", err, c.wantErr)
				}
				if n := loans(); n != 0 {
					t.Fatalf("failed job left %d arena loan(s) outstanding", n)
				}
				cfg := clean
				cfg.Backend, cfg.Arenas = backend, pool
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("clean job after a failed one: %v", err)
				}
				if res.Checksum != fresh.Checksum {
					t.Errorf("clean job checksum %v, fresh run %v", res.Checksum, fresh.Checksum)
				}
				if n := loans(); n != 0 {
					t.Errorf("clean job left %d arena loan(s) outstanding", n)
				}
			})
		}
	}
}
