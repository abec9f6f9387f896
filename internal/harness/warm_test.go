package harness

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"sdsm/internal/apps"
	"sdsm/internal/ir"
	"sdsm/internal/leaktest"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
)

// kernelApp is a test-local application over one n-word array: every
// rank runs the opaque kernel run, then everyone meets at a barrier.
func kernelApp(n int, run func(rank int, ctx ir.KernelCtx)) *apps.App {
	prog := &ir.Program{
		Name:   "kernel",
		Arrays: []ir.ArrayDecl{{Name: "x", Dims: []rsd.Lin{rsd.Const(n)}}},
		Body: []ir.Stmt{
			ir.Kernel{Name: "run", Run: func(ctx ir.KernelCtx) { run(ctx.Env()["p"], ctx) }},
			ir.Barrier{ID: 1},
		},
	}
	return &apps.App{
		Name:       "kernel",
		Build:      func(int) *ir.Program { return prog },
		Sets:       map[apps.DataSet]rsd.Env{apps.Small: {}},
		CheckArray: "x",
	}
}

// hostileApp runs misbehave on rank 1's memory image.
func hostileApp(misbehave func(mem []float64)) *apps.App {
	return kernelApp(1024, func(rank int, ctx ir.KernelCtx) {
		if rank == 1 {
			misbehave(ctx.WriteRegion(0, 1))
		}
	})
}

// idleLoans counts the data loans outstanding on harness's idle list,
// which must be none: a run gives its stores back only after release.
func idleLoans() (n int) {
	idle.Lock()
	sts := slices.Clone(idle.stores)
	idle.Unlock()
	for _, st := range sts {
		n += st.Arena().Loans()
	}
	return n
}

// TestFailedJobReleasesArenas is "a job can fail; the pool cannot" at the
// layer that owns the loans: a job whose program faults on one rank, and
// a job that scribbles past its address space into the arena's guard
// words, must each fail loudly AND hand every loan back to harness's idle
// list — so that a clean run borrowing the same arenas afterwards
// succeeds and finds them unpoisoned instead of re-auditing the dead
// job's storage forever.
func TestFailedJobReleasesArenas(t *testing.T) {
	jac, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	clean := Config{App: jac, Set: apps.Small, System: Base, Procs: 2, Verify: true}
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
				t.Run("fresh", func(t *testing.T) {
					// Rank 0 is parked at the barrier when rank 1 dies: the
					// backend must unwind it, not leave it pinning the node
					// images (the sim engine used to).
					leaktest.Check(t)
					_, err := Run(Config{App: hostileApp(c.misbehave), Set: apps.Small, System: Base, Procs: 2, Backend: backend})
					if err == nil || !strings.Contains(err.Error(), c.wantErr) {
						t.Fatalf("hostile job: err = %v, want %q", err, c.wantErr)
					}
					if n := idleLoans(); n != 0 {
						t.Fatalf("failed job left %d arena loan(s) outstanding", n)
					}
					cfg := clean
					cfg.Backend = backend
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("clean job after a failed one: %v", err)
					}
					if res.Checksum != fresh.Checksum {
						t.Errorf("clean job checksum %v, fresh run %v", res.Checksum, fresh.Checksum)
					}
					if n := idleLoans(); n != 0 {
						t.Errorf("clean job left %d arena loan(s) outstanding", n)
					}
				})
			})
		}
	}
}

// TestFreshRunSeesNoPreviousRun is the idle list's isolation check: a
// run whose every rank writes a non-zero pattern over its whole image —
// through the image slice, far past the one page it validated, which
// only zeroing the whole loan can hide — then a run whose every rank
// reads its whole image at first touch and fails on any non-zero word,
// on a smaller machine, the same one, and a larger one over a bigger
// layout. A first 8-rank dirty run over the widest layout leaves every
// idle arena a store wider than any later image and dirty to its end, so
// every later take recycles a store and must clear all it lends.
func TestFreshRunSeesNoPreviousRun(t *testing.T) {
	const words = 4 * shm.PageWords
	run := func(t *testing.T, procs, n int, kernel func(rank int, mem []float64)) {
		t.Helper()
		app := kernelApp(n, func(rank int, ctx ir.KernelCtx) { kernel(rank, ctx.ReadRegion(0, 1)) })
		if _, err := Run(Config{App: app, Set: apps.Small, System: Base, Procs: procs}); err != nil {
			t.Fatal(err)
		}
	}
	dirty := func(rank int, mem []float64) {
		for i := range mem {
			mem[i] = float64(rank*len(mem) + i + 1)
		}
	}
	check := func(rank int, mem []float64) {
		for i, v := range mem {
			if v != 0 {
				panic(fmt.Sprintf("rank %d word %d = %v: a previous run's word", rank, i, v))
			}
		}
	}
	run(t, 8, 4*words, dirty)
	for _, c := range []struct {
		name                   string
		dirtyProcs, checkProcs int
		checkWords             int
	}{
		{"smaller", 8, 2, words},
		{"same", 8, 8, words},
		{"larger", 2, 8, 2 * words},
	} {
		t.Run(c.name, func(t *testing.T) {
			run(t, c.dirtyProcs, words, dirty)
			run(t, c.checkProcs, c.checkWords, check)
		})
	}
}

// TestConcurrentFreshRunsReproduce is idle-list reuse under concurrency:
// four goroutines run a mix of sim-base, sim-modes and net
// configurations several times each, so machines of different sizes and
// modes borrow and return one another's arenas, and every run must
// reproduce its configuration's first run in this process — checksum,
// virtual time and messages on sim; the checksum on net, whose schedule
// is real.
func TestConcurrentFreshRunsReproduce(t *testing.T) {
	cfg := func(app string, set apps.DataSet, procs int, mod func(*Config)) Config {
		a, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		c := Config{App: a, Set: set, System: Base, Procs: procs, Backend: BackendSim, Verify: true}
		if mod != nil {
			mod(&c)
		}
		return c
	}
	cfgs := []Config{
		cfg("jacobi", apps.Small, 8, nil),
		cfg("is", apps.Small, 8, nil),
		cfg("jacobi", "bound", 4, func(c *Config) { c.Adapt = true }),
		cfg("spmv", apps.Small, 4, func(c *Config) { c.Scale = true }),
		cfg("jacobi", apps.Small, 2, func(c *Config) { c.Recover = true }),
		cfg("jacobi", apps.Small, 4, func(c *Config) { c.Backend = BackendNet }),
	}
	want := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*len(cfgs); r++ {
				i := (g + r) % len(cfgs) // each goroutine its own rotation
				c, w := cfgs[i], want[i]
				label := fmt.Sprintf("goroutine %d: %s/%s/%s p%d", g, c.App.Name, c.Set, c.Backend, c.Procs)
				res, err := Run(c)
				switch {
				case err != nil:
					t.Errorf("%s: %v", label, err)
				case res.Checksum != w.Checksum:
					t.Errorf("%s: checksum %v, first run %v", label, res.Checksum, w.Checksum)
				case c.Backend == BackendSim && (res.Time != w.Time || res.Msgs != w.Msgs):
					t.Errorf("%s: time %v msgs %d, first run %v msgs %d", label, res.Time, res.Msgs, w.Time, w.Msgs)
				}
			}
		}()
	}
	wg.Wait()
	if n := idleLoans(); n != 0 {
		t.Errorf("%d arena loan(s) outstanding on the idle list after every run returned", n)
	}
}

// TestWarmStoresAreInvisible is the stores' reuse rules at work: a store
// a larger, different run grew — jacobi/large compiler-optimised, spmv
// under the adaptive protocol, then mgs compiler-optimised, whose
// Validate_w_sync builds the barrier master's responder index, all at 8
// ranks — and a gauss/small run checkpointing, full and incremental
// records, after which every store holds a released record chain, must
// leave no trace in the runs that borrow it next. is/small base and
// gauss/small opt on sim, jacobi/small base on net, and jacobi/small base
// on sim checkpointing with rank 3 killed and restored at its fifth
// barrier each match a run on cold stores, made for it alone with the idle
// list set aside, bit for bit: checksum, messages, bytes, every protocol
// and vm counter and the recovery counters, and on sim the virtual time.
// (On net the virtual time follows the real schedule and differs between
// two cold runs as well.) A release that left a record chain in its store
// fails the restoring run: its rank's first record finds the chain there.
func TestWarmStoresAreInvisible(t *testing.T) {
	cfg := func(app string, set apps.DataSet, sys SystemKind, procs int, mod func(*Config)) Config {
		a, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		c := Config{App: a, Set: set, System: sys, Procs: procs, Backend: BackendSim, Verify: true}
		if mod != nil {
			mod(&c)
		}
		return c
	}
	run := func(c Config) *Result {
		t.Helper()
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := func(c Config) *Result {
		t.Helper()
		idle.Lock()
		kept := idle.stores
		idle.stores = nil
		idle.Unlock()
		defer func() {
			idle.Lock()
			idle.stores = kept
			idle.Unlock()
		}()
		return run(c)
	}
	cfgs := []Config{
		cfg("is", apps.Small, Base, 8, nil),
		cfg("gauss", apps.Small, Opt, 8, nil),
		cfg("jacobi", apps.Small, Base, 4, func(c *Config) { c.Backend = BackendNet }),
		cfg("jacobi", apps.Small, Base, 8, func(c *Config) { c.Recover, c.Fault = true, &FaultPlan{Rank: 3, Epoch: 5} }),
	}
	want := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		want[i] = cold(c)
	}
	run(cfg("jacobi", apps.Large, Opt, 8, nil))
	run(cfg("spmv", apps.Large, Base, 8, func(c *Config) { c.Adapt = true }))
	run(cfg("mgs", apps.Small, Opt, 8, nil)) // leaves the masters' Validate_w_sync index built
	run(cfg("gauss", apps.Small, Base, 8, func(c *Config) { c.Recover = true }))
	idle.Lock()
	warm := len(idle.stores)
	idle.Unlock()
	for i, c := range cfgs {
		got, w := run(c), want[i]
		label := fmt.Sprintf("%s/%s/%s/%s p%d", c.App.Name, c.Set, c.System, c.Backend, c.Procs)
		if got.Checksum != w.Checksum || got.Msgs != w.Msgs || got.Bytes != w.Bytes {
			t.Errorf("%s on warm stores: checksum %v, %d msgs, %d bytes; on cold ones %v, %d, %d",
				label, got.Checksum, got.Msgs, got.Bytes, w.Checksum, w.Msgs, w.Bytes)
		}
		if got.Protocol != w.Protocol || got.VM != w.VM {
			t.Errorf("%s on warm stores: counters\n%+v\n%+v\non cold ones\n%+v\n%+v", label, got.Protocol, got.VM, w.Protocol, w.VM)
		}
		if got.Recovery != w.Recovery || (c.Recover && got.Recovery.Restores != 1) {
			t.Errorf("%s on warm stores: recovery %+v, on cold ones %+v", label, got.Recovery, w.Recovery)
		}
		if c.Backend == BackendSim && got.Time != w.Time {
			t.Errorf("%s on warm stores: virtual time %v, on cold ones %v", label, got.Time, w.Time)
		}
	}
	idle.Lock()
	defer idle.Unlock()
	if len(idle.stores) != warm {
		t.Errorf("the idle list holds %d stores after the warm runs, %d before: a run made stores of its own", len(idle.stores), warm)
	}
}
