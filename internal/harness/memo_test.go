package harness

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sdsm/internal/apps"
)

// TestMemoisedProgramIsReentrant pins that a program the memo hands out
// carries no state from one run to the next, nor between two machines
// running it at once: every application, at Base and at its best Opt
// options, on a fresh build and on the memo's entry. (a) The entry run
// twice in sequence on sim must give the fresh build's Result both times —
// checksum, virtual time and every protocol counter; a kernel that kept a
// bound from the last run would start the next one pruned, and the second
// run is the first on an executor set a finished machine gave back. (b) A
// run that fails — a fault whose records cannot be stored — drops its set,
// and a third and a fourth run, on recycled sets, must still give the
// fresh Result: an executor that kept its environment view, its private
// state or a memo that its bounds do not determine would differ. (c) The
// entry run on two real machines at once must give the fresh checksum on
// both, and under the race detector a kernel writing state the two
// machines share, or two machines handed one executor set, fails it.
func TestMemoisedProgramIsReentrant(t *testing.T) {
	const procs = 4
	for _, a := range apps.All() {
		for _, sys := range []SystemKind{Base, Opt} {
			t.Run(fmt.Sprintf("%s/%s", a.Name, sys), func(t *testing.T) {
				cfg := Config{App: a, Set: apps.Small, System: sys, Procs: procs, Verify: true, Backend: BackendSim}
				fresh, err := runDSM(cfg, build(cfg))
				if err != nil {
					t.Fatal(err)
				}
				rp := runnableFor(cfg)
				if again := runnableFor(cfg); again != rp {
					t.Fatalf("a second lookup of one shape built its program again")
				}
				simRun := func(i int) {
					t.Helper()
					res, err := runDSM(cfg, rp)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, fresh) {
						t.Fatalf("sim run %d of the memoised program:\n got %+v\nwant %+v (a fresh build's)", i, res, fresh)
					}
				}
				simRun(1)
				simRun(2)
				failing := cfg
				failing.Fault = &FaultPlan{Rank: 1, Epoch: 2}
				failing.CheckpointDir = filepath.Join(t.TempDir(), "missing")
				if _, err := runDSM(failing, rp); err == nil {
					t.Fatalf("a run whose checkpoint directory does not exist returned no error")
				}
				simRun(3)
				simRun(4)

				onReal := cfg
				onReal.Backend = BackendReal
				var wg sync.WaitGroup
				results := make([]*Result, 2)
				errs := make([]error, 2)
				for m := range results {
					wg.Add(1)
					go func() {
						defer wg.Done()
						results[m], errs[m] = runDSM(onReal, rp)
					}()
				}
				wg.Wait()
				for m, res := range results {
					if errs[m] != nil {
						t.Fatalf("real machine %d: %v", m, errs[m])
					}
					if res.Checksum != fresh.Checksum {
						t.Errorf("real machine %d of two at once: checksum %v, a fresh build's %v", m, res.Checksum, fresh.Checksum)
					}
				}
			})
		}
	}
}
