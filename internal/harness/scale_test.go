package harness

import (
	"fmt"
	"testing"

	"sdsm/internal/apps"
)

// scaleEquivApps are the applications the scaling matrix (Table C)
// reports: tsps migrates ownership constantly through work stealing,
// jacobi holds a regular single-writer partition — together they hit the
// directory's churn path and its steady-state path.
var scaleEquivApps = []string{"tsps", "jacobi"}

// TestBackendEquivalenceScale asserts that scale mode — per-page serve
// delegation plus span-compressed relay — preserves the
// protocol's cross-backend bit-identity at machine sizes where
// delegation actually routes traffic: 16 and 32 nodes on the
// real-concurrency and wire backends against the deterministic sim, all
// checked against the sequential reference. Delegation only picks who
// serves an identical diff chain, so scheduling may reorder forwarding
// chases and redirects but must never change memory content.
func TestBackendEquivalenceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale equivalence is the slow tier")
	}
	for _, name := range scaleEquivApps {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seq := SeqChecksum(a, apps.Small)
		for _, procs := range []int{16, 32} {
			procs := procs
			simRes, err := Run(Config{App: a, Set: apps.Small, System: Base, Procs: procs, Scale: true, Verify: true})
			if err != nil {
				t.Fatalf("%s/p%d: sim backend: %v", a.Name, procs, err)
			}
			if !apps.Close(simRes.Checksum, seq) {
				t.Fatalf("%s/p%d: sim checksum %v differs from sequential %v", a.Name, procs, simRes.Checksum, seq)
			}
			for _, backend := range []Backend{BackendReal, BackendNet} {
				backend := backend
				t.Run(fmt.Sprintf("%s/p%d/%s", a.Name, procs, backend), func(t *testing.T) {
					t.Parallel()
					res, err := Run(Config{App: a, Set: apps.Small, System: Base, Procs: procs, Scale: true, Verify: true, Backend: backend})
					if err != nil {
						t.Fatalf("%s backend: %v", backend, err)
					}
					if res.Checksum != simRes.Checksum {
						t.Errorf("%s backend checksum %v != sim backend checksum %v", backend, res.Checksum, simRes.Checksum)
					}
				})
			}
		}
	}
}

// TestScaleSimSmoke drives the 64- and 128-node corners of the scaling
// matrix on the sim backend: the directory must keep forwarding chains
// inside the hop cap (fallbacks stay rare, never the common path) and
// the result must still match the sequential reference. The full matrix
// with per-cell accounting lives in the scale golden; this is the fast
// guard that large machines keep computing the right answer at all.
func TestScaleSimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node sim runs are the slow tier")
	}
	for _, name := range scaleEquivApps {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seq := SeqChecksum(a, apps.Small)
		for _, procs := range []int{64, 128} {
			res, err := Run(Config{App: a, Set: apps.Small, System: Base, Procs: procs, Scale: true, Verify: true})
			if err != nil {
				t.Fatalf("%s/p%d: %v", a.Name, procs, err)
			}
			if !apps.Close(res.Checksum, seq) {
				t.Fatalf("%s/p%d: checksum %v differs from sequential %v", a.Name, procs, res.Checksum, seq)
			}
			ps := res.Protocol
			if ps.DirFallbacks > ps.DirRedirects {
				t.Errorf("%s/p%d: %d directory fallbacks exceed %d redirects — forwarding chains are not resolving",
					a.Name, procs, ps.DirFallbacks, ps.DirRedirects)
			}
		}
	}
}
