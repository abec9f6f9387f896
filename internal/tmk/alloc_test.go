//go:build !race

package tmk

import (
	"testing"

	"sdsm/internal/shm"
)

// TestWSyncResponderAllocs pins the barrier master's Validate_w_sync
// resolution at zero allocations once its table and result scratch exist:
// after a run of Validate_w_sync epochs, answering for every page with a
// floor that makes every writer respond touches only node scratch. (Not
// under the race detector, whose instrumentation allocates.)
func TestWSyncResponderAllocs(t *testing.T) {
	const n = 4
	s := testSystem(n, n*shm.PageWords)
	run(t, s, func(nd *Node) {
		for it := 0; it < 5; it++ {
			w(nd, nd.ID*shm.PageWords+it, float64(it))
			w(nd, (nd.ID+1)%n*shm.PageWords+100+nd.ID, float64(it)) // a second writer per page
			nd.ValidateWSync(AccRead, region(0, n*shm.PageWords))
			nd.Barrier(1)
		}
	})
	master, floor := s.Nodes[0], make([]int32, n)
	if master.wsLast == nil {
		t.Fatal("the run resolved no Validate_w_sync at the master")
	}
	per := testing.AllocsPerRun(100, func() {
		for pg := 0; pg < n; pg++ {
			if got := master.wsyncResponder((pg+1)%n, floor, pg); len(got) != 2 {
				t.Fatalf("page %d: responders %v, want both writers", pg, got)
			}
		}
	})
	if per > 0 {
		t.Fatalf("wsyncResponder allocates %.1f per resolution, want 0", per)
	}
}
