package tmk

import (
	"testing"

	"sdsm/internal/cluster"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// warmScaleSystem builds an n-node scale-mode machine whose node
// memories borrow from the given arenas.
func warmScaleSystem(n int, arenas []*vm.Arena) *System {
	h := sim.NewEngine(n)
	nw := cluster.New(h, model.SP2())
	layout := shm.NewLayout()
	layout.Alloc("a", 4*shm.PageWords)
	sys := NewWarm(h, nw, layout, arenas)
	sys.EnableScale()
	return sys
}

// TestWarmEnableScaleReinit is the rank-subset regression test at the
// protocol layer: an arena's recycled directory arrays arrive with a
// previous (possibly wider) run's owner hints still in them, and
// EnableScale must re-initialize every entry to -1 — a hint naming a
// rank outside the new job's set would otherwise route the first
// epoch's fetches to a node that does not exist. The arenas here are
// poisoned with rank 113 before the 2-node machine is built; any entry
// that survives is an inherited stale hint.
func TestWarmEnableScaleReinit(t *testing.T) {
	const poisoned = 113
	arenas := []*vm.Arena{vm.NewArena(), vm.NewArena()}
	for _, ar := range arenas {
		for i := 0; i < 2; i++ {
			s := ar.TakeInt32(4)
			for k := range s {
				s[k] = poisoned
			}
			ar.RecycleInt32(s)
		}
	}
	sys := warmScaleSystem(2, arenas)
	for _, nd := range sys.Nodes {
		if nd.Mem.Arena() != arenas[nd.ID] {
			t.Fatalf("node %d: memory is not backed by the arena it was given", nd.ID)
		}
		for pg := 0; pg < nd.Mem.Pages(); pg++ {
			if got := nd.OwnerHint(pg); got != -1 {
				t.Errorf("node %d page %d: dirOwner %d after EnableScale, want -1 (stale hint inherited)", nd.ID, pg, got)
			}
			if got := nd.dirNext[pg]; got != -1 {
				t.Errorf("node %d page %d: dirNext %d after EnableScale, want -1 (stale delegation inherited)", nd.ID, pg, got)
			}
		}
	}
	sys.ReleaseWarm()
	for i, ar := range arenas {
		if ar.Loans() != 0 {
			t.Errorf("arena %d: %d loans outstanding after ReleaseWarm", i, ar.Loans())
		}
	}
}

// TestChaseGuardOutOfRange pins the fetch router's defense in depth: a
// forwarding hint naming a rank outside the machine must be dropped to
// the Direct fallback, not turned into a request. The guard is
// exercised directly — redirect lists are wire values, so a corrupt or
// stale hint can arrive regardless of how well EnableScale scrubs local
// state.
func TestChaseGuardOutOfRange(t *testing.T) {
	arenas := []*vm.Arena{vm.NewArena(), vm.NewArena()}
	sys := warmScaleSystem(2, arenas)
	nd := sys.Nodes[0]
	// A pending notice for page 1 makes the chase consider it; the hint
	// names rank 99. The guard must skip it without issuing a request —
	// if it tried, the transport would be asked for a node the host does
	// not have and the test would die rather than fail gracefully.
	nd.pages[1].pending = []notice{{owner: 1, idx: 1}}
	before := nd.Stats.DirFallbacks
	nd.chaseRedirects([]wire.PageOwner{{Page: 1, Owner: 99}})
	if nd.Stats.DirFallbacks != before+1 {
		t.Errorf("out-of-range redirect: DirFallbacks %d, want %d (hint should fall back, not route)",
			nd.Stats.DirFallbacks, before+1)
	}
	sys.ReleaseWarm()
}
