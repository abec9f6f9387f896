package tmk_test

import (
	"fmt"
	"slices"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/host"
	"sdsm/internal/interp"
	"sdsm/internal/model"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
)

// TestCloseWalkMatchesPageTable holds closeInterval's walk of the dirty
// bitset to a walk of the page table at every close of whole runs at 8
// ranks: jacobi/small with checkpointing armed and rank 3 killed and
// restored at its second barrier arrival, unmodified and compiled (whose
// WRITE_ALL pages leave the dirty set at the close), so closes after a
// wipe and restore are among them; gauss/small compiled; is/small, whose
// lock releases close intervals too. A restore rebuilds the very dirty
// set the wipe dropped, so a wipe that leaves its bits behind is caught by
// TestRestoreRebuildsPageTable, which looks between the two.
func TestCloseWalkMatchesPageTable(t *testing.T) {
	const procs = 8
	for _, c := range []struct {
		app   string
		opt   bool
		fault *tmk.Fault
	}{
		{"jacobi", false, &tmk.Fault{Rank: 3, Epoch: 2}},
		{"jacobi", true, &tmk.Fault{Rank: 3, Epoch: 2}},
		{"gauss", true, nil},
		{"is", false, nil},
	} {
		t.Run(fmt.Sprintf("%s/opt=%v", c.app, c.opt), func(t *testing.T) {
			app, err := apps.ByName(c.app)
			if err != nil {
				t.Fatal(err)
			}
			prog := app.Build(procs)
			params := prog.Prepare(app.Sets[apps.Small], procs)
			if c.opt {
				prog, _ = compiler.Compile(prog, app.BestOptions(procs, params))
			}
			e := sim.NewEngine(procs)
			sys := tmk.New(e, host.NewNetwork(e, model.SP2()), compiler.BuildLayout(prog, params))
			if c.fault != nil {
				sys.EnableRecovery(tmk.RecoveryConfig{Fault: c.fault})
			}
			closes, restored, mismatches := 0, 0, 0
			unwatch := tmk.WatchCloses(func(nd *tmk.Node, walked, table []int) {
				closes++
				if nd.RecStats.Restores > 0 {
					restored++
				}
				if !slices.Equal(walked, table) {
					if mismatches++; mismatches <= 3 {
						t.Errorf("node %d close %d: the bitset walk found pages %v, the page table holds %v", nd.ID, closes, walked, table)
					}
				}
			})
			defer unwatch()
			if err := interp.RunDSM(prog, sys, params); err != nil {
				t.Fatal(err)
			}
			if closes == 0 || (c.fault != nil && restored == 0) {
				t.Fatalf("%d closes, %d of them on a restored node: the run no longer exercises the walk", closes, restored)
			}
			t.Logf("%d closes, %d on a restored node", closes, restored)
		})
	}
}
