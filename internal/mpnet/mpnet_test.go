package mpnet_test

import (
	"fmt"
	"os"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/leaktest"
	"sdsm/internal/mpnet"
)

// TestMain installs the worker hook: the coordinator spawns THIS test
// binary as its rank processes.
func TestMain(m *testing.M) {
	mpnet.MaybeWorker()
	os.Exit(m.Run())
}

// TestDistributedMP runs message-passing applications with one OS process
// per rank and verifies the checksum against the sequential reference.
// Reduction order follows real frame arrival, so comparison is the
// approximate one (apps.Close), as documented.
func TestDistributedMP(t *testing.T) {
	leaktest.Check(t)
	cases := []struct {
		app   string
		procs int
	}{
		{"is", 2},
		{"jacobi", 3},
		{"mgs", 5},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, c := range cases {
		c := c
		t.Run(c.app, func(t *testing.T) {
			a, err := apps.ByName(c.app)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mpnet.RunOpts(a, apps.Small, c.procs, mpnet.Options{Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			seq := harness.SeqChecksum(a, apps.Small)
			if !apps.Close(res.Checksum, seq) {
				t.Errorf("%s/p%d: distributed checksum %v != sequential %v", c.app, c.procs, res.Checksum, seq)
			}
			if res.Stats.Msgs == 0 || res.Time == 0 {
				t.Errorf("%s/p%d: missing accounting: %d msgs, time %v", c.app, c.procs, res.Stats.Msgs, res.Time)
			}
		})
	}
}

// TestDistributedRecovery kills one worker process mid-run and checks
// the coordinator's respawn-and-replay recovery: the replayed rank must
// rejoin the computation and the final checksum must still match the
// sequential reference (approximately, per the package's reduction-order
// caveat). AfterFrames values probe a kill before the rank's first frame
// and one in the middle of the exchange pattern.
func TestDistributedRecovery(t *testing.T) {
	leaktest.Check(t)
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	seq := harness.SeqChecksum(a, apps.Small)
	for _, after := range []int{0, 7} {
		after := after
		t.Run(fmt.Sprintf("after%d", after), func(t *testing.T) {
			res, err := mpnet.RunOpts(a, apps.Small, 3, mpnet.Options{
				Verify:  true,
				Recover: true, Fault: &mpnet.FaultSpec{Rank: 1, AfterFrames: after},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 {
				t.Errorf("restarts = %d, want 1 (did the injected kill fire?)", res.Restarts)
			}
			if !apps.Close(res.Checksum, seq) {
				t.Errorf("recovered checksum %v != sequential %v", res.Checksum, seq)
			}
		})
	}
}

// TestRecoverNoFault checks the logging path is invisible when no worker
// dies: recovery armed, nothing killed, result as usual.
func TestRecoverNoFault(t *testing.T) {
	leaktest.Check(t)
	a, err := apps.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpnet.RunOpts(a, apps.Small, 2, mpnet.Options{
		Verify: true, Recover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 0 {
		t.Errorf("restarts = %d, want 0", res.Restarts)
	}
	if seq := harness.SeqChecksum(a, apps.Small); !apps.Close(res.Checksum, seq) {
		t.Errorf("checksum %v != sequential %v", res.Checksum, seq)
	}
}

// TestHarnessNetMP exercises the harness plumbing: a PVMe run on the net
// backend spawns worker processes through harness.Run.
func TestHarnessNetMP(t *testing.T) {
	leaktest.Check(t)
	a, err := apps.ByName("shallow")
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(harness.Config{
		App: a, Set: apps.Small, System: harness.PVMe, Procs: 2,
		Verify: true, Backend: harness.BackendNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := harness.SeqChecksum(a, apps.Small)
	if !apps.Close(res.Checksum, seq) {
		t.Errorf("checksum %v != sequential %v", res.Checksum, seq)
	}
}

// TestHarnessMPFault drives the process-kill fault through the harness
// config surface (FaultPlan.AfterFrames on a PVMe net run) and checks
// the respawn is reported through the unified recovery counters.
func TestHarnessMPFault(t *testing.T) {
	leaktest.Check(t)
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(harness.Config{
		App: a, Set: apps.Small, System: harness.PVMe, Procs: 3,
		Verify: true, Backend: harness.BackendNet,
		Fault: &harness.FaultPlan{Rank: 2, AfterFrames: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Restores != 1 {
		t.Errorf("recovery restores = %d, want 1", res.Recovery.Restores)
	}
	if seq := harness.SeqChecksum(a, apps.Small); !apps.Close(res.Checksum, seq) {
		t.Errorf("recovered checksum %v != sequential %v", res.Checksum, seq)
	}
}
