package harness

import (
	"fmt"
	"testing"

	"sdsm/internal/apps"
)

// runRecovery executes one configuration with recovery armed and an
// injected fault, and checks a restore actually happened.
func runRecovery(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if cfg.Fault != nil && res.Recovery.Restores != 1 {
		t.Fatalf("fault at rank %d epoch %d never fired (restores=%d, checkpoints=%d)",
			cfg.Fault.Rank, cfg.Fault.Epoch, res.Recovery.Restores, res.Recovery.Checkpoints)
	}
	return res
}

// TestRecoveryEquivalence is the recovery contract's acceptance test
// (DESIGN.md §10): for every application, a run in which one node dies
// at a barrier and restores from its checkpoint records produces a
// checksum bit-identical to the uninterrupted run — on the sim backend
// and over the wire (net backend, where the victim's links really drop
// and re-pair). It also pins the zero-perturbation half of the
// contract: arming checkpoints without a fault changes neither the
// checksum nor a single virtual-time or protocol number.
func TestRecoveryEquivalence(t *testing.T) {
	const procs = 3
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			ref, err := Run(Config{App: a, Set: apps.Small, System: Base, Procs: procs, Verify: true})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			quiet, err := Run(Config{App: a, Set: apps.Small, System: Base, Procs: procs, Verify: true,
				Recover: true})
			if err != nil {
				t.Fatalf("checkpointing run: %v", err)
			}
			if quiet.Checksum != ref.Checksum {
				t.Errorf("checkpointing (no fault) checksum %v != reference %v", quiet.Checksum, ref.Checksum)
			}
			if quiet.Time != ref.Time || quiet.Protocol != ref.Protocol {
				t.Errorf("checkpointing (no fault) perturbed the run: time %v vs %v, protocol %+v vs %+v",
					quiet.Time, ref.Time, quiet.Protocol, ref.Protocol)
			}
			if quiet.Recovery.Checkpoints == 0 {
				t.Error("checkpointing run wrote no records")
			}

			fault := &FaultPlan{Rank: 1, Epoch: 2}
			sim := runRecovery(t, Config{App: a, Set: apps.Small, System: Base, Procs: procs, Verify: true,
				Fault: fault})
			if sim.Checksum != ref.Checksum {
				t.Errorf("sim recovery checksum %v != reference %v", sim.Checksum, ref.Checksum)
			}
			net := runRecovery(t, Config{App: a, Set: apps.Small, System: Base, Procs: procs, Verify: true,
				Backend: BackendNet, Fault: fault})
			if net.Checksum != ref.Checksum {
				t.Errorf("net recovery checksum %v != reference %v", net.Checksum, ref.Checksum)
			}
		})
	}
}

// TestRecoveryAdapt kills a node mid-run with the adaptive update
// protocol on: the restored replica's detector must resume from its
// snapshot in lockstep with the survivors' (the no-negotiation
// invariant tolerates no divergence), and the checksum must match the
// uninterrupted adaptive run.
func TestRecoveryAdapt(t *testing.T) {
	for _, name := range []string{"jacobi", "shallow"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Run(Config{App: a, Set: apps.Small, System: Base, Procs: 4, Verify: true, Adapt: true})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			for _, backend := range []Backend{BackendSim, BackendNet} {
				res := runRecovery(t, Config{App: a, Set: apps.Small, System: Base, Procs: 4, Verify: true,
					Adapt: true, Backend: backend, Fault: &FaultPlan{Rank: 2, Epoch: 3}})
				if res.Checksum != ref.Checksum {
					t.Errorf("%s adaptive recovery checksum %v != reference %v", backend, res.Checksum, ref.Checksum)
				}
			}
		})
	}
}

// TestRecoveryOpt kills a node of a compiler-optimised run: the victim
// is the barrier master — rank 0, which owns the Validate_w_sync responder
// table, an index over the interval log that wipe drops and the restored
// log rebuilds — and a non-master rank, early and late, with incremental
// records in the chain. gauss resolves Validate_w_sync at every barrier,
// jacobi and fft replace barriers by Push. Checksums must match the
// uninterrupted optimised run. -short keeps the early epoch only.
func TestRecoveryOpt(t *testing.T) {
	epochs := []int{2, 5}
	if testing.Short() {
		epochs = epochs[:1]
	}
	for _, name := range []string{"gauss", "jacobi", "fft"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Run(Config{App: a, Set: apps.Small, System: Opt, Procs: 4, Verify: true})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			for _, rank := range []int{0, 2} {
				for _, epoch := range epochs {
					res := runRecovery(t, Config{App: a, Set: apps.Small, System: Opt, Procs: 4, Verify: true,
						CheckpointEvery: 3, Fault: &FaultPlan{Rank: rank, Epoch: epoch}})
					if res.Checksum != ref.Checksum {
						t.Errorf("rank %d epoch %d: recovery checksum %v != reference %v", rank, epoch, res.Checksum, ref.Checksum)
					}
				}
			}
		})
	}
}

// TestRecoveryMatrix sweeps the fault space: first and last killable
// rank, at each of the first barrier epochs, across node counts, with
// both always-full and periodic-incremental record cadences. Checksums
// must match the uninterrupted run everywhere. The full sweep runs one
// app; -short samples it.
func TestRecoveryMatrix(t *testing.T) {
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	procsList := []int{2, 3, 5, 8}
	epochs := []int{1, 2, 3, 5}
	everies := []int{1, 3}
	if testing.Short() {
		procsList = []int{3, 5}
		epochs = []int{2, 3}
		everies = []int{3}
	}
	for _, procs := range procsList {
		procs := procs
		ref, err := Run(Config{App: a, Set: apps.Small, System: Base, Procs: procs, Verify: true})
		if err != nil {
			t.Fatalf("p%d: reference run: %v", procs, err)
		}
		for _, rank := range []int{1, procs - 1} {
			for _, epoch := range epochs {
				for _, every := range everies {
					rank, epoch, every := rank, epoch, every
					t.Run(fmt.Sprintf("p%d/r%d/e%d/k%d", procs, rank, epoch, every), func(t *testing.T) {
						t.Parallel()
						res := runRecovery(t, Config{App: a, Set: apps.Small, System: Base, Procs: procs,
							Verify: true, CheckpointEvery: every,
							Fault: &FaultPlan{Rank: rank, Epoch: epoch}})
						if res.Checksum != ref.Checksum {
							t.Errorf("recovery checksum %v != reference %v", res.Checksum, ref.Checksum)
						}
					})
				}
			}
		}
	}
}

// TestRecoveryScale kills a node on a 16-rank scale-mode machine. A
// restore drops the replica's delegations, as every barrier departure
// does, so nothing of scale mode is in the record: the survivors' fetches
// keep routing by write notices, their redirects and chases resolve
// around the restored replica, and checksums must match the
// uninterrupted scale run on both the sim and the wire backend.
func TestRecoveryScale(t *testing.T) {
	for _, name := range []string{"tsps", "jacobi"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			const procs = 16
			ref, err := Run(Config{App: a, Set: apps.Small, System: Base, Procs: procs, Verify: true, Scale: true})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			for _, backend := range []Backend{BackendSim, BackendNet} {
				res := runRecovery(t, Config{App: a, Set: apps.Small, System: Base, Procs: procs, Verify: true,
					Scale: true, CheckpointEvery: 2, Backend: backend, Fault: &FaultPlan{Rank: 5, Epoch: 3}})
				if res.Checksum != ref.Checksum {
					t.Errorf("%s scale recovery checksum %v != reference %v", backend, res.Checksum, ref.Checksum)
				}
			}
		})
	}
}

// TestRecoveryFileSink spills records to disk and restores from them:
// the FileSink path must behave exactly like the in-memory sink.
func TestRecoveryFileSink(t *testing.T) {
	a, err := apps.ByName("gauss")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(Config{App: a, Set: apps.Small, System: Base, Procs: 3, Verify: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	res := runRecovery(t, Config{App: a, Set: apps.Small, System: Base, Procs: 3, Verify: true,
		CheckpointEvery: 4, CheckpointDir: t.TempDir(),
		Fault: &FaultPlan{Rank: 2, Epoch: 6}})
	if res.Checksum != ref.Checksum {
		t.Errorf("file-sink recovery checksum %v != reference %v", res.Checksum, ref.Checksum)
	}
}
