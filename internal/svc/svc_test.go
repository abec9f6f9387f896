package svc

import (
	"fmt"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/leaktest"
	"sdsm/internal/wire"
)

// startService spins up a coordinator with a local warm pool and a
// client connected to it, torn down with the test.
func startService(t *testing.T, cfg Config) (*Coordinator, *Client) {
	t.Helper()
	co, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	cl, err := Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return co, cl
}

// mustDo submits one job and fails the test on rejection or job error.
func mustDo(t *testing.T, cl *Client, spec wire.JobSpec) wire.JobResult {
	t.Helper()
	res, err := cl.Do(spec)
	if err != nil {
		t.Fatalf("submit %s/%s: %v", spec.App, spec.Set, err)
	}
	if res.Err != "" {
		t.Fatalf("job %s/%s failed: %s", spec.App, spec.Set, res.Err)
	}
	return res
}

// checkBitIdentical asserts a pool job's result equals a fresh run's,
// field by field — the pool-vs-fresh equivalence discipline on the
// deterministic sim backend, where protocol stats and virtual time must
// match bit for bit, not just checksums.
func checkBitIdentical(t *testing.T, label string, got wire.JobResult, want *harness.Result) {
	t.Helper()
	if got.Checksum != want.Checksum {
		t.Errorf("%s: pool checksum %v != fresh %v", label, got.Checksum, want.Checksum)
	}
	if got.VirtualNS != int64(want.Time) {
		t.Errorf("%s: pool virtual time %d != fresh %d", label, got.VirtualNS, int64(want.Time))
	}
	if got.Msgs != want.Msgs || got.Bytes != want.Bytes {
		t.Errorf("%s: pool traffic %d msgs/%d bytes != fresh %d/%d", label, got.Msgs, got.Bytes, want.Msgs, want.Bytes)
	}
	if got.Segv != want.Segv {
		t.Errorf("%s: pool segv %d != fresh %d", label, got.Segv, want.Segv)
	}
	if got.DiffFetches != want.Protocol.DiffFetches {
		t.Errorf("%s: pool diff fetches %d != fresh %d", label, got.DiffFetches, want.Protocol.DiffFetches)
	}
	if got.Barriers != want.Protocol.Barriers || got.LockAcquires != want.Protocol.LockAcquires {
		t.Errorf("%s: pool sync counts %d barriers/%d acquires != fresh %d/%d",
			label, got.Barriers, got.LockAcquires, want.Protocol.Barriers, want.Protocol.LockAcquires)
	}
}

// TestPoolVsFreshEquivalence runs every registry application through
// the warm pool and demands the same answers a throwaway machine gives:
// on the sim backend, bit-identical checksums, protocol stats, and
// virtual times; through a one-shot `-backend=net` run, identical
// checksums (net scheduling makes stats and times wall-dependent, the
// same split TestBackendEquivalence draws). The pool is shared across
// the whole sweep, so each app also inherits the previous apps' warm
// state — reuse under changing layouts is part of the claim.
func TestPoolVsFreshEquivalence(t *testing.T) {
	leaktest.Check(t)
	_, cl := startService(t, Config{Slots: 4})
	for _, a := range apps.Registry() {
		spec := wire.JobSpec{App: a.Name, Set: "small", Procs: 4, Verify: true}
		fresh, err := harness.Run(harness.Config{App: a, Set: apps.Small, System: harness.Base, Procs: 4, Verify: true})
		if err != nil {
			t.Fatalf("%s: fresh sim run: %v", a.Name, err)
		}
		checkBitIdentical(t, a.Name+"/sim", mustDo(t, cl, spec), fresh)

		netSpec := spec
		netSpec.Backend = "net"
		freshNet, err := harness.Run(harness.Config{App: a, Set: apps.Small, System: harness.Base, Procs: 4, Verify: true, Backend: harness.BackendNet})
		if err != nil {
			t.Fatalf("%s: fresh net run: %v", a.Name, err)
		}
		poolNet := mustDo(t, cl, netSpec)
		if poolNet.Checksum != freshNet.Checksum {
			t.Errorf("%s/net: pool checksum %v != fresh %v", a.Name, poolNet.Checksum, freshNet.Checksum)
		}
	}
}

// TestPoolReuseResets is the back-to-back case: the same job run twice
// on the same warm slots must produce bit-identical results — arena,
// detector, and directory state fully reset between jobs — and the
// second run must actually reuse warm storage, not quietly reallocate.
// Adaptive and scale modes ride along: their detectors and directory
// arrays are exactly the state that would leak if reset were partial.
func TestPoolReuseResets(t *testing.T) {
	leaktest.Check(t)
	co, cl := startService(t, Config{Slots: 4})
	specs := []wire.JobSpec{
		{App: "jacobi", Set: "small", Procs: 4, Verify: true},
		{App: "jacobi", Set: "bound", Procs: 4, Verify: true, Adapt: true},
		{App: "spmv", Set: "small", Procs: 4, Verify: true, Scale: true},
	}
	for _, spec := range specs {
		cfg, err := JobConfig(spec)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := harness.Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s: fresh run: %v", spec.App, spec.Set, err)
		}
		label := fmt.Sprintf("%s/%s", spec.App, spec.Set)
		checkBitIdentical(t, label+"/first", mustDo(t, cl, spec), fresh)
		checkBitIdentical(t, label+"/reused", mustDo(t, cl, spec), fresh)
	}
	// Warm inventory must exist after the jobs released their storage:
	// every slot ran 4-rank jobs, so every arena holds its one idle data
	// store again.
	pool := co.LocalPool()
	for i := 0; i < pool.Slots(); i++ {
		if data, _, _ := pool.Arena(i).Idle(); data != 1 {
			t.Errorf("slot %d: %d idle data stores after the jobs, want 1 — the pool is not actually reusing memory", i, data)
		}
		if loans := pool.Arena(i).Loans(); loans != 0 {
			t.Errorf("slot %d: %d data loans still outstanding after all jobs finished", i, loans)
		}
	}
}

// TestWarmDirectoryRankSubset pins the rank-subset fix: a pool job
// using fewer ranks than the previous tenant must not inherit stale
// owner hints. An 8-rank scale job seeds the slots' directory arrays
// with owners up to 7; the arrays are then additionally poisoned with
// an absurd rank so any missed re-initialization routes a fetch off the
// machine (a panic or a wrong result, not a quiet pass). A following
// 4-rank scale job must be bit-identical to a fresh 4-rank run.
func TestWarmDirectoryRankSubset(t *testing.T) {
	leaktest.Check(t)
	co, cl := startService(t, Config{Slots: 8})
	wide := wire.JobSpec{App: "spmv", Set: "small", Procs: 8, Verify: true, Scale: true}
	mustDo(t, cl, wide)

	// Poison every arena's idle int32 arrays with an out-of-range rank,
	// simulating a much wider previous tenant. TakeInt32 hands these
	// back raw; only EnableScale's mandatory -1 sweep stands between
	// this value and the fetch router.
	pool := co.LocalPool()
	for i := 0; i < pool.Slots(); i++ {
		ar := pool.Arena(i)
		var taken [][]int32
		for {
			_, _, ints := ar.Idle()
			if ints == 0 {
				break
			}
			s := ar.TakeInt32(1)
			s = s[:cap(s)]
			for k := range s {
				s[k] = 113 // rank 113 of a 4-rank machine
			}
			taken = append(taken, s)
		}
		for _, s := range taken {
			ar.RecycleInt32(s)
		}
	}

	narrow := wire.JobSpec{App: "spmv", Set: "small", Procs: 4, Verify: true, Scale: true}
	cfg, err := JobConfig(narrow)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := harness.Run(cfg)
	if err != nil {
		t.Fatalf("fresh 4-rank scale run: %v", err)
	}
	checkBitIdentical(t, "spmv/rank-subset", mustDo(t, cl, narrow), fresh)
}
