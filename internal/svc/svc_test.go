package svc

import (
	"fmt"
	"sync"
	"testing"
	"time"

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
// through the pool, on warm storage the first run gave back, must
// produce bit-identical results — arena, detector, and directory state
// fully reset between jobs. Adaptive and scale modes ride along: their
// detectors and directory arrays are exactly the state that would leak
// if reset were partial.
func TestPoolReuseResets(t *testing.T) {
	leaktest.Check(t)
	_, cl := startService(t, Config{Slots: 4})
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
}

// TestPoolBoundsRanksInFlight pins what the pool is: an all-or-nothing
// count of rank slots. Jobs of 3, 2 and 4 ranks contend for a 4-slot
// pool several times each; the ranks held at once never exceed 4, and
// every job gets its slots and finishes.
func TestPoolBoundsRanksInFlight(t *testing.T) {
	const slots, rounds = 4, 20
	p := NewPool(slots)
	var mu sync.Mutex
	held, peak := 0, 0
	var wg sync.WaitGroup
	for _, n := range []int{3, 2, 4} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p.acquire(n)
				mu.Lock()
				held += n
				peak = max(peak, held)
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
				mu.Lock()
				held -= n
				mu.Unlock()
				p.release(n)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("jobs still waiting for slots after a minute")
	}
	if peak > slots {
		t.Fatalf("%d ranks held at once on a %d-slot pool", peak, slots)
	}
	if p.nfree != slots {
		t.Fatalf("%d slots free after every job released, want %d", p.nfree, slots)
	}
}

// TestQuantileRoundsRankUp pins RunLoad's percentiles to the ⌈q·n⌉-th
// smallest latency: of ten jobs taking 1..10 ms, p99 is the slowest and
// p50 the fifth (int(q·(n−1)) named 9 ms for p99), and of 200 jobs p99 is
// the 198th, the latency CI's 200-job -serve-p99-max smoke has always read.
func TestQuantileRoundsRankUp(t *testing.T) {
	ms := func(n int) []time.Duration {
		lats := make([]time.Duration, n)
		for i := range lats {
			lats[i] = time.Duration(i+1) * time.Millisecond
		}
		return lats
	}
	ten, many := ms(10), ms(200)
	for _, c := range []struct {
		lats []time.Duration
		q    float64
		want time.Duration
	}{
		{ten, 0.99, 10 * time.Millisecond},
		{ten, 0.50, 5 * time.Millisecond},
		{many, 0.99, 198 * time.Millisecond},
		{many, 0.50, 100 * time.Millisecond},
		{nil, 0.99, 0},
	} {
		if got := time.Duration(quantile(c.lats, c.q)); got != c.want {
			t.Errorf("quantile %.2f of %d latencies = %v, want %v", c.q, len(c.lats), got, c.want)
		}
	}
}
