package svc

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"sdsm/internal/leaktest"
	"sdsm/internal/wire"
)

// fakeDaemon attaches a hand-driven pool daemon of the given slot count:
// the test reads the dispatches off the returned connection and decides
// if and when to answer them, so executor timing is deterministic.
func fakeDaemon(t *testing.T, co *Coordinator, slots int32) net.Conn {
	t.Helper()
	dc, err := net.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dc.Close() })
	if err := wire.WriteFrame(dc, &wire.Frame{Kind: wire.FPoolHello, Tag: slots}); err != nil {
		t.Fatal(err)
	}
	return dc
}

// readDispatch reads the next job the coordinator dispatches to a fake
// daemon: an FJob carrying the requester's nonce and the spec, with the
// coordinator's job ID in it.
func readDispatch(t *testing.T, dc net.Conn) *wire.Frame {
	t.Helper()
	dc.SetReadDeadline(time.Now().Add(30 * time.Second))
	df, err := wire.ReadFrame(dc)
	if err != nil || df.Kind != wire.FJob {
		t.Fatalf("daemon dispatch: frame %v err %v", df, err)
	}
	return df
}

// submitAttached submits spec, retrying while the fake daemon's hello is
// still in flight (until it lands no executor can hold the job).
func submitAttached(t *testing.T, cl *Client, spec wire.JobSpec) *Job {
	t.Helper()
	for i := 0; ; i++ {
		j, err := cl.Submit(spec)
		if err == nil {
			return j
		}
		if i > 500 || !strings.Contains(err.Error(), "no executor") {
			t.Fatalf("submit: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitJob is Job.Wait with a bound: a result that never comes fails the
// test instead of hanging it.
func waitJob(t *testing.T, j *Job) wire.JobResult {
	t.Helper()
	done := make(chan wire.JobResult, 1)
	go func() { done <- j.Wait() }()
	select {
	case res := <-done:
		return res
	case <-time.After(30 * time.Second):
		t.Fatalf("job %d: no result", j.ID)
		return wire.JobResult{}
	}
}

// TestMalformedSubmitRejected pins the admission contract: a
// well-formed frame carrying a nonsense job is rejected per-job — the
// connection stays usable and the pool keeps serving — and raw garbage
// that does not decode as a frame costs only that connection.
func TestMalformedSubmitRejected(t *testing.T) {
	leaktest.Check(t)
	co, cl := startService(t, Config{Slots: 2})

	bad := []struct {
		spec   wire.JobSpec
		reason string
	}{
		{wire.JobSpec{App: "nope", Set: "small", Procs: 2}, "unknown application"},
		{wire.JobSpec{App: "jacobi", Set: "galactic", Procs: 2}, "no data set"},
		{wire.JobSpec{App: "jacobi", Set: "small", Procs: 0}, "out of range"},
		{wire.JobSpec{App: "jacobi", Set: "small", Procs: 2, System: "pvme"}, "not a DSM system"},
		{wire.JobSpec{App: "jacobi", Set: "small", Procs: 2, Backend: "carrier-pigeon"}, "unknown backend"},
		{wire.JobSpec{App: "jacobi", Set: "small", Procs: 64}, "no executor"},
	}
	for _, c := range bad {
		_, err := cl.Submit(c.spec)
		if err == nil {
			t.Fatalf("spec %+v: accepted, want rejection", c.spec)
		}
		if !strings.Contains(err.Error(), c.reason) {
			t.Errorf("spec %+v: rejection %q does not mention %q", c.spec, err, c.reason)
		}
	}
	// The same connection must still run real work after every rejection.
	mustDo(t, cl, wire.JobSpec{App: "jacobi", Set: "small", Procs: 2, Verify: true})

	// Raw garbage: not a frame at all. The coordinator closes the
	// connection and nothing else.
	network, addr := co.Addr()
	raw, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Error("garbage connection still open, want close")
	}
	raw.Close()

	// And the pool survived: a fresh client still gets service.
	cl2, err := Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	mustDo(t, cl2, wire.JobSpec{App: "jacobi", Set: "small", Procs: 2, Verify: true})

	if rej := co.Snapshot().Rejected; rej != int64(len(bad)) {
		t.Errorf("rejected counter %d, want %d", rej, len(bad))
	}
}

// TestQueueFullRejected pins the bounded queue: with the only executor
// wedged mid-job and the one queue slot filled, the next submit is
// rejected immediately with "queue full" — admission control, not
// unbounded buffering. A fake daemon plays the wedged executor so the
// sequencing is deterministic.
func TestQueueFullRejected(t *testing.T) {
	leaktest.Check(t)
	co, err := Start(Config{Slots: 0, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Attach a 1-slot daemon that takes a dispatch and sits on it.
	dc := fakeDaemon(t, co, 1)
	cl, err := Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spec := wire.JobSpec{App: "jacobi", Set: "small", Procs: 1}

	// Job 1: accepted and dispatched to the wedged daemon. Reading the
	// dispatch frame synchronizes: after it, the queue is empty and the
	// daemon's only slot is busy.
	j1 := submitAttached(t, cl, spec)
	df := readDispatch(t, dc)
	// Job 2: accepted into the single queue slot.
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("job 2: %v", err)
	}
	// Job 3: queue full, rejected.
	if _, err := cl.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("job 3: err %v, want queue-full rejection", err)
	}
	// Unwedge: give job 1 its verdict and result — the exchange a daemon
	// speaks is the one a coordinator speaks to its clients, under the
	// daemon's own job ID — so shutdown is clean.
	const daemonID = 7
	for _, f := range []*wire.Frame{
		{Kind: wire.FJobAccept, Tag: df.Tag, Payload: &wire.JobDecision{ID: daemonID}},
		{Kind: wire.FJobResult, Tag: df.Tag, Payload: &wire.JobResult{ID: daemonID}},
	} {
		if err := wire.WriteFrame(dc, f); err != nil {
			t.Fatal(err)
		}
	}
	if res := waitJob(t, j1); res.ID != j1.ID || res.Err != "" {
		t.Errorf("job 1 result %+v, want the coordinator's ID %d and no error", res, j1.ID)
	}
}

// TestLastExecutorGoneRejects pins the admission bound to the live
// executors: when the only executor's link ends, the job in flight on it
// and the job still queued both end with Err set, and the next submit is
// rejected outright — nothing is accepted into a queue nobody drains.
func TestLastExecutorGoneRejects(t *testing.T) {
	leaktest.Check(t)
	co, err := Start(Config{Slots: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	dc := fakeDaemon(t, co, 1)
	cl, err := Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spec := wire.JobSpec{App: "jacobi", Set: "small", Procs: 1}

	inFlight := submitAttached(t, cl, spec)
	readDispatch(t, dc)
	queued, err := cl.Submit(spec)
	if err != nil {
		t.Fatalf("queued job: %v", err)
	}
	dc.Close() // the daemon dies

	for name, j := range map[string]*Job{"in-flight": inFlight, "queued": queued} {
		if res := waitJob(t, j); res.Err == "" {
			t.Errorf("%s job finished without error after its only executor died: %+v", name, res)
		}
	}
	if _, err := cl.Submit(spec); err == nil || !strings.Contains(err.Error(), "no executor") {
		t.Errorf("submit with no executor left: err %v, want a no-executor rejection", err)
	}
	if snap := co.Snapshot(); snap.Failed != 2 || snap.Completed != 2 {
		t.Errorf("counters %+v, want 2 completed, 2 failed", snap)
	}
}

// TestDaemonDeathMidJob severs a daemon's link with a job in flight on
// it: that job alone fails, and the coordinator keeps serving from its
// local pool.
func TestDaemonDeathMidJob(t *testing.T) {
	leaktest.Check(t)
	co, cl := startService(t, Config{Slots: 1})
	dc := fakeDaemon(t, co, 1)
	dispatched := make(chan int64, 1)
	go func() {
		if df, err := wire.ReadFrame(dc); err == nil {
			dispatched <- df.Payload.(*wire.JobSpec).ID
		}
	}()

	// Submit until a job lands on the daemon (the local slot takes the
	// others, and everything submitted before the hello landed).
	spec := wire.JobSpec{App: "jacobi", Set: "small", Procs: 1, Verify: true}
	jobs := map[int64]*Job{}
	var victim int64
	for victim == 0 {
		if len(jobs) > 200 {
			t.Fatal("no job was ever dispatched to the daemon")
		}
		j, err := cl.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[j.ID] = j
		select {
		case victim = <-dispatched:
		case <-time.After(20 * time.Millisecond):
		}
	}
	// Let the queue drain first, so the daemon's worker holds exactly the
	// victim when the link goes.
	for id, j := range jobs {
		if id == victim {
			continue
		}
		if res := waitJob(t, j); res.Err != "" {
			t.Fatalf("local job %d failed: %s", id, res.Err)
		}
	}
	before := co.Snapshot().Failed
	dc.Close()
	res := waitJob(t, jobs[victim])
	if res.Err == "" || res.ID != victim {
		t.Errorf("victim result %+v, want job %d with Err set", res, victim)
	}
	mustDo(t, cl, spec) // same client, local pool
	if got := co.Snapshot().Failed - before; got != 1 {
		t.Errorf("Failed moved by %d, want 1", got)
	}
}

// TestPoolDaemonE2E runs jobs through a real daemon: coordinator with
// no local pool, RunPoolDaemon attached over the wire, results
// bit-identical to local-pool runs of the same specs.
func TestPoolDaemonE2E(t *testing.T) {
	leaktest.Check(t)
	co, err := Start(Config{Slots: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	network, addr := co.Addr()
	stop := make(chan struct{})
	derr := make(chan error, 1)
	go func() { derr <- RunPoolDaemon(network, addr, 4, stop) }()

	cl, err := Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	spec := wire.JobSpec{App: "jacobi", Set: "small", Procs: 4, Verify: true}
	res := waitJob(t, submitAttached(t, cl, spec))
	if res.Err != "" {
		t.Fatalf("daemon job failed: %s", res.Err)
	}

	// Same spec through a local pool for the reference.
	co2, cl2 := startService(t, Config{Slots: 4})
	_ = co2
	ref := mustDo(t, cl2, spec)
	if res.Checksum != ref.Checksum || res.VirtualNS != ref.VirtualNS {
		t.Errorf("daemon result (%v, %d) != local pool result (%v, %d)",
			res.Checksum, res.VirtualNS, ref.Checksum, ref.VirtualNS)
	}

	// Back-to-back on the daemon's warm pool: still bit-identical.
	res2, err := cl.Do(spec)
	if err != nil || res2.Err != "" {
		t.Fatalf("daemon reuse job: %v %s", err, res2.Err)
	}
	if res2.Checksum != ref.Checksum || res2.VirtualNS != ref.VirtualNS {
		t.Errorf("daemon warm rerun (%v, %d) != reference (%v, %d)",
			res2.Checksum, res2.VirtualNS, ref.Checksum, ref.VirtualNS)
	}

	close(stop)
	if err := <-derr; err != nil {
		t.Errorf("daemon exit: %v", err)
	}
}
