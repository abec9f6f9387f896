// Package svc is the DSM-as-a-service control plane: a pool of rank
// slots in each executor process, a coordinator that multiplexes many
// concurrent jobs over the pool, daemons that attach remote pools over
// the wire, and a client API to submit jobs and stream results.
//
// The serving story (DESIGN.md §13) sits strictly ON TOP of the DSM
// machine: a job is one harness.Config run, executed bit-identically to
// a one-shot run. What the service adds is multiplexing, never protocol
// change:
//
//   - The pool counts rank slots: a job of p ranks holds p of them,
//     all-or-nothing, so the ranks in flight never exceed the slots an
//     executor declared. It holds no storage. Warm reuse is harness's:
//     every run, pool job or not, borrows its node images and protocol
//     logs from harness's one idle list of tmk.Stores — each a rank's
//     vm.Arena and the slabs its log is carved from — and the isolation
//     rules are the ones every run gets: a store is lent to one run at a
//     time, each data loan is zeroed and carries guard words with a
//     per-run canary that harness audits (cross-job bleed fails the job,
//     not the pool), what a node reads before writing is zeroed on loan,
//     and scale mode's delegation array is made per run so a narrow job
//     cannot inherit a wider one's stale delegations.
//
//   - Admission control is a bounded queue: a submit either enters the
//     queue (FJobAccept) or is rejected immediately (FJobReject,
//     ErrQueueFull); malformed specs are rejected per-job without
//     disturbing the connection or the pool.
//
// The wire protocol (frames FJob, FJobAccept, FJobReject, FJobResult,
// FPoolHello) is versioned with the rest of package wire
// and fuzz-covered by the same corpus. Every connection that carries it
// is a host.Link, and both directions of attachment speak one exchange:
// a pool daemon serves the coordinator that dispatches to it exactly as
// a coordinator serves a client, so there is one requester (Client), one
// session loop, and one worker loop.
package svc

import (
	"fmt"
	"sync"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/wire"
)

// Pool is a count of rank slots living in one process: a job of p ranks
// holds p slots while it runs, so the ranks in flight never exceed the
// pool's size. The slots own no storage — every run borrows its node
// images and protocol logs from harness's idle list — and the pool never
// runs protocol code itself: it admits harness runs onto its slots.
type Pool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	nfree int
	n     int
}

// NewPool creates a pool of n slots.
func NewPool(n int) *Pool {
	p := &Pool{nfree: n, n: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire takes n slots, blocking until n are free at once. All-or-
// nothing: a waiter holds no slots while it waits, so concurrent
// multi-slot jobs cannot deadlock on partially collected sets (each
// would otherwise grab a few slots and starve the rest forever).
func (p *Pool) acquire(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.nfree < n {
		p.cond.Wait()
	}
	p.nfree -= n
}

// release returns n slots and wakes every waiter: the freed capacity may
// complete any waiter's demand, and the all-or-nothing check is cheap to
// re-run.
func (p *Pool) release(n int) {
	p.mu.Lock()
	p.nfree += n
	p.mu.Unlock()
	p.cond.Broadcast()
}

// JobConfig validates a job spec and maps it to the harness
// configuration it denotes. Validation is the coordinator's admission
// check: an error here is a per-job rejection, never a pool fault.
func JobConfig(spec wire.JobSpec) (harness.Config, error) {
	var cfg harness.Config
	app, err := apps.ByName(spec.App)
	if err != nil {
		return cfg, err
	}
	set := apps.DataSet(spec.Set)
	if _, ok := app.Sets[set]; !ok {
		return cfg, fmt.Errorf("svc: app %q has no data set %q", spec.App, spec.Set)
	}
	sys := harness.SystemKind(spec.System)
	if sys == "" {
		sys = harness.Base
	}
	switch sys {
	case harness.Base, harness.Opt:
	default:
		return cfg, fmt.Errorf("svc: system %q is not a DSM system (pool jobs run tmk or opt-tmk)", spec.System)
	}
	be := harness.Backend(spec.Backend)
	switch be {
	case "", harness.BackendSim, harness.BackendReal, harness.BackendNet:
	default:
		return cfg, fmt.Errorf("svc: unknown backend %q", spec.Backend)
	}
	if spec.Procs < 1 || spec.Procs > 1024 {
		return cfg, fmt.Errorf("svc: procs %d out of range [1, 1024]", spec.Procs)
	}
	return harness.Config{
		App:     app,
		Set:     set,
		System:  sys,
		Procs:   int(spec.Procs),
		Backend: be,
		Verify:  spec.Verify,
		Adapt:   spec.Adapt,
		Scale:   spec.Scale,
	}, nil
}

// Run executes one job on the pool and reports its outcome as the wire
// result frame payload. Spec errors and run errors are carried in the
// result's Err — a job can fail; the pool cannot.
func (p *Pool) Run(spec wire.JobSpec) wire.JobResult {
	res := wire.JobResult{ID: spec.ID}
	cfg, err := JobConfig(spec)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if int(spec.Procs) > p.n {
		res.Err = fmt.Sprintf("svc: job wants %d ranks, pool has %d slots", spec.Procs, p.n)
		return res
	}
	p.acquire(cfg.Procs)
	defer p.release(cfg.Procs)
	start := time.Now()
	r, err := harness.Run(cfg)
	res.WallNS = int64(time.Since(start))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Checksum = r.Checksum
	res.VirtualNS = int64(r.Time)
	res.Msgs = r.Msgs
	res.Bytes = r.Bytes
	res.Segv = r.Segv
	res.DiffFetches = r.Protocol.DiffFetches
	res.Barriers = r.Protocol.Barriers
	res.LockAcquires = r.Protocol.LockAcquires
	return res
}
