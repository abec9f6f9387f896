// Package svc is the DSM-as-a-service control plane: a warm pool of
// node slots that survives job completion, a coordinator that
// multiplexes many concurrent jobs over the pool, daemons that attach
// remote pools over the wire, and a client API to submit jobs and
// stream results.
//
// The serving story (DESIGN.md §13) sits strictly ON TOP of the DSM
// machine: a job is one harness.Config run, executed bit-identically to
// a one-shot run. What the pool adds is reuse and multiplexing, never
// protocol change:
//
//   - Each pool slot owns a vm.Arena of warm storage — address-space
//     backing stores, page buffers, directory arrays, all kept across
//     jobs. A job borrows the arenas of the slots it is scheduled on;
//     data stores are zeroed on loan (results stay bit-identical), page
//     buffers and int32 arrays are recycled raw under the vm package's
//     overwrite-before-read rules.
//
//   - Per-job isolation is enforced three ways: slots are exclusively
//     held for the job's duration (no shared mutable storage), every
//     data loan carries guard words filled with a per-job canary that
//     harness audits after the run (cross-job bleed fails the job, not
//     the pool), and the directory arrays are re-initialized per job so
//     a rank-subset job cannot inherit a wider job's stale owner hints.
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
	"math"
	"sync"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// Pool is a warm set of node slots living in one process. Slot i owns
// one vm.Arena; a job of p ranks exclusively holds p slots while it
// runs, then releases them warm for the next job. The pool never runs
// protocol code itself — it schedules harness runs onto its slots.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	free   []bool // slot i currently unowned
	nfree  int
	arenas []*vm.Arena // slot i's warm storage, owned by at most one job at a time
	n      int
}

// NewPool creates a pool of n warm slots.
func NewPool(n int) *Pool {
	p := &Pool{
		free:   make([]bool, n),
		nfree:  n,
		arenas: make([]*vm.Arena, n),
		n:      n,
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		p.arenas[i] = vm.NewArena()
		p.free[i] = true
	}
	return p
}

// Slots returns the pool size.
func (p *Pool) Slots() int { return p.n }

// Arena exposes slot i's arena, for tests that poison or inspect warm
// state between jobs. It takes the pool lock: a job releases its slots
// under that lock before its result is sent, so whoever has seen the
// result also sees, in the Go memory model and not only through the
// socket the result crossed, everything the job did to the arena.
func (p *Pool) Arena(i int) *vm.Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.arenas[i]
}

// acquire takes n exclusive slots, blocking until n are free at once.
// All-or-nothing: a waiter holds no slots while it waits, so concurrent
// multi-slot jobs cannot deadlock on partially collected sets (each
// would otherwise grab a few slots and starve the rest forever). Taken
// slots are the lowest-numbered free ones, so rank→slot assignment is
// deterministic for a given free set.
func (p *Pool) acquire(n int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.nfree < n {
		p.cond.Wait()
	}
	taken := make([]int, 0, n)
	for i := 0; i < p.n && len(taken) < n; i++ {
		if p.free[i] {
			p.free[i] = false
			taken = append(taken, i)
		}
	}
	p.nfree -= n
	return taken
}

// release returns slots to the free set and wakes every waiter: the
// freed capacity may complete any waiter's demand, and the all-or-
// nothing check is cheap to re-run.
func (p *Pool) release(taken []int) {
	p.mu.Lock()
	for _, s := range taken {
		p.free[s] = true
	}
	p.nfree += len(taken)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// canaryFor derives a distinct, non-NaN guard canary for a job: a guard
// violation report names which job's loan was overrun. NaN is excluded
// by construction (high bits are a normal-range exponent) — a NaN
// canary would fail every audit, NaN never comparing equal.
func canaryFor(id int64) float64 {
	return math.Float64frombits(0x40C0FFEE00000000 | uint64(id)&0xFFFFFFFF)
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
	taken := p.acquire(int(spec.Procs))
	defer p.release(taken)
	arenas := make([]*vm.Arena, len(taken))
	canary := canaryFor(spec.ID)
	for i, s := range taken {
		arenas[i] = p.arenas[s]
		arenas[i].SetCanary(canary)
	}
	cfg.Arenas = arenas
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
