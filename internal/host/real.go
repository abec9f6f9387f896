package host

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdsm/internal/obs"
)

// Real is the real-concurrency host: each processor is a goroutine, and
// nothing serializes execution by virtual time. Compute sections on
// different processors run genuinely in parallel on multicore; protocol
// sections are mutually excluded by a host-wide token (see the package
// comment for the contract). Virtual time is still accounted — clocks are
// atomics because protocol code charges remote processors — but the
// resulting virtual times depend on scheduling (lock grant order, barrier
// arrival order) and are NOT the paper's deterministic numbers; use the
// sim host for those. Application results are unaffected for data-race-free
// programs: the protocol state machine sees the same serialized protocol
// sections either way.
type Real struct {
	mu    sync.Mutex // the protocol-section token
	procs []*RealProc

	// sections, when non-nil, counts protocol-section token acquisitions
	// (Begin plus every Block reacquire) for the observability layer. Nil
	// means tracing is off and the fast path is a single pointer test.
	sections *obs.Counter

	abort     chan struct{} // closed on first panic, unwinds blocked procs
	abortOnce sync.Once
	errMu     sync.Mutex
	err       error
}

// EnableObs registers the host's contention counter with the unified
// metrics registry. Observability only; never called on untraced runs.
func (h *Real) EnableObs(reg *obs.Registry) {
	h.sections = reg.Counter("host.token.acquires")
}

// errAborted unwinds processors blocked after another processor failed.
var errAborted = errors.New("host: aborted by peer failure")

// NewReal creates a real-concurrency host with n processors.
func NewReal(n int) *Real {
	if n <= 0 {
		panic("host: real host needs at least one processor")
	}
	h := &Real{abort: make(chan struct{})}
	for i := 0; i < n; i++ {
		h.procs = append(h.procs, &RealProc{id: i, h: h, wake: make(chan time.Duration, 1)})
	}
	return h
}

// N returns the number of processors.
func (h *Real) N() int { return len(h.procs) }

// Proc returns processor i.
func (h *Real) Proc(i int) Proc { return h.procs[i] }

// Run executes body once per processor, each on its own goroutine, and
// returns when all have finished. A panic in one body aborts the others
// (they unwind at their next blocking point) and is returned as an error.
func (h *Real) Run(body func(p Proc)) error {
	var wg sync.WaitGroup
	for _, p := range h.procs {
		p := p
		p.clock.Store(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				// Release whatever the failing processor held so its
				// peers can drain to their own abort checks.
				if p.inCompute {
					p.inCompute = false
					p.compMu.Unlock()
				}
				if p.inSection {
					p.inSection = false
					h.mu.Unlock()
				}
				if r != errAborted {
					h.fail(fmt.Errorf("host: processor %d panicked: %v", p.id, r))
				}
			}()
			body(p)
		}()
	}
	wg.Wait()
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.err
}

func (h *Real) fail(err error) {
	h.errMu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.errMu.Unlock()
	h.abortOnce.Do(func() { close(h.abort) })
}

// RealProc is one processor of a Real host.
type RealProc struct {
	id    int
	h     *Real
	clock atomic.Int64 // virtual time in nanoseconds

	// compMu excludes compute sections against Hold; inCompute/inSection
	// are only touched by the owning goroutine (panic cleanup included).
	compMu    sync.Mutex
	inCompute bool
	inSection bool
	wake      chan time.Duration
}

// ID returns the processor number.
func (p *RealProc) ID() int { return p.id }

// Now returns the processor's current virtual time.
func (p *RealProc) Now() time.Duration { return time.Duration(p.clock.Load()) }

// Advance charges d of virtual time. The real host never yields on
// advance: real time, not virtual time, schedules execution.
func (p *RealProc) Advance(d time.Duration) {
	if d < 0 {
		panic("host: negative advance")
	}
	p.clock.Add(int64(d))
}

// Charge adds d to the processor's clock; callable from any processor.
func (p *RealProc) Charge(d time.Duration) {
	if d < 0 {
		panic("host: negative charge")
	}
	p.clock.Add(int64(d))
}

// SetClock forces the clock to at if at is later.
func (p *RealProc) SetClock(at time.Duration) {
	for {
		cur := p.clock.Load()
		if int64(at) <= cur {
			return
		}
		if p.clock.CompareAndSwap(cur, int64(at)) {
			return
		}
	}
}

// Block suspends the processor until a Wake, releasing the protocol token
// while suspended. Must be called inside a protocol section.
func (p *RealProc) Block(reason string) {
	if !p.inSection {
		panic(fmt.Sprintf("host: processor %d blocking (%s) outside a protocol section", p.id, reason))
	}
	p.inSection = false
	p.h.mu.Unlock()
	select {
	case at := <-p.wake:
		p.SetClock(at)
	case <-p.h.abort:
		// Reacquire before unwinding so the caller's deferred End finds
		// the section in the state it expects.
		p.h.mu.Lock()
		p.inSection = true
		panic(errAborted)
	}
	p.h.mu.Lock()
	p.inSection = true
	p.h.sections.Inc()
}

// Wake makes a blocked processor runnable. The protocol only wakes
// processors it has observed blocked (queue entries, barrier arrivals made
// under the token), so a full wake buffer means a double wake: a bug.
func (p *RealProc) Wake(q Proc, at time.Duration) {
	rq := q.(*RealProc)
	select {
	case rq.wake <- at:
	default:
		panic(fmt.Sprintf("host: double wake on processor %d", rq.id))
	}
}

// Begin enters the host-wide protocol section.
func (p *RealProc) Begin() {
	p.h.mu.Lock()
	p.inSection = true
	p.h.sections.Inc()
	select {
	case <-p.h.abort:
		p.inSection = false
		p.h.mu.Unlock()
		panic(errAborted)
	default:
	}
}

// End leaves the protocol section.
func (p *RealProc) End() {
	p.inSection = false
	p.h.mu.Unlock()
}

// BeginCompute enters a local compute section.
func (p *RealProc) BeginCompute() {
	p.compMu.Lock()
	p.inCompute = true
}

// EndCompute leaves a local compute section.
func (p *RealProc) EndCompute() {
	p.inCompute = false
	p.compMu.Unlock()
}

// Hold runs fn with q excluded from compute sections, waiting for q's
// current compute section (if any) to end. This is what makes servicing a
// request against a remote node's memory image safe while that node is
// crunching: the access is serialized against the target's compute and
// publishes with a proper happens-before edge.
func (p *RealProc) Hold(q Proc, fn func()) {
	rq := q.(*RealProc)
	if rq == p {
		fn()
		return
	}
	rq.compMu.Lock()
	defer rq.compMu.Unlock()
	fn()
}
