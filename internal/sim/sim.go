// Package sim provides a deterministic, sequential discrete-event
// simulation engine for a collection of virtual processors.
//
// Run is one scheduler loop on its caller's goroutine. Each processor
// body is a coroutine (iter.Pull) that the loop resumes and that switches
// back to the loop when it yields, blocks or returns; the loop always
// resumes the runnable processor with the smallest virtual clock (ties
// broken by processor id). Exactly one of the loop and the bodies runs at
// any instant, so the engine needs no lock, every simulation is
// deterministic regardless of the Go scheduler, and a hand-off is two
// direct goroutine switches that never enter the Go scheduler (DESIGN.md
// §3 has the measurement that ruled out channels). Because the loop owns
// termination, no coroutine outlives Run: on deadlock, after a body panic,
// or when a body exits its goroutine, every unfinished body is unwound
// before Run returns.
//
// Processors advance their own clocks with Advance, block with Block, and
// are woken by other processors with Wake. Higher layers (network,
// synchronization, DSM protocol) are built from these three primitives.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/obs"
)

// state of a processor within the scheduler.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated processor, implementing host.Proc. Advance, Yield
// and Block switch coroutines and must be called from the processor's own
// body (not from a goroutine the body started); every other method only
// reads or writes scheduler state and may be called on any processor by
// whichever body is currently running. A body that exits its goroutine
// (runtime.Goexit, t.FailNow) ends the goroutine that called Run, after
// Run has unwound the other bodies.
type Proc struct {
	id int

	e      *Engine
	clock  time.Duration
	state  procState
	reason string // why the processor is blocked, for deadlock reports

	// The body's coroutine, valid during one Run: the loop resumes it
	// with next, the body switches back with yield, and stop makes a
	// parked yield return false (or, before the first next, ends the
	// coroutine without running the body).
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Engine coordinates a fixed set of processors.
type Engine struct {
	procs  []*Proc
	live   int
	err    error
	picked *Proc // Yield's choice, so the loop need not scan again

	// dispatches, when non-nil, counts scheduler hand-offs (one per
	// processor resume) for the observability layer. Nil on untraced
	// runs; it never affects the schedule.
	dispatches *obs.Counter
}

// EnableObs registers the engine's dispatch counter with the unified
// metrics registry. Observability only; never called on untraced runs.
func (e *Engine) EnableObs(reg *obs.Registry) {
	e.dispatches = reg.Counter("sim.dispatches")
}

// NewEngine creates an engine with n processors whose clocks start at zero.
func NewEngine(n int) *Engine {
	if n <= 0 {
		panic("sim: engine needs at least one processor")
	}
	e := &Engine{}
	for i := 0; i < n; i++ {
		e.procs = append(e.procs, &Proc{id: i, e: e})
	}
	return e
}

// N returns the number of processors.
func (e *Engine) N() int { return len(e.procs) }

// Proc returns processor i.
func (e *Engine) Proc(i int) host.Proc { return e.procs[i] }

// Run executes body once per processor and returns when all processors have
// finished. It returns an error if the simulation deadlocks (every live
// processor blocked) or as soon as a body panics. However it ends, every
// body has returned or been unwound by then, and the engine can Run again.
func (e *Engine) Run(body func(p host.Proc)) (err error) {
	e.live, e.err, e.picked = len(e.procs), nil, nil
	for _, p := range e.procs {
		p.clock, p.state, p.reason = 0, stateRunnable, ""
		p.next, p.stop = iter.Pull(p.coroutine(body))
	}
	// Deferred, not sequential: a Goexit in a body propagates out of
	// next and must still release the other bodies.
	defer func() {
		for _, p := range e.procs {
			p.stop()
		}
		err = e.err
	}()
	for e.live > 0 && e.err == nil {
		p := e.picked
		e.picked = nil
		if p == nil {
			p = e.pick()
		}
		if p == nil {
			e.err = fmt.Errorf("sim: deadlock: %s", e.blockReport())
			break
		}
		e.dispatch(p)
		p.next()
	}
	return
}

// stopped is the panic value that unwinds a body parked in Yield or Block
// when Run ends without it. Engine calls made by the body's deferred
// functions while it unwinds panic with it again rather than park.
type stopped struct{}

// coroutine wraps body as p's coroutine: it converts a panic into the
// run's error and retires p however body ends.
func (p *Proc) coroutine(body func(host.Proc)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.state = stateDone
			p.e.live--
			if r := recover(); r != nil && r != (stopped{}) && p.e.err == nil {
				p.e.err = fmt.Errorf("sim: processor %d panicked: %v", p.id, r)
			}
		}()
		body(p)
	}
}

// pick returns the runnable processor with the smallest (clock, id), or
// nil if there is none. procs is in id order, so the strict comparison
// breaks clock ties towards the smaller id.
func (e *Engine) pick() *Proc {
	var next *Proc
	for _, q := range e.procs {
		if q.state == stateRunnable && (next == nil || q.clock < next.clock) {
			next = q
		}
	}
	return next
}

// dispatch hands the token to p.
func (e *Engine) dispatch(p *Proc) {
	p.state = stateRunning
	e.dispatches.Inc()
}

// park switches to the scheduler loop and returns when p is dispatched
// again.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

func (e *Engine) blockReport() string {
	var parts []string
	for _, q := range e.procs {
		if q.state == stateBlocked {
			parts = append(parts, fmt.Sprintf("p%d@%v(%s)", q.id, q.clock, q.reason))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// ID returns the processor number, 0..N-1.
func (p *Proc) ID() int { return p.id }

// Now returns the processor's current virtual time.
func (p *Proc) Now() time.Duration { return p.clock }

// Advance charges d of virtual time to the processor and yields, letting
// any processor with a smaller clock run first.
func (p *Proc) Advance(d time.Duration) {
	if d < 0 {
		panic("sim: negative advance")
	}
	p.clock += d
	p.Yield()
}

// Charge adds d to the processor's clock without yielding. It may be called
// by the currently running processor on any processor (including a blocked
// one) to account for overhead imposed remotely, such as servicing an
// interrupt.
func (p *Proc) Charge(d time.Duration) {
	if d < 0 {
		panic("sim: negative charge")
	}
	p.clock += d
}

// Yield gives other processors with smaller clocks a chance to run. A
// processor that is still the minimum is dispatched again without a
// coroutine switch.
func (p *Proc) Yield() {
	p.state = stateRunnable
	q := p.e.pick()
	if q == p {
		p.e.dispatch(p)
		return
	}
	p.e.picked = q
	p.park()
}

// Block suspends the processor until another processor calls Wake on it.
// reason appears in deadlock reports.
func (p *Proc) Block(reason string) {
	p.state, p.reason = stateBlocked, reason
	p.park()
}

// Wake makes a blocked processor runnable again, moving its clock forward
// to at if at is later than the processor's clock. Wake must be called by
// the currently running processor. Waking a non-blocked processor panics:
// wakes are direct handoffs, never broadcasts.
func (p *Proc) Wake(target host.Proc, at time.Duration) {
	q := target.(*Proc)
	if q.state != stateBlocked {
		panic(fmt.Sprintf("sim: Wake on non-blocked processor %d", q.id))
	}
	if at > q.clock {
		q.clock = at
	}
	q.state = stateRunnable
	q.reason = ""
}

// SetClock forces the processor's clock to at if at is later. It is used by
// synchronization objects that compute a common departure time.
func (p *Proc) SetClock(at time.Duration) {
	if at > p.clock {
		p.clock = at
	}
}

// Begin, End, BeginCompute and EndCompute are no-ops: the engine already
// admits one processor at a time, so every instant is a protocol section.
func (p *Proc) Begin()        {}
func (p *Proc) End()          {}
func (p *Proc) BeginCompute() {}
func (p *Proc) EndCompute()   {}

// Hold runs fn directly: no processor computes while another runs.
func (p *Proc) Hold(q host.Proc, fn func()) { fn() }
