package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/leaktest"
	"sdsm/internal/obs"
)

func TestSingleProcAdvance(t *testing.T) {
	e := NewEngine(1)
	var end time.Duration
	err := e.Run(func(p host.Proc) {
		p.Advance(5 * time.Microsecond)
		p.Advance(7 * time.Microsecond)
		end = p.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 12*time.Microsecond {
		t.Fatalf("clock = %v, want 12µs", end)
	}
}

func TestMinClockOrdering(t *testing.T) {
	// Processor 1 advances in small steps, processor 0 in one big step.
	// The order of observed steps must interleave by virtual time.
	e := NewEngine(2)
	var order []int64
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			p.Advance(100 * time.Microsecond)
			order = append(order, 1000+int64(p.Now()/time.Microsecond))
		} else {
			for i := 0; i < 5; i++ {
				p.Advance(10 * time.Microsecond)
				order = append(order, 2000+int64(p.Now()/time.Microsecond))
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int64{2010, 2020, 2030, 2040, 2050, 1100}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine(2)
	var wakeTime time.Duration
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			p.Block("waiting for p1")
			wakeTime = p.Now()
		} else {
			p.Advance(50 * time.Microsecond)
			p.Wake(e.Proc(0), 60*time.Microsecond)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wakeTime != 60*time.Microsecond {
		t.Fatalf("wake time = %v, want 60µs", wakeTime)
	}
}

func TestWakeDoesNotRewindClock(t *testing.T) {
	e := NewEngine(2)
	var wakeTime time.Duration
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			p.Advance(100 * time.Microsecond)
			p.Block("wait")
			wakeTime = p.Now()
		} else {
			p.Advance(200 * time.Microsecond)
			p.Wake(e.Proc(0), 10*time.Microsecond) // earlier than p0's clock
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wakeTime != 100*time.Microsecond {
		t.Fatalf("wake time = %v, want 100µs (clock must not rewind)", wakeTime)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(2)
	err := e.Run(func(p host.Proc) {
		p.Block("forever")
	})
	if want := "sim: deadlock: p0@0s(forever), p1@0s(forever)"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestChargeAccumulates(t *testing.T) {
	e := NewEngine(2)
	var end time.Duration
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			p.Advance(10 * time.Microsecond)
			p.Charge(3 * time.Microsecond)
			p.Advance(1 * time.Microsecond)
			end = p.Now()
		} else {
			p.Advance(500 * time.Microsecond)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 14*time.Microsecond {
		t.Fatalf("clock = %v, want 14µs", end)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine(4)
		var seq []int
		err := e.Run(func(p host.Proc) {
			for i := 0; i < 3; i++ {
				p.Advance(time.Duration(1+p.ID()) * time.Microsecond)
				seq = append(seq, p.ID())
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return seq
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: sequence %v != %v", trial, got, first)
			}
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	e := NewEngine(2)
	err := e.Run(func(p host.Proc) {
		if p.ID() == 1 {
			panic("boom")
		}
		p.Advance(time.Microsecond)
	})
	if want := "sim: processor 1 panicked: boom"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestManyProcsAllFinish(t *testing.T) {
	const n = 16
	e := NewEngine(n)
	var count int64
	err := e.Run(func(p host.Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(time.Microsecond)
		}
		atomic.AddInt64(&count, 1)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != n {
		t.Fatalf("finished = %d, want %d", count, n)
	}
}

func TestWakeNonBlockedPanics(t *testing.T) {
	e := NewEngine(2)
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			defer func() {
				if r, want := recover(), "sim: Wake on non-blocked processor 1"; r != want {
					t.Errorf("Wake on a runnable processor: recovered %v, want %q", r, want)
				}
			}()
			p.Wake(e.Proc(1), time.Microsecond) // p1 is runnable, not blocked
		}
	})
	if err != nil {
		t.Fatalf("Run: %v (the body recovered its own panic)", err)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := NewEngine(1)
	err := e.Run(func(p host.Proc) {
		defer func() { recover() }()
		p.Advance(-time.Second)
		t.Error("negative advance must panic")
	})
	_ = err
}

// The three ways a run ends early must each unwind every body before Run
// returns: nothing of the run may be left parked, pinning its captures.

func TestDeadlockReleasesProcs(t *testing.T) {
	leaktest.Check(t)
	var unwound atomic.Int64
	err := NewEngine(4).Run(func(p host.Proc) {
		defer unwound.Add(1)
		p.Advance(time.Duration(p.ID()) * time.Microsecond)
		p.Block("forever")
	})
	if want := "sim: deadlock: p0@0s(forever), p1@1µs(forever), p2@2µs(forever), p3@3µs(forever)"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if unwound.Load() != 4 {
		t.Fatalf("%d of 4 bodies ran their deferred calls", unwound.Load())
	}
}

func TestPanicReleasesProcs(t *testing.T) {
	leaktest.Check(t)
	var unwound atomic.Int64
	err := NewEngine(4).Run(func(p host.Proc) {
		defer unwound.Add(1)
		if p.ID() == 2 {
			p.Advance(time.Microsecond) // the others are parked by now
			panic("boom")
		}
		p.Block("waiting for p2")
	})
	if want := "sim: processor 2 panicked: boom"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if unwound.Load() != 4 {
		t.Fatalf("%d of 4 bodies ran their deferred calls", unwound.Load())
	}
}

// A body that exits its goroutine (t.FailNow is Fail + runtime.Goexit)
// takes the Run caller with it, but only after the other bodies are
// unwound.
func TestGoexitEndsRunCaller(t *testing.T) {
	leaktest.Check(t)
	var unwound atomic.Int64
	returned, exited := false, make(chan struct{})
	go func() {
		defer close(exited)
		NewEngine(3).Run(func(p host.Proc) {
			defer unwound.Add(1)
			if p.ID() == 1 {
				p.Advance(time.Microsecond)
				runtime.Goexit()
			}
			p.Block("waiting for p1")
		})
		returned = true
	}()
	<-exited
	if returned {
		t.Error("Run returned although a body called Goexit")
	}
	if unwound.Load() != 3 {
		t.Errorf("%d of 3 bodies ran their deferred calls", unwound.Load())
	}
}

// Deferred code that re-enters the engine while its body is being unwound
// must neither park again (nobody would resume it) nor mask the run's
// error.
func TestDeferredYieldDuringUnwind(t *testing.T) {
	leaktest.Check(t)
	var reentered atomic.Int64
	err := NewEngine(3).Run(func(p host.Proc) {
		defer func() {
			reentered.Add(1)
			p.Advance(time.Microsecond)
			p.Block("again")
			t.Error("Block returned in a body that is being unwound")
		}()
		p.Block("forever")
	})
	if want := "sim: deadlock: p0@0s(forever), p1@0s(forever), p2@0s(forever)"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if reentered.Load() != 3 {
		t.Fatalf("%d of 3 deferred calls ran", reentered.Load())
	}
}

func TestEngineRunTwice(t *testing.T) {
	leaktest.Check(t)
	e := NewEngine(3)
	if err := e.Run(func(p host.Proc) { p.Block("forever") }); err == nil {
		t.Fatal("expected deadlock error")
	}
	for round := 0; round < 2; round++ {
		var ran atomic.Int64
		err := e.Run(func(p host.Proc) {
			if p.Now() != 0 {
				t.Errorf("round %d: p%d starts at %v", round, p.ID(), p.Now())
			}
			p.Advance(time.Duration(1+p.ID()) * time.Microsecond)
			ran.Add(1)
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if ran.Load() != 3 {
			t.Fatalf("round %d: %d of 3 bodies ran", round, ran.Load())
		}
	}
}

// A body is an ordinary goroutine between engine calls: it may wait on
// host-level events that only a goroutine outside the engine produces.
func TestBodyBlocksOnRealChannel(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			leaktest.Check(t)
			ch := make(chan time.Duration)
			go func() {
				time.Sleep(time.Millisecond)
				ch <- 7 * time.Microsecond
			}()
			var end time.Duration
			err := NewEngine(2).Run(func(p host.Proc) {
				if p.ID() == 0 {
					p.Advance(<-ch)
					end = p.Now()
				} else {
					p.Advance(time.Microsecond)
				}
			})
			if err != nil || end != 7*time.Microsecond {
				t.Fatalf("err = %v, clock = %v, want 7µs", err, end)
			}
		})
	}
}

// Schedule equivalence: random programs run on the engine must be
// dispatched in exactly the order a pure min-(clock, id) scheduler
// dispatches them, whatever the Go scheduler does underneath.

type opKind int

const (
	opAdvance opKind = iota
	opYield
	opBlock // skipped when no other processor could wake us
	opWake  // skipped when the target is not blocked
	opCharge
)

type op struct {
	kind   opKind
	target int
	d      time.Duration
}

type dispatch struct {
	id    int
	clock time.Duration
}

func randomProgram(rng *rand.Rand, n int) [][]op {
	prog := make([][]op, n)
	for i := range prog {
		prog[i] = make([]op, 20+rng.Intn(60))
		for j := range prog[i] {
			// Small durations so that clock ties are common.
			prog[i][j] = op{opKind(rng.Intn(5)), rng.Intn(n), time.Duration(rng.Intn(4)) * time.Microsecond}
		}
	}
	return prog
}

// machine is the program-level state both interpreters keep so that a
// random program cannot deadlock: a processor blocks only while another is
// active, and a finishing processor wakes everyone still blocked.
type machine struct {
	blocked []bool
	active  int
}

func newMachine(n int) *machine { return &machine{blocked: make([]bool, n), active: n} }

// runOnEngine interprets prog as engine bodies, recording one dispatch per
// return from an engine call that can switch.
func runOnEngine(t *testing.T, prog [][]op) (seq []dispatch, counted int64) {
	e, m := NewEngine(len(prog)), newMachine(len(prog))
	reg := obs.NewRegistry()
	e.EnableObs(reg)
	err := e.Run(func(p host.Proc) {
		id := p.ID()
		seq = append(seq, dispatch{id, p.Now()})
		wake := func(q int) {
			m.blocked[q] = false
			m.active++
			p.Wake(e.Proc(q), p.Now())
		}
		for _, o := range prog[id] {
			switch o.kind {
			case opAdvance:
				p.Advance(o.d)
			case opYield:
				p.(*Proc).Yield()
			case opBlock:
				if m.active == 1 {
					continue
				}
				m.blocked[id] = true
				m.active--
				p.Block("script")
			case opWake:
				if m.blocked[o.target] {
					wake(o.target)
				}
				continue
			case opCharge:
				e.Proc(o.target).Charge(o.d)
				continue
			}
			seq = append(seq, dispatch{id, p.Now()})
		}
		for q, b := range m.blocked {
			if b {
				wake(q)
			}
		}
		m.active--
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return seq, reg.Counter("sim.dispatches").Value()
}

// runOnReference interprets prog with no engine and no goroutines: pick the
// minimum (clock, id) runnable processor, run it to its next scheduling
// point, repeat.
func runOnReference(prog [][]op) (seq []dispatch) {
	n := len(prog)
	m := newMachine(n)
	clock, pc, done := make([]time.Duration, n), make([]int, n), make([]bool, n)
	wake := func(q int, at time.Duration) {
		m.blocked[q] = false
		m.active++
		clock[q] = max(clock[q], at)
	}
	for {
		id := -1
		for q := 0; q < n; q++ {
			if !done[q] && !m.blocked[q] && (id < 0 || clock[q] < clock[id]) {
				id = q
			}
		}
		if id < 0 {
			return seq
		}
		seq = append(seq, dispatch{id, clock[id]})
		switched := false
		for !switched && pc[id] < len(prog[id]) {
			o := prog[id][pc[id]]
			pc[id]++
			switch o.kind {
			case opAdvance:
				clock[id] += o.d
				switched = true
			case opYield:
				switched = true
			case opBlock:
				if m.active > 1 {
					m.blocked[id] = true
					m.active--
					switched = true
				}
			case opWake:
				if m.blocked[o.target] {
					wake(o.target, clock[id])
				}
			case opCharge:
				clock[o.target] += o.d
			}
		}
		if !switched {
			for q, b := range m.blocked {
				if b {
					wake(q, clock[id])
				}
			}
			m.active--
			done[id] = true
		}
	}
}

func TestScheduleMatchesReference(t *testing.T) {
	for _, gmp := range []int{1, 4} {
		for _, n := range []int{1, 2, 3, 8, 32} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/procs=%d", gmp, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
				for seed := int64(0); seed < 20; seed++ {
					prog := randomProgram(rand.New(rand.NewSource(seed)), n)
					want := runOnReference(prog)
					got, counted := runOnEngine(t, prog)
					if !slices.Equal(got, want) {
						i := 0
						for i < len(got) && i < len(want) && got[i] == want[i] {
							i++
						}
						t.Fatalf("seed %d: %d dispatches, reference %d; first difference at %d: got %v, want %v",
							seed, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
					}
					if counted != int64(len(want)) {
						t.Fatalf("seed %d: sim.dispatches = %d, reference made %d", seed, counted, len(want))
					}
				}
			})
		}
	}
}

// The dispatch benchmarks (ROADMAP's "sim engine dispatch" ledger row):
// ns/op is the host cost of one scheduling point.

func benchAdvance(b *testing.B, procs int) {
	e := NewEngine(procs)
	b.ResetTimer()
	err := e.Run(func(p host.Proc) {
		for i := 0; i < b.N/procs; i++ {
			p.Advance(time.Microsecond) // equal clocks: every Advance switches
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkHandoff(b *testing.B)   { benchAdvance(b, 2) }
func BenchmarkHandoff32(b *testing.B) { benchAdvance(b, 32) }

// BenchmarkSelfYield is a Yield that finds its caller still the minimum.
func BenchmarkSelfYield(b *testing.B) { benchAdvance(b, 1) }
