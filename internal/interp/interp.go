// Package interp executes ir programs, either on the simulated DSM
// (every node runs the SPMD program against its tmk runtime, with shared
// accesses going through the software MMU and compute charged to virtual
// time) or sequentially against a flat array (the reference used for
// correctness verification).
//
// It analyses nothing and runs nothing symbolic. The compiler's
// representation — string symbols, map-backed affine expressions, arrays
// by name — is lowered once per shape of machine (Lower, lower.go: symbols
// to integer slots, expressions to dense terms, references to arrays,
// strides and per-iteration steps, Validate/Push sections to bounds keying
// a memo of what each builds) into a program every rank's executor, on
// every machine that runs it, shares read-only (exec.go; DESIGN.md §1,
// "Analyse symbolically, run lowered"). The executors, their memos
// included, outlive the machine: a finished run hands its set back to the
// program for the next machine (Lowered.Run). The callbacks that read the
// environment by name — Compute, If, kernels — get a map view of the
// slots on demand (executor.envView).
//
// Accesses are established at region granularity: for an innermost loop,
// the executor resolves each array reference to an address span, checks
// both ends of it against the array, calls EnsureRead/EnsureWrite once
// (delivering any protection faults to the DSM protocol, exactly as
// hardware would on first touch), and then runs a tight loop over the
// floats.
package interp

import (
	"fmt"
	"time"

	"sdsm/internal/compiler"
	"sdsm/internal/ir"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/tmk"
)

// target abstracts where a program executes.
//
// beginCompute/endCompute bracket stretches that write shared memory
// directly through data() without entering the run-time; on the
// real-concurrency backend they serialize those writes against remote
// diff creation (see internal/host). A compute section must be ended
// before calling any other target method that can enter the run-time.
type target interface {
	ensureRead(lo, hi int)
	ensureWrite(lo, hi int)
	data() []float64
	beginCompute()
	endCompute()
	advance(d time.Duration)
	barrier(id int)
	acquire(id int)
	release(id int)
	validate(at ir.AccessType, regions []shm.Region, wsync, async bool)
	push(send [][]shm.Region, from []bool)
}

// RunDSM executes prog on every node of sys with the given problem
// parameters (already passed through Program.Prepare). The layout of sys
// must have been built from prog (see compiler.BuildLayout). Optional
// epilogues run on every node after the program finishes, for gathering
// results. It lowers prog for this one machine; a caller that runs a shape
// again and again lowers it once (Lower) and runs that.
func RunDSM(prog *ir.Program, sys *tmk.System, params rsd.Env, epilogue ...func(nd *tmk.Node)) error {
	return Lower(prog, sys.Layout, params, sys.N()).Run(sys, epilogue...)
}

// Run executes the program on every node of sys, which must have been
// built over the layout and rank count it was lowered for, then the
// epilogues, as RunDSM does. Several machines may run it at once: each
// takes an executor set of its own off the idle list, or makes one, and a
// run that returns no error gives it back.
func (lp *Lowered) Run(sys *tmk.System, epilogue ...func(nd *tmk.Node)) error {
	if sys.Layout != lp.layout || sys.N() != lp.nprocs {
		return fmt.Errorf("interp: %s lowered for %d ranks runs on a machine of %d or over another layout", lp.prog.Name, lp.nprocs, sys.N())
	}
	xs := lp.take()
	err := sys.Run(func(nd *tmk.Node) {
		x := xs[nd.ID]
		x.reset(nd)
		x.exec(lp.body)
		for _, ep := range epilogue {
			ep(nd)
		}
		x.park()
	})
	if err == nil {
		lp.idle.Lock()
		lp.idle.sets = append(lp.idle.sets, xs)
		lp.idle.Unlock()
	}
	return err
}

// take returns an idle executor set, or a new one.
func (lp *Lowered) take() []*executor {
	lp.idle.Lock()
	defer lp.idle.Unlock()
	if n := len(lp.idle.sets); n > 0 {
		xs := lp.idle.sets[n-1]
		lp.idle.sets[n-1], lp.idle.sets = nil, lp.idle.sets[:n-1]
		return xs
	}
	xs := make([]*executor, lp.nprocs)
	for i := range xs {
		xs[i] = newExecutor(lp, i, nil)
	}
	return xs
}

// SeqTime returns the pure-compute execution time of prog: the sum of all
// compute charges with no DSM or communication overheads. This is the
// paper's uniprocessor baseline ("obtained by removing all
// synchronization from the TreadMarks programs").
func SeqTime(prog *ir.Program, params rsd.Env) time.Duration {
	_, t := runSeq(prog, params)
	return t.elapsed
}

// costScale reads the optional compute-scale parameter (see the apps
// package: scaled-down data sets multiply per-element compute so the
// computation-to-communication balance stays in the paper's regime).
func costScale(params rsd.Env) int {
	if v, ok := params["cscale"]; ok && v > 1 {
		return v
	}
	return 1
}

// RunSeq executes prog sequentially (one logical processor, no DSM, no
// costs) and returns the layout and final memory image, the reference for
// verification.
func RunSeq(prog *ir.Program, params rsd.Env) (*shm.Layout, []float64) {
	layout, t := runSeq(prog, params)
	return layout, t.mem
}

func runSeq(prog *ir.Program, params rsd.Env) (*shm.Layout, *seqTarget) {
	layout := compiler.BuildLayout(prog, params)
	t := &seqTarget{mem: make([]float64, layout.Words())}
	lp := Lower(prog, layout, params, 1)
	newExecutor(lp, 0, t).exec(lp.body)
	return layout, t
}

// dsmTarget runs on a DSM node.
type dsmTarget struct{ nd *tmk.Node }

func (t *dsmTarget) ensureRead(lo, hi int) {
	t.nd.Mem.EnsureRead(t.nd.Proc(), shm.Region{Lo: lo, Hi: hi})
}
func (t *dsmTarget) ensureWrite(lo, hi int) {
	t.nd.Mem.EnsureWrite(t.nd.Proc(), shm.Region{Lo: lo, Hi: hi})
}
func (t *dsmTarget) data() []float64         { return t.nd.Mem.Data() }
func (t *dsmTarget) beginCompute()           { t.nd.Proc().BeginCompute() }
func (t *dsmTarget) endCompute()             { t.nd.Proc().EndCompute() }
func (t *dsmTarget) advance(d time.Duration) { t.nd.Proc().Advance(d) }
func (t *dsmTarget) barrier(id int)          { t.nd.Barrier(id) }
func (t *dsmTarget) acquire(id int)          { t.nd.Acquire(id) }
func (t *dsmTarget) release(id int)          { t.nd.Release(id) }

func (t *dsmTarget) validate(at ir.AccessType, regions []shm.Region, wsync, async bool) {
	var acc tmk.AccessType
	switch at {
	case ir.Read:
		acc = tmk.AccRead
	case ir.Write:
		acc = tmk.AccWrite
	case ir.ReadWrite:
		acc = tmk.AccReadWrite
	case ir.WriteAll:
		acc = tmk.AccWriteAll
	case ir.ReadWriteAll:
		acc = tmk.AccReadWriteAll
	}
	if wsync {
		t.nd.ValidateWSync(acc, regions)
		return
	}
	t.nd.Validate(acc, regions, async)
}

func (t *dsmTarget) push(send [][]shm.Region, from []bool) { t.nd.Push(send, from) }

// seqTarget is the cost-free sequential reference; it accumulates compute
// charges for SeqTime.
type seqTarget struct {
	mem     []float64
	elapsed time.Duration
}

func (t *seqTarget) ensureRead(int, int)                              {}
func (t *seqTarget) ensureWrite(int, int)                             {}
func (t *seqTarget) beginCompute()                                    {}
func (t *seqTarget) endCompute()                                      {}
func (t *seqTarget) data() []float64                                  { return t.mem }
func (t *seqTarget) advance(d time.Duration)                          { t.elapsed += d }
func (t *seqTarget) barrier(int)                                      {}
func (t *seqTarget) acquire(int)                                      {}
func (t *seqTarget) release(int)                                      {}
func (t *seqTarget) validate(ir.AccessType, []shm.Region, bool, bool) {}
func (t *seqTarget) push([][]shm.Region, []bool)                      {}
