// Package ir defines the explicitly parallel SPMD program representation
// the compiler analyzes and the interpreter executes — the stand-in for
// the Fortran programs the paper's Parascope-based infrastructure handles.
//
// A Program is run by every processor (explicit parallelism). Work is
// partitioned through per-processor derived parameters such as begin/end,
// exactly like the Jacobi pseudo-code in the paper's Figure 1. Statements
// are loops with affine bounds, array assignments with affine subscripts,
// barriers, locks, opaque conditionals, kernels carrying declared access
// summaries (standing in for idiom analysis of non-affine code such as FFT
// butterflies), and call boundaries that model the interprocedural
// analysis limits the paper reports for Shallow.
//
// The compiler (package compiler) inserts ValidateStmt and PushStmt nodes;
// the interpreter (package interp) maps them onto the augmented run-time.
package ir

import (
	"maps"
	"time"

	"sdsm/internal/rsd"
	"sdsm/internal/shm"
)

// AccessType mirrors the augmented run-time's access patterns without
// importing it.
type AccessType int

// Access types for ValidateStmt.
const (
	Read AccessType = iota
	Write
	ReadWrite
	WriteAll
	ReadWriteAll
)

func (a AccessType) String() string {
	switch a {
	case Read:
		return "READ"
	case Write:
		return "WRITE"
	case ReadWrite:
		return "READ&WRITE"
	case WriteAll:
		return "WRITE_ALL"
	case ReadWriteAll:
		return "READ&WRITE_ALL"
	}
	return "?"
}

// ArrayDecl declares a shared array; dimensions may reference size
// parameters.
type ArrayDecl struct {
	Name string
	Dims []rsd.Lin
}

// DerivedParam is a per-processor parameter (e.g. begin/end) computed from
// the problem parameters, the processor id "p", and "nprocs".
type DerivedParam struct {
	Name rsd.Sym
	Fn   func(env rsd.Env) int
}

// Program is an SPMD program over a shared address space.
type Program struct {
	Name    string
	Arrays  []ArrayDecl
	Params  []rsd.Sym // problem-size parameters, bound at run configuration
	Derived []DerivedParam
	// Setup, if set, augments the parameter environment with values that
	// depend on the processor count (for example per-processor key counts).
	Setup func(params rsd.Env, nprocs int)
	Body  []Stmt
	// Local, if set, makes the private state one processor's kernels carry
	// between calls (a buffer grown once, a bound seen at the last merge).
	// The executor calls it once per processor and run and hands the value
	// to every kernel through KernelCtx.Local, so the program itself holds
	// no per-run state: one Program can run on any number of machines at
	// once, and again afterwards, with nothing left over.
	Local func() any
}

// Prepare returns a copy of params augmented by Setup for nprocs. The
// result is what layout construction, compilation and execution must use.
func (pr *Program) Prepare(params rsd.Env, nprocs int) rsd.Env {
	out := rsd.Env{}
	for k, v := range params {
		out[k] = v
	}
	if pr.Setup != nil {
		pr.Setup(out, nprocs)
	}
	return out
}

// Env builds the evaluation environment for processor p of nprocs given
// problem parameter bindings.
func (pr *Program) Env(params rsd.Env, p, nprocs int) rsd.Env {
	env := rsd.Env{}
	pr.FillEnv(env, params, p, nprocs)
	return env
}

// FillEnv makes env, whatever it held, the environment Env builds, in the
// map's own storage.
func (pr *Program) FillEnv(env, params rsd.Env, p, nprocs int) {
	clear(env)
	env["p"], env["nprocs"] = p, nprocs
	maps.Copy(env, params)
	for _, d := range pr.Derived {
		env[d.Name] = d.Fn(env)
	}
}

// Stmt is a program statement.
type Stmt interface{ isStmt() }

// Loop is a sequential counted loop with affine inclusive bounds and a
// constant positive step (1 when zero). Cyclic distributions use Step ==
// nprocs.
type Loop struct {
	Var    rsd.Sym
	Lo, Hi rsd.Lin
	Step   int
	Body   []Stmt
}

// StepOr1 returns the loop step, defaulting to 1.
func (l Loop) StepOr1() int {
	if l.Step == 0 {
		return 1
	}
	return l.Step
}

// Compute binds a symbol to a runtime-computed value (for example the
// first cyclically owned column greater than the current pivot). The
// analysis treats the symbol as opaque but affine-usable, matching the
// paper's "loop bounds can themselves be linear functions of variables".
type Compute struct {
	Sym rsd.Sym
	Fn  func(env rsd.Env) int
}

// Ref is an array reference with affine subscripts (one per dimension).
type Ref struct {
	Array string
	Idx   []rsd.Lin
}

// At builds a Ref.
func At(array string, idx ...rsd.Lin) Ref { return Ref{Array: array, Idx: idx} }

// Assign writes LHS elementwise from the RHS references combined by Fn.
// Cost is the virtual compute time charged per element (the knob that
// calibrates uniprocessor times against the paper's Table 1).
//
// Fn is a span kernel: one call computes a whole run of consecutive
// instances of the assignment — the iterations of the innermost loop, or
// a single instance — as "for every t, dst[t] from src[0][t], src[1][t],
// …", src[j] holding the values of RHS[j]. The contract has two halves.
//
// The kernel (package apps, or whoever builds the program) guarantees
// that it is elementwise and position-independent: it writes dst[t] for
// every t in range of dst and nothing else, dst[t] depends on the
// src[j][t] of the same t only — not on t, not on len(dst), not on how a
// run was cut into calls — and it performs the same floating-point
// operations in the same order for every element, so one call over n
// elements and n calls over one element each leave the same bits. It may
// visit the elements in any order.
//
// The caller (package interp) guarantees that len(src) == len(RHS), that
// every src[j] has len(dst) elements, and that each src[j] either is
// dst — the same words of memory, not a copy: the reference names
// the very element being assigned, `a(i) = a(i) + …` — or does not
// overlap dst at all. An operand that overlaps the destination without
// being identical to it is a loop-carried dependence (`a(i) = a(i-1)`),
// which no span call can honour; the caller then runs the kernel one
// element per call, in iteration order. Operands may overlap each other,
// and the kernel must not write to them.
type Assign struct {
	LHS  Ref
	RHS  []Ref
	Fn   func(dst []float64, src [][]float64)
	Cost time.Duration
}

// Barrier is a global synchronization point.
type Barrier struct{ ID int }

// LockAcquire/LockRelease guard a critical section; the lock id may depend
// on enclosing loop variables (IS accesses bucket sections in a staggered
// manner).
type LockAcquire struct{ ID rsd.Lin }

// LockRelease releases the lock.
type LockRelease struct{ ID rsd.Lin }

// If is an opaque conditional: the compiler cannot see through Cond, so an
// If is a fetch point and everything it touches is inexact (this is what
// keeps Gauss from qualifying for Push, as in the paper).
type If struct {
	Cond func(env rsd.Env) bool
	Then []Stmt
	Else []Stmt
}

// TaggedSection is a declared access of a Kernel.
type TaggedSection struct {
	Sec   rsd.Section
	Tag   rsd.Tag
	Exact bool
}

// KernelCtx gives a kernel body access to shared memory.
type KernelCtx interface {
	// Env returns the processor's evaluation environment.
	Env() rsd.Env
	// ReadRegion establishes read access and returns the memory image.
	ReadRegion(lo, hi int) []float64
	// WriteRegion establishes write access and returns the memory image.
	WriteRegion(lo, hi int) []float64
	// Array looks up a shared array; its Index resolves 1-based indices
	// to word addresses. Kernels that address per element look the array
	// up once, outside the loop.
	Array(name string) *shm.Array
	// Charge adds virtual compute time.
	Charge(d time.Duration)
	// Local returns this processor's private state for this run, made by
	// Program.Local at the first call (nil when the program declares none).
	Local() any
}

// Kernel is opaque code with a declared access summary, standing in for
// the idiom/interprocedural analysis a production compiler would apply to
// non-affine code (FFT butterflies, private scatter phases).
type Kernel struct {
	Name     string
	Accesses []TaggedSection
	Run      func(ctx KernelCtx)
}

// CallBoundary models a call to an unanalyzed procedure: a fetch point
// that terminates analysis regions (the paper's Shallow limitation).
type CallBoundary struct{ Name string }

// ValidateStmt is a compiler-inserted run-time call.
type ValidateStmt struct {
	At    AccessType
	Secs  []rsd.Section
	WSync bool // piggyback on the next synchronization operation
	Async bool // asynchronous data fetching
}

// PushStmt replaces a barrier by a point-to-point exchange. Reads and
// Writes are the per-processor sections in terms of the symbols "p",
// "nprocs", and the derived parameters; the interpreter evaluates them for
// every processor id, and keeps what it built under ReplacedBarrier — a
// program's barrier ids are distinct, so it names the statement.
type PushStmt struct {
	ReplacedBarrier int
	Reads           []rsd.Section
	Writes          []rsd.Section
}

func (Loop) isStmt()         {}
func (Compute) isStmt()      {}
func (Assign) isStmt()       {}
func (Barrier) isStmt()      {}
func (LockAcquire) isStmt()  {}
func (LockRelease) isStmt()  {}
func (If) isStmt()           {}
func (Kernel) isStmt()       {}
func (CallBoundary) isStmt() {}
func (ValidateStmt) isStmt() {}
func (PushStmt) isStmt()     {}
