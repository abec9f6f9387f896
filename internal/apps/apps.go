// Package apps contains the six applications of the paper's evaluation —
// Jacobi, 3D-FFT, Integer Sort (IS), Shallow, Gauss, and Modified
// Gramm-Schmidt (MGS) — each as:
//
//   - an explicitly parallel ir program (run unmodified for the Base
//     TreadMarks numbers, or through the compiler for the optimized ones),
//   - a hand-coded message-passing version (the PVMe stand-in), which with
//     a per-phase distribution overhead also stands in for the XHPF
//     compiler-generated code, and
//   - a sequential reference with checksum-based verification.
//
// Per-element compute costs are calibrated so the uniprocessor virtual
// times at the paper's data-set sizes approximate Table 1; see each
// application's comments. The default data sets are scaled down so the
// whole suite runs in seconds; EXPERIMENTS.md records paper-vs-measured.
package apps

import (
	"fmt"
	"math"
	"time"

	"sdsm/internal/compiler"
	"sdsm/internal/ir"
	"sdsm/internal/mp"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
)

// DataSet names one of the problem sizes of an application.
type DataSet string

// The two data sets used throughout the paper's evaluation, plus the
// boundary set some applications add for the adaptive-protocol
// experiments: a problem size chosen so the block partition lands
// mid-page, creating the falsely shared two-writer boundary pages the
// sub-page split bindings exist for (only jacobi defines it; the paper
// tables never use it).
const (
	Large DataSet = "large"
	Small DataSet = "small"
	Bound DataSet = "bound"
)

// App bundles everything the harness needs for one application.
type App struct {
	Name string
	// Build constructs the explicitly parallel program for a given
	// processor count (cyclic distributions need the count for loop steps
	// and section strides; the sequential reference uses Build(1)).
	Build func(nprocs int) *ir.Program

	// Sets maps data-set name to problem parameters (scaled defaults; each
	// application's constructor notes the paper's original sizes).
	Sets map[DataSet]rsd.Env

	// CheckArray is the array whose contents verify the run.
	CheckArray string

	// WSyncProfitable records whether merging synchronization and data
	// transfer helped in the paper (Gauss, MGS: broadcast); the harness
	// uses it to pick the best optimization configuration.
	WSyncProfitable bool
	// WSyncApplicable is false when interprocedural limits block the
	// transformation entirely (Shallow).
	WSyncApplicable bool
	// PushApplicable is false when the Section 4.2 conditions cannot hold
	// (locks in the cycle, conditionals, call boundaries).
	PushApplicable bool
	// PushProfitable records whether Push was part of the paper's best
	// configuration (Jacobi small set, 3D-FFT small set).
	PushProfitable bool

	// XHPF is false when the stand-in parallelizing compiler rejects the
	// program (IS: indirect access to the main array).
	XHPF bool
	// XHPFOverhead is the per-outer-iteration distribution overhead that
	// separates the XHPF stand-in from the hand-coded version.
	XHPFOverhead time.Duration

	// MP runs the hand-coded message-passing version on one rank and
	// returns the local contribution to the checksum (only when verify).
	MP func(r *mp.Rank, params rsd.Env, perIter time.Duration, verify bool) float64
}

// Registry returns the paper's six applications in the paper's order (the
// suite every paper table and figure iterates).
func Registry() []*App {
	return []*App{
		Jacobi(),
		FFT3D(),
		IS(),
		Shallow(),
		Gauss(),
		MGS(),
	}
}

// Irregular returns the applications beyond the paper's evaluation:
// workloads whose access patterns defeat compile-time regular-section
// analysis, added for the run-time adaptive protocol. SpMV is the
// barrier-synchronized irregular case (data-dependent neighbor reads);
// TSP is the lock-dominated migratory case (work queue and incumbent
// under locks); TSPS shards tsp's queue into per-node deques with
// lock-striped stealing, the workload the scaling experiments use.
func Irregular() []*App {
	return []*App{SpMV(), TSP(), TSPS()}
}

// All returns every application: the paper suite plus the irregular
// additions.
func All() []*App {
	return append(Registry(), Irregular()...)
}

// ByName finds an application.
func ByName(name string) (*App, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// BestOptions returns the compiler configuration the paper found best for
// this application (communication aggregation + consistency elimination
// always; sync+data merge and Push only where profitable; asynchronous
// fetching).
func (a *App) BestOptions(n int, params rsd.Env) compiler.Options {
	return compiler.Options{
		NProcs:    n,
		Params:    params,
		Aggregate: true,
		ConsElim:  true,
		SyncMerge: a.WSyncApplicable && a.WSyncProfitable,
		Push:      a.PushApplicable && a.PushProfitable,
		Async:     true,
	}
}

// RunMP is one rank's body of the message-passing version on any host:
// the problem parameters are a pure function of (app, set, ranks), so
// every rank derives them itself, applies the data set's cost scale and
// runs MP. It returns the rank's contribution to the checksum (only when
// verify).
func (a *App) RunMP(r *mp.Rank, set DataSet, overhead time.Duration, verify bool) float64 {
	params := a.Build(r.N).Prepare(a.Sets[set], r.N)
	if cs, ok := params["cscale"]; ok {
		r.SetCostScale(cs)
	}
	return a.MP(r, params, overhead, verify)
}

// Checksum computes a position-weighted checksum of the app's result
// array in a memory image.
func Checksum(layout *shm.Layout, mem []float64, array string) float64 {
	arr := layout.Array(array)
	sum := 0.0
	for i := 0; i < arr.Words(); i++ {
		sum += mem[arr.Base+i] * float64(1+i%97)
	}
	return sum
}

// ChecksumSlice computes the same weighted checksum over a local slice
// holding the logical array elements starting at logical offset off.
func ChecksumSlice(vals []float64, off int) float64 {
	sum := 0.0
	for i, v := range vals {
		sum += v * float64(1+(off+i)%97)
	}
	return sum
}

// Close reports approximate float equality for checksum comparison.
func Close(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// common affine helpers

func c(v int) rsd.Lin    { return rsd.Const(v) }
func v(s string) rsd.Lin { return rsd.Var(rsd.Sym(s)) }

// Span kernels more than one application assigns with (ir.Assign.Fn).

// copySpan is `lhs = rhs`.
func copySpan(d []float64, s [][]float64) { copy(d, s[0]) }

// halfSumTimes is `lhs = 0.5·(s0 + s1)·s2`, shallow's two mass fluxes.
func halfSumTimes(d []float64, s [][]float64) {
	a, b, c := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)]
	for t := range d {
		d[t] = 0.5 * (a[t] + b[t]) * c[t]
	}
}

// blockLow returns 1-based lower bound of a block partition of m items
// over n processors for processor p (0-based), expressed as a derived
// parameter function.
func blockLow(m, p, n int) int  { return p*m/n + 1 }
func blockHigh(m, p, n int) int { return (p + 1) * m / n }

// gatherSum is the message-passing twins' checksum tail: every rank's
// partial sum gathered at rank 0 and added in rank order. Non-roots
// return 0.
func gatherSum(r *mp.Rank, sum float64) float64 {
	total := 0.0
	for _, p := range r.Gather(0, []float64{sum}) {
		total += p[0]
	}
	return total
}
