// Package harness runs the paper's experiments: it configures an
// application, system (Base TreadMarks, compiler-optimized TreadMarks at
// any optimization level, XHPF stand-in, PVMe stand-in), data set, and
// processor count; executes the run on the simulated cluster; and returns
// execution time, speedup, and protocol statistics. The table and figure
// formatters live in tables.go.
package harness

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sync"
	"time"

	"sdsm/internal/adapt"
	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/host"
	"sdsm/internal/interp"
	"sdsm/internal/model"
	"sdsm/internal/mp"
	"sdsm/internal/mpnet"
	"sdsm/internal/obs"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
	"sdsm/internal/vm"
)

// SystemKind selects one of the four systems the paper compares.
type SystemKind string

// The four systems of Figure 5 plus the explicit optimization levels of
// Figure 6.
const (
	Base SystemKind = "tmk"     // unmodified TreadMarks
	Opt  SystemKind = "opt-tmk" // compiler-optimized, per-app best config
	XHPF SystemKind = "xhpf"    // parallelizing-compiler stand-in
	PVMe SystemKind = "pvme"    // hand-coded message passing
)

// Backend selects the execution backend for DSM runs.
type Backend string

// The three host backends (see internal/host). The sim backend reproduces
// the paper's virtual-time numbers deterministically; the real backend
// runs the nodes as goroutines genuinely in parallel; the net backend
// additionally carries every protocol payload over loopback sockets in
// the wire format (and, for message-passing systems, runs one OS process
// per rank). Application results are identical on all three; virtual
// times are scheduling-dependent off the sim backend.
const (
	BackendSim  Backend = "sim"
	BackendReal Backend = "real"
	BackendNet  Backend = "net"
)

// DefaultBackend is the backend Run uses when Config.Backend is empty
// (cmd/sdsm-experiments sets it from its -backend flag; the table
// generators inherit it).
var DefaultBackend = BackendSim

// Config selects one run.
type Config struct {
	App    *apps.App
	Set    apps.DataSet
	System SystemKind
	Procs  int
	Verify bool
	// Backend picks the host backend; empty means DefaultBackend.
	// Message-passing systems run on the sim backend except under
	// BackendNet, which runs them as one OS process per rank via
	// internal/mpnet; every receive names its sender, so no match depends
	// on arrival order, but verification there stays approximate.
	Backend Backend
	// Level overrides the per-app best compiler options (for the Figure 6
	// sweep); nil means BestOptions for Opt.
	Level *compiler.Options
	// SyncFetch forces synchronous data fetching (Figure 7).
	SyncFetch bool
	// Adapt enables the run-time adaptive update protocol (internal/adapt):
	// the machine profiles fault/fetch traffic per barrier epoch and
	// switches stable producer→consumer pages from invalidate to update;
	// it also arms the lock-scope detectors that piggyback migratory
	// pages' diffs on lock grants.
	Adapt bool
	// Scale enables the large-machine protocol mode (tmk.EnableScale):
	// per-page serve delegation spreads diff serving across readers
	// instead of queueing on the last writer, and the
	// barrier fetch-list relay is priced span-compressed and
	// broadcast-once. Off by default — the paper's 8-node tables pin the
	// unscaled protocol bit for bit.
	Scale bool
	// Recover arms checkpoint/restore (DESIGN.md §10): every node writes
	// a recovery record at each barrier arrival, and — on the net backend
	// — peer death becomes a recoverable event instead of a run abort.
	// Off by default: the paper's tables run with no recovery machinery.
	Recover bool
	// CheckpointDir spills records to disk (tmk.FileSink) instead of each
	// rank's store. Meaningful with Recover.
	CheckpointDir string
	// Fault injects one failure; implies Recover for DSM runs. For DSM
	// systems, rank Rank dies at its Epoch-th barrier arrival and
	// restores from its records. For message-passing systems on the net
	// backend, rank Rank's process is killed after AfterFrames frames and
	// the coordinator respawns and replays it (internal/mpnet).
	Fault *FaultPlan
	// Trace arms the observability layer (internal/obs) for DSM runs:
	// every node records protocol events into a fixed ring, the unified
	// metrics registry collects counters and histograms, and the backend
	// hosts register their own counters. The machine is returned in
	// Result.Trace for export (obs.WriteTrace) and snapshotting. On the
	// sim backend the trace carries the virtual timeline and is
	// deterministic; on real/net it carries wall clocks. Off by default:
	// with Trace unset, no tracer exists and every emit site is a call
	// into tmk's trace.go that returns on its nil test (the golden tables,
	// the alloc gates and the benchmark's sim-base row pin that this is
	// free).
	Trace bool
	// TraceCap overrides the per-node event ring capacity (0 =
	// obs.DefaultRingCap). Older events beyond the capacity are dropped
	// oldest-first and counted.
	TraceCap int
}

// FaultPlan describes one injected failure (see Config.Fault).
type FaultPlan struct {
	Rank        int
	Epoch       int
	AfterFrames int
}

// Result is the outcome of one run.
type Result struct {
	Time     time.Duration
	Checksum float64
	Msgs     int64
	Bytes    int64
	Segv     int64
	Protocol tmk.ProtocolStats
	VM       vm.Counters
	// Recovery sums every node's checkpoint/restore counters; zero value
	// unless the run had Recover set.
	Recovery tmk.RecoveryStats
	// Trace is the observability machine of a Config.Trace run (nil
	// otherwise): per-node event rings plus the unified metrics registry.
	Trace *obs.Machine
	// ServeMax and ServeMean describe the per-node diff-serve balance
	// (tmk.System.ServeBalance): the busiest node's payload-serve count
	// and the machine mean. The scaling table reports their ratio.
	ServeMax  int64
	ServeMean float64
}

// Run executes one configuration.
func Run(cfg Config) (*Result, error) {
	if cfg.Backend == "" {
		cfg.Backend = DefaultBackend
	}
	switch cfg.Backend {
	case BackendSim, BackendReal, BackendNet:
	default:
		return nil, fmt.Errorf("harness: unknown backend %q", cfg.Backend)
	}
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("harness: Procs must be at least 1, got %d", cfg.Procs)
	}
	if f := cfg.Fault; f != nil {
		if f.Rank < 0 || f.Rank >= cfg.Procs {
			return nil, fmt.Errorf("harness: Fault.Rank %d is outside [0, %d): the fault could never fire", f.Rank, cfg.Procs)
		}
		// Message-passing fault plans place the kill by AfterFrames and
		// leave Epoch zero; only a DSM fault names a barrier epoch.
		if (cfg.System == Base || cfg.System == Opt) && f.Epoch < 1 {
			return nil, fmt.Errorf("harness: Fault.Epoch must be at least 1 (barrier arrivals are 1-based), got %d", f.Epoch)
		}
	}
	switch cfg.System {
	case Base, Opt:
		return runDSM(cfg, runnableFor(cfg))
	case PVMe:
		return runMP(cfg, 0)
	case XHPF:
		if !cfg.App.XHPF {
			return nil, fmt.Errorf("harness: %s cannot be parallelized by the XHPF stand-in: %s",
				cfg.App.Name, xhpfRejection(cfg.App.Name))
		}
		return runMP(cfg, cfg.App.XHPFOverhead)
	}
	return nil, fmt.Errorf("harness: unknown system %q", cfg.System)
}

// xhpfRejection explains why the XHPF stand-in refuses an application,
// mirroring the paper's discussion. A real data-parallel compiler
// generates owner-computes message passing; the stand-in reuses the
// hand-coded schedules with a per-phase distribution overhead
// (App.XHPFOverhead) and refuses the programs such a compiler cannot
// handle (App.XHPF false).
func xhpfRejection(app string) string {
	if app == "is" {
		return "indirect access to the main array in the computation"
	}
	return ""
}

// runDSM runs cfg's program, rp, on a machine of its own.
func runDSM(cfg Config, rp *runnable) (res *Result, err error) {
	layout := rp.layout
	var m *obs.Machine
	if cfg.Trace {
		// Virtual timeline on sim (deterministic, WT pinned to zero), wall
		// clocks on the concurrent backends.
		m = obs.NewMachine(cfg.Procs, cfg.TraceCap, cfg.Backend != BackendSim)
	}
	stores := borrowStores(cfg.Procs)
	defer returnStores(stores)
	var sys *tmk.System
	// Once the machine holds store loans every exit path must end them: a
	// run can fail, its stores cannot stay poisoned for the next tenant.
	// Registered before the host exists so that a net backend is closed
	// first — after a failed run its service loops may still be reading
	// node memory. Guard audit before release: release ends the loans the
	// audit inspects. A violation means this run overran its own address
	// space — with reused storage a cross-run hazard, so it fails the run
	// loudly.
	defer func() {
		if sys == nil {
			return
		}
		for i, st := range stores {
			if gerr := st.Arena().CheckGuards(); gerr != nil {
				res, err = nil, errors.Join(err, fmt.Errorf("harness: %s/%s rank %d: %w", cfg.App.Name, cfg.Set, i, gerr))
				break
			}
		}
		sys.ReleaseWarm()
	}()
	var h host.Host
	var nw host.Transport
	costs := model.SP2()
	switch cfg.Backend {
	case BackendReal:
		r := host.NewReal(cfg.Procs)
		if m != nil {
			r.EnableObs(m.Reg)
		}
		h = r
		nw = host.NewNetwork(h, costs)
	case BackendNet:
		lent := make([]host.RankStorage, len(stores))
		for i, st := range stores {
			lent[i] = st
		}
		n, err := host.NewNet(cfg.Procs, costs, lent...)
		if err != nil {
			return nil, fmt.Errorf("harness: net backend: %w", err)
		}
		defer n.Close()
		if m != nil {
			n.EnableObs(m.Reg)
		}
		h, nw = n, n
	default:
		e := sim.NewEngine(cfg.Procs)
		if m != nil {
			e.EnableObs(m.Reg)
		}
		h = e
		nw = host.NewNetwork(h, costs)
	}
	sys = tmk.NewWarm(h, nw, layout, stores)
	if cfg.Adapt {
		sys.EnableAdapt(adapt.Config{})
	}
	if cfg.Scale {
		sys.EnableScale()
	}
	if cfg.Recover || cfg.Fault != nil {
		var rc tmk.RecoveryConfig
		if cfg.CheckpointDir != "" {
			rc.Sink = &tmk.FileSink{Dir: cfg.CheckpointDir}
		}
		if f := cfg.Fault; f != nil {
			rc.Fault = &tmk.Fault{Rank: f.Rank, Epoch: f.Epoch}
		}
		sys.EnableRecovery(rc)
		if n, ok := nw.(*host.Net); ok {
			n.EnableRecovery()
		}
	}
	if m != nil {
		sys.EnableTrace(m)
	}

	var checksum float64
	var epilogue []func(nd *tmk.Node)
	if cfg.Verify {
		arr := layout.Array(cfg.App.CheckArray)
		epilogue = append(epilogue, func(nd *tmk.Node) {
			// A program whose last synchronization was replaced by a Push
			// guarantees consistency only for the pushed sections; restore
			// global consistency with a barrier before reading everything,
			// as the paper's run-time contract requires.
			nd.Barrier(1 << 20)
			if nd.ID != 0 {
				return
			}
			nd.Validate(tmk.AccRead, []shm.Region{arr.Whole()}, false)
			nd.Mem.EnsureRead(nd.Proc(), arr.Whole())
			checksum = apps.Checksum(layout, nd.Mem.Data(), cfg.App.CheckArray)
		})
	}
	if err := rp.lowered.Run(sys, epilogue...); err != nil {
		return nil, fmt.Errorf("harness: %s/%s/%s: %w", cfg.App.Name, cfg.Set, cfg.System, err)
	}

	st := nw.Stats()
	vmc, ps := sys.Stats()
	smax, smean := sys.ServeBalance()
	var rs tmk.RecoveryStats
	for _, nd := range sys.Nodes {
		obs.AddFields(&rs, &nd.RecStats)
	}
	return &Result{
		Time:      sys.MaxTime(),
		Checksum:  checksum,
		Msgs:      st.Msgs,
		Bytes:     st.Bytes,
		Segv:      vmc.ReadFaults + vmc.WriteFaults,
		Protocol:  ps,
		VM:        vmc,
		Recovery:  rs,
		Trace:     m,
		ServeMax:  smax,
		ServeMean: smean,
	}, nil
}

// shape is what the program of a DSM run depends on: the application,
// its data set, the rank count, the system and, for Opt, the compiler's
// switches as Level and SyncFetch leave them.
type shape struct {
	app    string
	set    apps.DataSet
	procs  int
	system SystemKind

	// The compiler's switches (Opt only).
	aggregate, consElim, syncMerge, push, async bool
}

// runnable is one shape's program as a run executes it: built for the rank
// count, prepared for the data set, for Opt compiled, and lowered over its
// layout. sets is the data set's parameters it was made from.
type runnable struct {
	shape   shape
	sets    rsd.Env
	layout  *shm.Layout
	lowered *interp.Lowered
}

// programs is the process-wide memo of runnables, at most 32, oldest
// first: one-shot runs, parallelDo's concurrent ones and svc pool jobs of
// one shape share one entry. An entry is never written once made but for
// its lowered program's idle executor sets: a program keeps no per-run
// state (its kernels' is the executor's, ir.Program.Local), it is lowered
// once, each machine runs it on executors of its own, and a layout is only
// read. Only a registry application's programs are kept, since only
// its name says what its Build makes; a data set is matched by its
// parameters, which a caller may rebind under the same name.
var programs struct {
	sync.Mutex
	entries []*runnable
}

// registry maps each registry application's name to its Build function's
// code address.
var registry = sync.OnceValue(func() map[string]uintptr {
	out := map[string]uintptr{}
	for _, a := range apps.All() {
		out[a.Name] = reflect.ValueOf(a.Build).Pointer()
	}
	return out
})

// runnableFor returns cfg's runnable, from the memo when a run of the same
// shape made it. A first run of a shape builds it under the memo's lock.
func runnableFor(cfg Config) *runnable {
	if registry()[cfg.App.Name] != reflect.ValueOf(cfg.App.Build).Pointer() {
		return build(cfg)
	}
	k := shapeOf(cfg)
	programs.Lock()
	defer programs.Unlock()
	for _, r := range programs.entries {
		if r.shape == k && maps.Equal(r.sets, cfg.App.Sets[cfg.Set]) {
			return r
		}
	}
	r := build(cfg)
	if len(programs.entries) == 32 {
		programs.entries = append(programs.entries[:0], programs.entries[1:]...)
	}
	programs.entries = append(programs.entries, r)
	return r
}

// shapeOf returns cfg's shape.
func shapeOf(cfg Config) shape {
	k := shape{app: cfg.App.Name, set: cfg.Set, procs: cfg.Procs, system: cfg.System}
	if cfg.System == Opt {
		o := compilerOptions(cfg, nil)
		k.aggregate, k.consElim, k.syncMerge, k.push, k.async = o.Aggregate, o.ConsElim, o.SyncMerge, o.Push, o.Async
	}
	return k
}

// compilerOptions returns the options an Opt run compiles with: the
// application's best, or Level, with SyncFetch's fetch mode.
func compilerOptions(cfg Config, params rsd.Env) compiler.Options {
	opts := cfg.App.BestOptions(cfg.Procs, params)
	if cfg.Level != nil {
		opts = *cfg.Level
		opts.NProcs, opts.Params = cfg.Procs, params
	}
	opts.Async = opts.Async && !cfg.SyncFetch
	return opts
}

// build makes cfg's runnable: builds, prepares and, for Opt, compiles its
// program, lays out its arrays and lowers it.
func build(cfg Config) *runnable {
	sets := cfg.App.Sets[cfg.Set]
	prog := cfg.App.Build(cfg.Procs)
	params := prog.Prepare(sets, cfg.Procs)
	if cfg.System == Opt {
		prog, _ = compiler.Compile(prog, compilerOptions(cfg, params))
	}
	layout := compiler.BuildLayout(prog, params)
	return &runnable{shape: shapeOf(cfg), sets: maps.Clone(sets), layout: layout, lowered: interp.Lower(prog, layout, params, cfg.Procs)}
}

// idle is the one owner of warm storage in the process: a stack of the
// tmk.Stores finished DSM runs gave back — each a rank's arena and
// protocol log — which every DSM run borrows from: one-shot runs,
// parallelDo's concurrent ones and svc pool jobs alike. A run takes rank
// 0's store from the top and gives its stores back so that rank 0's is on
// top again, so each rank reuses the store the last run of its size grew
// for it, and the list retains about the largest machine's images and
// logs instead of the sum of every machine's. Each store is lent to one
// run at a time, so concurrent runs never share storage. runs numbers the
// loans, for the guard canaries.
var idle struct {
	sync.Mutex
	stores []*tmk.Store
	runs   uint64
}

// borrowStores takes n stores off the idle list — new ones when it runs
// short — and stamps their arenas with a canary of this run's own,
// non-zero and never NaN (a NaN canary would fail every audit), so a
// guard report names the run.
func borrowStores(n int) []*tmk.Store {
	idle.Lock()
	defer idle.Unlock()
	idle.runs++
	canary := math.Float64frombits(0x40FE5E0000000000 | idle.runs&0xFFFFFFFF)
	out := make([]*tmk.Store, n)
	for i := range out {
		if k := len(idle.stores) - 1; k >= 0 {
			out[i], idle.stores = idle.stores[k], idle.stores[:k]
		} else {
			out[i] = tmk.NewStore()
		}
		out[i].Arena().SetCanary(canary)
	}
	return out
}

// returnStores gives a run's stores back to the idle list, last rank
// first. The run must have released its loans (tmk.System.ReleaseWarm).
func returnStores(sts []*tmk.Store) {
	idle.Lock()
	defer idle.Unlock()
	for i := len(sts) - 1; i >= 0; i-- {
		idle.stores = append(idle.stores, sts[i])
	}
}

// NodeBin names the worker binary used for the process-per-rank
// message-passing deployment (Backend net on PVMe/XHPF systems); empty
// re-executes the current binary, which must call mpnet.MaybeWorker first
// thing in main (the sdsm commands do).
var NodeBin = ""

func runMP(cfg Config, overhead time.Duration) (*Result, error) {
	if cfg.App.MP == nil {
		return nil, fmt.Errorf("harness: %s has no message-passing implementation", cfg.App.Name)
	}
	// A DSM-only option on a message-passing system would be silently
	// ignored and the run would still verify: reject it, naming the field.
	switch {
	case cfg.Trace:
		return nil, fmt.Errorf("harness: tracing instruments the DSM protocol; %s has no event trace", cfg.System)
	case cfg.Adapt:
		return nil, fmt.Errorf("harness: Adapt is a DSM protocol mode; %s moves no pages to adapt", cfg.System)
	case cfg.Scale:
		return nil, fmt.Errorf("harness: Scale is a DSM protocol mode; %s serves no diffs to delegate", cfg.System)
	case cfg.Fault != nil && cfg.Backend != BackendNet:
		return nil, fmt.Errorf("harness: Fault on %s kills a rank's process, which only Backend %q has (got %q): the fault could never fire",
			cfg.System, BackendNet, cfg.Backend)
	}
	if cfg.Backend == BackendNet {
		opts := mpnet.Options{
			Overhead: overhead, Verify: cfg.Verify,
			NodeBin: NodeBin,
			Recover: cfg.Recover || cfg.Fault != nil,
		}
		if f := cfg.Fault; f != nil {
			// The DSM fault plan names a barrier epoch; a process-per-rank
			// kill is placed by routed-frame count instead.
			opts.Fault = &mpnet.FaultSpec{Rank: f.Rank, AfterFrames: f.AfterFrames}
		}
		res, err := mpnet.RunOpts(cfg.App, cfg.Set, cfg.Procs, opts)
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s/%s: %w", cfg.App.Name, cfg.Set, cfg.System, err)
		}
		out := &Result{
			Time:     res.Time,
			Checksum: res.Checksum,
			Msgs:     res.Stats.Msgs,
			Bytes:    res.Stats.Bytes,
		}
		// Map process respawns onto the recovery counters so callers see
		// one shape for both fault models (DESIGN.md §10).
		out.Recovery.Failures = int64(res.Restarts)
		out.Recovery.Restores = int64(res.Restarts)
		return out, nil
	}
	w := mp.NewWorld(cfg.Procs, model.SP2())
	var checksum float64
	err := w.Run(func(r *mp.Rank) {
		if sum := cfg.App.RunMP(r, cfg.Set, overhead, cfg.Verify); r.ID == 0 && cfg.Verify {
			checksum = sum
		}
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s/%s: %w", cfg.App.Name, cfg.Set, cfg.System, err)
	}
	st := w.NW.Stats()
	return &Result{
		Time:     w.MaxTime(),
		Checksum: checksum,
		Msgs:     st.Msgs,
		Bytes:    st.Bytes,
	}, nil
}

// SeqChecksum computes the sequential reference checksum for a
// configuration's application and data set.
func SeqChecksum(app *apps.App, set apps.DataSet) float64 {
	prog := app.Build(1)
	params := prog.Prepare(app.Sets[set], 1)
	layout, mem := interp.RunSeq(prog, params)
	return apps.Checksum(layout, mem, app.CheckArray)
}

// UniTime measures the uniprocessor execution time, the basis for
// speedups. As in the paper, it is the program with all synchronization
// (and DSM machinery) removed: pure compute.
func UniTime(app *apps.App, set apps.DataSet) time.Duration {
	prog := app.Build(1)
	params := prog.Prepare(app.Sets[set], 1)
	return interp.SeqTime(prog, params)
}

// Speedup is uniprocessor time over parallel time.
func Speedup(uni, par time.Duration) float64 {
	if par == 0 {
		return 0
	}
	return float64(uni) / float64(par)
}

// LevelName names the Figure 6 optimization levels.
var LevelNames = []string{"Base", "Comm.Aggr", "+Cons.Elim", "+Sync+Data", "+Push"}
