package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
)

// DefaultProcs is the paper's processor count.
const DefaultProcs = 8

// Table1Row is one application/data-set uniprocessor time.
type Table1Row struct {
	App      string
	Set      apps.DataSet
	Params   string
	Measured time.Duration
	Paper    time.Duration
}

// Table1Paper holds the paper's uniprocessor times (Table 1), in seconds.
var Table1Paper = map[string]float64{
	"jacobi/large": 288.3, "jacobi/small": 17.7,
	"fft/large": 9.5, "fft/small": 2.3,
	"shallow/large": 74.8, "shallow/small": 36.9,
	"is/large": 91.2, "is/small": 3.9,
	"gauss/large": 3344.8, "gauss/small": 271.5,
	"mgs/large": 449.3, "mgs/small": 56.4,
}

// appSet is one cell of the (application, data set) grid, the unit of
// work the experiment scheduler fans out.
type appSet struct {
	app *apps.App
	set apps.DataSet
}

// appSets enumerates the grid in the paper's order.
func appSets() []appSet {
	var out []appSet
	for _, a := range apps.Registry() {
		for _, set := range []apps.DataSet{Large, Small} {
			out = append(out, appSet{a, set})
		}
	}
	return out
}

// Table1 measures uniprocessor virtual times for every application and
// data set, fanning the measurements across workers. Note the measured
// values use the scaled default sizes; the paper column is at the
// original sizes (see EXPERIMENTS.md).
func Table1(workers int) ([]Table1Row, error) {
	cases := appSets()
	rows := make([]Table1Row, len(cases))
	for i, t := range uniTimes(cases, workers) {
		a, set := cases[i].app, cases[i].set
		rows[i] = Table1Row{
			App: a.Name, Set: set,
			Params:   paramString(a, set),
			Measured: t,
			Paper:    time.Duration(Table1Paper[a.Name+"/"+string(set)] * float64(time.Second)),
		}
	}
	return rows, nil
}

// uniTimes measures every case's uniprocessor time (the speedup basis of
// Figures 5 to 7), one sequential run per worker job.
func uniTimes(cases []appSet, workers int) []time.Duration {
	out := make([]time.Duration, len(cases))
	_ = parallelDo(len(cases), workers, func(i int) error { // the job cannot fail
		out[i] = UniTime(cases[i].app, cases[i].set)
		return nil
	})
	return out
}

// Large/Small/Bound aliases re-exported for callers of the harness.
const (
	Large = apps.Large
	Small = apps.Small
	Bound = apps.Bound
)

func paramString(a *apps.App, set apps.DataSet) string {
	env := a.Sets[set]
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, env[rsd.Sym(k)]))
	}
	return strings.Join(parts, " ")
}

// Table2Row reports the percentage reduction of the optimized system over
// base TreadMarks, as in the paper's Table 2 ("segv", "msg", "data").
type Table2Row struct {
	App                 string
	Set                 apps.DataSet
	SegvPct, MsgPct     float64
	DataPct             float64
	PaperSegv, PaperMsg float64
	PaperData           float64
}

// Table2Paper holds the paper's Table 2 percentages.
var Table2Paper = map[string][3]float64{
	"jacobi/large": {100.0, 79.9, -2312}, "jacobi/small": {100.0, 49.7, -614},
	"fft/large": {100.0, 70.6, 0.8}, "fft/small": {99.2, 44.0, 46.3},
	"shallow/large": {86.9, 56.4, 3.5}, "shallow/small": {85.0, 47.6, 3.2},
	"is/large": {99.5, 96.5, 58.9}, "is/small": {90.1, 60.7, 66.3},
	"gauss/large": {100.0, 40.0, 0.1}, "gauss/small": {100.0, 25.0, 0.4},
	"mgs/large": {100.0, 53.5, 0.2}, "mgs/small": {100.0, 29.0, 40.5},
}

func pctReduction(base, opt int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-opt) / float64(base)
}

// Table2 runs base and optimized TreadMarks and reports the reductions in
// page faults, messages, and data, one run per worker job.
func Table2(procs, workers int) ([]Table2Row, error) {
	cases := appSets()
	var cells []gridCell
	for _, c := range cases {
		base := Config{App: c.app, Set: c.set, System: Base, Procs: procs}
		opt := base
		opt.System = Opt
		cells = append(cells, gridCell{cfg: base}, gridCell{cfg: opt})
	}
	runs, err := runGrid(cells, workers)
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(cases))
	for i, c := range cases {
		base, opt := runs[2*i], runs[2*i+1]
		paper := Table2Paper[c.app.Name+"/"+string(c.set)]
		rows[i] = Table2Row{
			App: c.app.Name, Set: c.set,
			SegvPct:   pctReduction(base.Segv, opt.Segv),
			MsgPct:    pctReduction(base.Msgs, opt.Msgs),
			DataPct:   pctReduction(base.Bytes, opt.Bytes),
			PaperSegv: paper[0], PaperMsg: paper[1], PaperData: paper[2],
		}
	}
	return rows, nil
}

// Fig5Row is one application/data-set speedup comparison across the four
// systems (XHPF absent for IS).
type Fig5Row struct {
	App                   string
	Set                   apps.DataSet
	Base, Opt, XHPF, PVMe float64 // speedups; XHPF = 0 when inapplicable
}

// Fig5 computes the Figure 5 speedups at the given processor count, one
// run per worker job.
func Fig5(procs, workers int) ([]Fig5Row, error) {
	cases := appSets()
	var cells []gridCell
	for _, c := range cases {
		for _, sys := range []SystemKind{Base, Opt, XHPF, PVMe} {
			cells = append(cells, gridCell{
				cfg: Config{App: c.app, Set: c.set, System: sys, Procs: procs},
				na:  sys == XHPF && !c.app.XHPF,
			})
		}
	}
	runs, err := runGrid(cells, workers)
	if err != nil {
		return nil, err
	}
	unis := uniTimes(cases, workers)
	rows := make([]Fig5Row, len(cases))
	for i, c := range cases {
		sp := speedups(unis[i], runs[4*i:4*i+4])
		rows[i] = Fig5Row{App: c.app.Name, Set: c.set, Base: sp[0], Opt: sp[1], XHPF: sp[2], PVMe: sp[3]}
	}
	return rows, nil
}

// speedups converts a case's runs to speedups over its uniprocessor time;
// a cell that was not run (nil Result) yields 0.
func speedups(uni time.Duration, runs []RunRow) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		if r.Result != nil {
			out[i] = Speedup(uni, r.Time)
		}
	}
	return out
}

// Fig6Row is one application/data-set speedup sweep over the optimization
// levels (0 is base; inapplicable levels repeat the applicable maximum, as
// the paper's bars omit them).
type Fig6Row struct {
	App     string
	Set     apps.DataSet
	Levels  [5]float64
	Applies [5]bool
}

// Fig6 sweeps the cumulative optimization levels of Figure 6, one run per
// worker job; an inapplicable level is not run and repeats the previous
// level's speedup.
func Fig6(procs, workers int) ([]Fig6Row, error) {
	cases := appSets()
	rows := make([]Fig6Row, len(cases))
	var cells []gridCell
	for i, c := range cases {
		a := c.app
		rows[i] = Fig6Row{App: a.Name, Set: c.set, Applies: [5]bool{true, true, true, a.WSyncApplicable, a.PushApplicable}}
		prog := a.Build(procs)
		for li, lvl := range compiler.Levels(procs, prog.Prepare(a.Sets[c.set], procs)) {
			cfg := Config{App: a, Set: c.set, System: Base, Procs: procs}
			if li > 0 { // level 0 is base: no compilation
				cfg.System, cfg.Level = Opt, &lvl
			}
			cells = append(cells, gridCell{cfg: cfg, na: !rows[i].Applies[li]})
		}
	}
	runs, err := runGrid(cells, workers)
	if err != nil {
		return nil, err
	}
	for i, uni := range uniTimes(cases, workers) {
		copy(rows[i].Levels[:], speedups(uni, runs[5*i:5*i+5]))
		for li, applies := range rows[i].Applies {
			if !applies {
				rows[i].Levels[li] = rows[i].Levels[li-1]
			}
		}
	}
	return rows, nil
}

// Fig7Row compares synchronous and asynchronous data fetching (large data
// sets, as in the paper).
type Fig7Row struct {
	App               string
	Base, Sync, Async float64
}

// Fig7 computes the Figure 7 comparison, one run per worker job.
func Fig7(procs, workers int) ([]Fig7Row, error) {
	var cases []appSet
	var cells []gridCell
	for _, a := range apps.Registry() {
		cases = append(cases, appSet{a, Large})
		base := Config{App: a, Set: Large, System: Base, Procs: procs}
		async := base
		async.System = Opt
		syncFetch := async
		syncFetch.SyncFetch = true
		cells = append(cells, gridCell{cfg: base}, gridCell{cfg: syncFetch}, gridCell{cfg: async})
	}
	runs, err := runGrid(cells, workers)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig7Row, len(cases))
	for i, uni := range uniTimes(cases, workers) {
		sp := speedups(uni, runs[3*i:3*i+3])
		rows[i] = Fig7Row{App: cases[i].app.Name, Base: sp[0], Sync: sp[1], Async: sp[2]}
	}
	return rows, nil
}

// RunRow is one run of a grid (the paper's tables and figures, Tables A, B
// and C): which cell it is, plus the run's Result, whose counters the
// formatters read directly. System is the configured system — "tmk" (the
// invalidate baseline), "opt-tmk" (the per-app best compiler configuration
// unless the cell sets a level), "xhpf", "pvme" — prefixed "adapt-" under
// the run-time adaptive protocol; a nil Result is a cell that was not run
// because the system cannot take the application (it prints as n/a).
type RunRow struct {
	App    string
	Set    apps.DataSet
	System string
	Procs  int
	*Result
}

// gridCell is one configured run of a comparison grid; na cells are not
// run and yield a row with a nil Result.
type gridCell struct {
	cfg Config
	na  bool
}

// runGrid executes the cells across workers, one self-contained run per
// job, and returns one row per cell in cell order.
func runGrid(cells []gridCell, workers int) ([]RunRow, error) {
	rows := make([]RunRow, len(cells))
	err := parallelDo(len(cells), workers, func(i int) error {
		cfg := cells[i].cfg
		rows[i] = RunRow{App: cfg.App.Name, Set: cfg.Set, System: string(cfg.System), Procs: cfg.Procs}
		if cfg.Adapt {
			rows[i].System = "adapt-" + rows[i].System
		}
		if cells[i].na {
			return nil
		}
		res, err := Run(cfg)
		rows[i].Result = res
		return err
	})
	return rows, err
}

// adaptGrid is the application/data-set grid of the adaptive comparison:
// the irregular workloads the compiler cannot serve, next to Jacobi — the
// paper's canonical producer→consumer app — where the run-time detector
// competes directly with the compiler's static Push. Jacobi's bound set
// (a block partition landing mid-page) adds the false-sharing case: the
// paper sets are page-aligned, so only the bound rows exercise the
// sub-page split bindings.
func adaptGrid() []appSet {
	var out []appSet
	for _, a := range apps.Irregular() {
		if a.Name == "tsps" {
			// tsps is tsp restructured for the scaling experiments — its
			// rows belong to Table C (scaleGrid); Table A stays pinned to
			// the app set the adapt golden has carried since PR 4.
			continue
		}
		out = append(out, appSet{a, Small}, appSet{a, Large})
	}
	j, _ := apps.ByName("jacobi")
	out = append(out, appSet{j, Small}, appSet{j, Large}, appSet{j, Bound})
	return out
}

// AdaptTable runs the adaptive-protocol comparison (Table A) at the given
// processor count: for each (app, set), baseline invalidate TreadMarks,
// the same system with the run-time adaptive update protocol, and the
// per-app best compiler configuration where the compiler's
// regular-section analysis applies.
func AdaptTable(procs, workers int) ([]RunRow, error) {
	var cells []gridCell
	for _, c := range adaptGrid() {
		a := c.app
		base := Config{App: a, Set: c.set, System: Base, Procs: procs}
		ad, opt := base, base
		ad.Adapt = true
		opt.System = Opt
		cells = append(cells, gridCell{cfg: base}, gridCell{cfg: ad},
			gridCell{cfg: opt, na: !(a.XHPF || a.WSyncApplicable || a.PushApplicable)})
	}
	return runGrid(cells, workers)
}

// lockGrid is the application/data-set grid of Table B: the two
// lock-dominated workloads — tsp, whose sharing is entirely dynamic, and
// IS, the paper's migratory-data example, where the run-time lock
// detector works on the phases the compiler's static analysis handles
// only under Opt.
func lockGrid() []appSet {
	var out []appSet
	for _, name := range []string{"tsp", "is"} {
		a, _ := apps.ByName(name)
		out = append(out, appSet{a, Small}, appSet{a, Large})
	}
	return out
}

// AdaptLockTable runs the lock-scope adaptive comparison (Table B) at the
// given processor count: baseline invalidate TreadMarks against the same
// system with the adaptive protocol. The formatter reports lock faults
// (Protocol.LockFetches: pages demand-fetched while holding a lock — the
// traffic the grant piggyback exists to remove), messages, and the lock
// detector's transitions.
func AdaptLockTable(procs, workers int) ([]RunRow, error) {
	var cells []gridCell
	for _, c := range lockGrid() {
		base := Config{App: c.app, Set: c.set, System: Base, Procs: procs}
		ad := base
		ad.Adapt = true
		cells = append(cells, gridCell{cfg: base}, gridCell{cfg: ad})
	}
	return runGrid(cells, workers)
}

// ScaleProcs is the node-count axis of the scaling matrix. The paper's
// machine stops at 8; the scaling experiments ask what the protocol does
// at cluster sizes where a static per-page manager and a re-carried
// barrier relay stop being harmless.
var ScaleProcs = []int{8, 16, 32, 64, 128}

// scaleGrid is the workload pair of the scaling matrix: tsps, the
// sharded-queue lock workload built for large machines (hot incumbent
// page, migrating deque pages), and jacobi, the canonical
// producer→consumer barrier workload, whose small set partitions to
// exactly one page per node at 128 processors.
func scaleGrid() []appSet {
	ts, _ := apps.ByName("tsps")
	j, _ := apps.ByName("jacobi")
	return []appSet{{ts, Small}, {j, Small}}
}

// ScaleTable runs the scaling matrix (Table C) on the deterministic sim
// backend, one (application, node count) cell per row, in scale mode
// (serve delegation + span-compressed, broadcast-once barrier relay) with
// the adaptive protocol armed so the fetch-list relay traffic it
// compresses actually flows. Every run verifies its checksum against the
// sequential reference, so the table doubles as a correctness matrix for
// delegation at sizes the equivalence tests' concurrent
// backends cannot reach.
func ScaleTable(workers int) ([]RunRow, error) {
	var cells []gridCell
	want := map[string]float64{}
	for _, c := range scaleGrid() {
		want[c.app.Name] = SeqChecksum(c.app, c.set)
		for _, n := range ScaleProcs {
			cells = append(cells, gridCell{cfg: Config{
				App: c.app, Set: c.set, System: Base, Procs: n,
				Adapt: true, Scale: true, Verify: true,
			}})
		}
	}
	rows, err := runGrid(cells, workers)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if !apps.Close(r.Checksum, want[r.App]) {
			return nil, fmt.Errorf("scale %s/%s at %d nodes: checksum %v differs from sequential %v",
				r.App, r.Set, r.Procs, r.Checksum, want[r.App])
		}
	}
	return rows, nil
}

// Micro reports the Section 5 primitive costs measured on the simulated
// platform next to the paper's numbers.
type MicroResult struct {
	RoundTrip   time.Duration // paper: 365 µs
	LockAcquire time.Duration // paper: 427 µs
	Barrier8    time.Duration // paper: 893 µs
	ProtMin     time.Duration // paper: 18 µs
	ProtMax     time.Duration // paper: ~800 µs at 2000 pages
}

// Micro measures the primitives.
func Micro() (*MicroResult, error) {
	costs := model.SP2()
	out := &MicroResult{
		ProtMin: costs.ProtOp(0),
		ProtMax: costs.ProtOp(costs.ProtCap),
	}

	// Roundtrip.
	{
		e := sim.NewEngine(2)
		nw := host.NewNetwork(e, costs)
		err := e.Run(func(p host.Proc) {
			const tag = 1
			if p.ID() == 0 {
				start := p.Now()
				nw.Send(p, 1, tag, nil, 0)
				nw.Recv(p, 1, tag)
				out.RoundTrip = p.Now() - start
			} else {
				nw.Recv(p, 0, tag)
				nw.Send(p, 0, tag, nil, 0)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	// Free lock acquire.
	{
		e := sim.NewEngine(2)
		nw := host.NewNetwork(e, costs)
		layout := shm.NewLayout()
		layout.Alloc("x", shm.PageWords)
		sys := tmk.New(e, nw, layout)
		err := sys.Run(func(nd *tmk.Node) {
			if nd.ID == 0 {
				start := nd.Proc().Now()
				nd.Acquire(1)
				out.LockAcquire = nd.Proc().Now() - start
				nd.Release(1)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	// 8-processor barrier.
	{
		e := sim.NewEngine(8)
		nw := host.NewNetwork(e, costs)
		layout := shm.NewLayout()
		layout.Alloc("x", shm.PageWords)
		sys := tmk.New(e, nw, layout)
		err := sys.Run(func(nd *tmk.Node) {
			start := nd.Proc().Now()
			nd.Barrier(1)
			if d := nd.Proc().Now() - start; d > out.Barrier8 {
				out.Barrier8 = d
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- formatting ----

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: applications, data set sizes, and uniprocessor execution times\n")
	fmt.Fprintf(&b, "%-10s %-6s %-40s %12s %12s\n", "app", "set", "parameters (scaled)", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %-40s %12s %12s\n",
			r.App, r.Set, r.Params, fmtDur(r.Measured), fmtDur(r.Paper))
	}
	return b.String()
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: %% reduction in page faults (segv), messages (msg), and data, Opt vs Base\n")
	fmt.Fprintf(&b, "%-10s %-6s | %8s %8s %8s | %8s %8s %8s\n",
		"app", "set", "segv", "msg", "data", "p.segv", "p.msg", "p.data")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f\n",
			r.App, r.Set, r.SegvPct, r.MsgPct, r.DataPct, r.PaperSegv, r.PaperMsg, r.PaperData)
	}
	return b.String()
}

// FormatFig5 renders Figure 5.
func FormatFig5(rows []Fig5Row, procs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: speedups at %d processors (XHPF blank for IS)\n", procs)
	fmt.Fprintf(&b, "%-10s %-6s %8s %8s %8s %8s\n", "app", "set", "Tmk", "Opt-Tmk", "XHPF", "PVMe")
	for _, r := range rows {
		x := "-"
		if r.XHPF > 0 {
			x = fmt.Sprintf("%.2f", r.XHPF)
		}
		fmt.Fprintf(&b, "%-10s %-6s %8.2f %8.2f %8s %8.2f\n", r.App, r.Set, r.Base, r.Opt, x, r.PVMe)
	}
	return b.String()
}

// FormatFig6 renders Figure 6.
func FormatFig6(rows []Fig6Row, procs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: speedups at %d processors under cumulative optimization levels\n", procs)
	fmt.Fprintf(&b, "%-10s %-6s", "app", "set")
	for _, n := range LevelNames {
		fmt.Fprintf(&b, " %11s", n)
	}
	fmt.Fprintln(&b)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s", r.App, r.Set)
		for i, v := range r.Levels {
			if !r.Applies[i] {
				fmt.Fprintf(&b, " %11s", "n/a")
			} else {
				fmt.Fprintf(&b, " %11.2f", v)
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFig7 renders Figure 7.
func FormatFig7(rows []Fig7Row, procs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: synchronous vs asynchronous data fetching, large data sets, %d processors\n", procs)
	fmt.Fprintf(&b, "%-10s %8s %8s %8s\n", "app", "Tmk", "Sync", "Async")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %8.2f\n", r.App, r.Base, r.Sync, r.Async)
	}
	return b.String()
}

// adaptCell renders one adaptive-protocol counter of a comparison row:
// "-" on every row but the adaptive run's.
func adaptCell(r RunRow, v int64) string {
	if r.System != "adapt-tmk" {
		return "-"
	}
	return strconv.FormatInt(v, 10)
}

// FormatAdaptTable renders the adaptive-protocol comparison.
func FormatAdaptTable(rows []RunRow, procs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table A: run-time adaptive update protocol at %d processors\n", procs)
	fmt.Fprintf(&b, "(tmk = invalidate baseline, adapt-tmk = run-time detection + update push,\n")
	fmt.Fprintf(&b, " opt-tmk = compiler-optimized; n/a where no regular sections exist;\n")
	fmt.Fprintf(&b, " split = pages bound sub-page, spans = section spans shipped)\n")
	fmt.Fprintf(&b, "%-8s %-6s %-10s %10s %8s %8s %8s %6s %6s %6s %8s %6s\n",
		"app", "set", "system", "time", "segv", "msg", "MB", "promo", "split", "decay", "updates", "spans")
	for _, r := range rows {
		if r.Result == nil {
			fmt.Fprintf(&b, "%-8s %-6s %-10s %10s\n", r.App, r.Set, r.System, "n/a")
			continue
		}
		p := r.Protocol
		fmt.Fprintf(&b, "%-8s %-6s %-10s %10s %8d %8d %8.2f %6s %6s %6s %8s %6s\n",
			r.App, r.Set, r.System, fmtDur(r.Time), r.Segv, r.Msgs, float64(r.Bytes)/1e6,
			adaptCell(r, p.AdaptPromotions), adaptCell(r, p.AdaptSplits), adaptCell(r, p.AdaptDecays),
			adaptCell(r, p.AdaptUpdates), adaptCell(r, p.AdaptSpans))
	}
	return b.String()
}

// FormatAdaptLockTable renders the lock-scope adaptive comparison.
func FormatAdaptLockTable(rows []RunRow, procs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table B: lock-scope adaptive updates at %d processors\n", procs)
	fmt.Fprintf(&b, "(tmk = invalidate baseline, adapt-tmk = per-lock migratory detection with\n")
	fmt.Fprintf(&b, " grant-piggybacked diffs; lockf = pages demand-fetched inside critical sections)\n")
	fmt.Fprintf(&b, "%-8s %-6s %-10s %10s %8s %8s %8s %8s %6s %6s %7s %6s\n",
		"app", "set", "system", "time", "lockf", "segv", "msg", "MB", "promo", "decay", "grants", "probe")
	for _, r := range rows {
		p := r.Protocol
		fmt.Fprintf(&b, "%-8s %-6s %-10s %10s %8d %8d %8d %8.2f %6s %6s %7s %6s\n",
			r.App, r.Set, r.System, fmtDur(r.Time), p.LockFetches, r.Segv, r.Msgs, float64(r.Bytes)/1e6,
			adaptCell(r, p.AdaptLockPromotions), adaptCell(r, p.AdaptLockDecays),
			adaptCell(r, p.AdaptLockGrants), adaptCell(r, p.AdaptLockProbes))
	}
	return b.String()
}

// FormatScaleTable renders the scaling matrix.
func FormatScaleTable(rows []RunRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table C: large-machine scaling, sim backend, adapt + scale mode\n")
	fmt.Fprintf(&b, "(relay = barrier fetch-list relay bytes, span-compressed and broadcast-once;\n")
	fmt.Fprintf(&b, " redir/hops/fallbk = ownership-directory traffic; srv = per-node diff serves,\n")
	fmt.Fprintf(&b, " bal = busiest node over machine mean)\n")
	fmt.Fprintf(&b, "%-8s %-6s %4s %10s %8s %8s %8s %9s %7s %7s %7s %7s %8s %6s\n",
		"app", "set", "n", "time", "segv", "msg", "MB", "relayKB", "redir", "hops", "fallbk", "srvmax", "srvmean", "bal")
	for _, r := range rows {
		bal := 0.0
		if r.ServeMean > 0 {
			bal = float64(r.ServeMax) / r.ServeMean
		}
		p := r.Protocol
		fmt.Fprintf(&b, "%-8s %-6s %4d %10s %8d %8d %8.2f %9.1f %7d %7d %7d %7d %8.1f %6.2f\n",
			r.App, r.Set, r.Procs, fmtDur(r.Time), r.Segv, r.Msgs,
			float64(r.Bytes)/1e6, float64(p.AdaptRelayBytes)/1e3,
			p.DirRedirects, p.DirHops, p.DirFallbacks, r.ServeMax, r.ServeMean, bal)
	}
	return b.String()
}

// FormatMicro renders the Section 5 microbenchmarks.
func FormatMicro(m *MicroResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5 primitives: measured vs paper\n")
	fmt.Fprintf(&b, "%-30s %12s %12s\n", "primitive", "measured", "paper")
	fmt.Fprintf(&b, "%-30s %12s %12s\n", "min roundtrip", fmtDur(m.RoundTrip), "365µs")
	fmt.Fprintf(&b, "%-30s %12s %12s\n", "free lock acquire", fmtDur(m.LockAcquire), "427µs")
	fmt.Fprintf(&b, "%-30s %12s %12s\n", "8-processor barrier", fmtDur(m.Barrier8), "893µs")
	fmt.Fprintf(&b, "%-30s %12s %12s\n", "protection op (min)", fmtDur(m.ProtMin), "18µs")
	fmt.Fprintf(&b, "%-30s %12s %12s\n", "protection op (2000 pages)", fmtDur(m.ProtMax), "~800µs")
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	}
}

// ---- the experiment list ----

// Experiment is one entry of the evaluation: a generator and its
// formatter under the name sdsm-experiments selects it by.
type Experiment struct {
	// Name is the experiment's flag and its golden file (testdata/Name.golden).
	Name string
	// Help is the flag's usage line.
	Help string
	// With names the experiment whose flag also selects this one, which
	// then has no flag of its own (-adapt prints Tables A and B).
	With string
	// Slow marks the full-evaluation tables the golden test skips under
	// -short.
	Slow bool
	// Run generates the table at procs processors (the sizes that fix their
	// own node counts ignore it) over a pool of workers and renders it; the
	// string is meaningful only when the error is nil.
	Run func(procs, workers int) (string, error)
}

// Experiments is the evaluation in `sdsm-experiments -all` order. The
// command registers its flags and dispatches by ranging over this table,
// and TestGoldenTables pins every entry's output, so an experiment added
// here is selectable and golden-checked without a second list to extend.
var Experiments = []Experiment{
	{Name: "micro", Help: "Section 5 primitive costs", Run: func(int, int) (string, error) {
		m, err := Micro()
		if err != nil {
			return "", err
		}
		return FormatMicro(m), nil
	}},
	{Name: "table1", Help: "uniprocessor execution times", Run: func(_, w int) (string, error) {
		rows, err := Table1(w)
		return FormatTable1(rows), err
	}},
	{Name: "table2", Help: "reduction in page faults, messages, data", Slow: true, Run: func(p, w int) (string, error) {
		rows, err := Table2(p, w)
		return FormatTable2(rows), err
	}},
	{Name: "fig5", Help: "speedups: Tmk, Opt-Tmk, XHPF, PVMe", Slow: true, Run: func(p, w int) (string, error) {
		rows, err := Fig5(p, w)
		return FormatFig5(rows, p), err
	}},
	{Name: "fig6", Help: "speedups under optimization levels", Slow: true, Run: func(p, w int) (string, error) {
		rows, err := Fig6(p, w)
		return FormatFig6(rows, p), err
	}},
	{Name: "fig7", Help: "synchronous vs asynchronous fetching", Slow: true, Run: func(p, w int) (string, error) {
		rows, err := Fig7(p, w)
		return FormatFig7(rows, p), err
	}},
	{Name: "adapt", Help: "adaptive update protocol vs invalidate baseline and compiler push", Slow: true, Run: func(p, w int) (string, error) {
		rows, err := AdaptTable(p, w)
		return FormatAdaptTable(rows, p), err
	}},
	{Name: "adaptlock", With: "adapt", Slow: true, Run: func(p, w int) (string, error) {
		rows, err := AdaptLockTable(p, w)
		return FormatAdaptLockTable(rows, p), err
	}},
	// The scaling matrix ignores procs: its node-count axis is the
	// experiment (8 through 128 on the sim backend, every run verified
	// against the sequential reference).
	{Name: "scale", Help: "large-machine scaling matrix: serve delegation + compressed relay at 8..128 nodes", Slow: true, Run: func(_, w int) (string, error) {
		rows, err := ScaleTable(w)
		return FormatScaleTable(rows), err
	}},
}
