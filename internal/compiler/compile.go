package compiler

import (
	"fmt"

	"sdsm/internal/ir"
	"sdsm/internal/rsd"
	"sdsm/internal/shm"
)

// Options selects which transformations are enabled, matching the
// optimization levels of the paper's Figure 6, plus the fetch mode of
// Figure 7.
type Options struct {
	NProcs int
	Params rsd.Env

	// Aggregate inserts Validate calls (communication aggregation).
	Aggregate bool
	// ConsElim enables the consistency-disabling access types WRITE_ALL
	// and READ&WRITE_ALL where analysis is exact.
	ConsElim bool
	// SyncMerge converts Validates at synchronization statements into
	// Validate_w_sync (merging data movement with synchronization).
	SyncMerge bool
	// Push replaces qualifying barriers with point-to-point exchanges.
	Push bool
	// Async requests asynchronous data fetching for inserted Validates.
	Async bool
}

// Levels returns the cumulative option sets used for the Figure 6 sweep,
// all with asynchronous fetching (Figure 7 turns it off per run).
func Levels(n int, params rsd.Env) []Options {
	base := Options{NProcs: n, Params: params, Async: true}
	l1 := base
	l1.Aggregate = true
	l2 := l1
	l2.ConsElim = true
	l3 := l2
	l3.SyncMerge = true
	l4 := l3
	l4.Push = true
	return []Options{base, l1, l2, l3, l4}
}

// Report records what the transformation did, for tests and the
// sdsm-compile tool.
type Report struct {
	Validates []string
	WSyncs    []string
	Pushes    []string
	Skipped   []string
}

func (r *Report) String() string {
	out := ""
	for _, v := range r.Validates {
		out += "validate  " + v + "\n"
	}
	for _, v := range r.WSyncs {
		out += "w_sync    " + v + "\n"
	}
	for _, v := range r.Pushes {
		out += "push      " + v + "\n"
	}
	for _, v := range r.Skipped {
		out += "skipped   " + v + "\n"
	}
	return out
}

// Compile applies the Section 4.2 transformation rules and returns the
// transformed program (the input is not modified) plus a report.
func Compile(prog *ir.Program, opts Options) (*ir.Program, *Report) {
	c := &compilation{prog: prog, opts: opts, layout: BuildLayout(prog, opts.Params), rep: &Report{}}
	c.computes = collectComputes(prog.Body)
	out := *prog
	out.Body = c.transformBody(prog.Body, false)
	return &out, c.rep
}

// collectComputes gathers Compute statements in program order so section
// evaluation during contiguity checks can bind their symbols.
func collectComputes(stmts []ir.Stmt) []ir.Compute {
	var out []ir.Compute
	var walk func([]ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, st := range body {
			switch st := st.(type) {
			case ir.Compute:
				out = append(out, st)
			case ir.Loop:
				walk(st.Body)
			case ir.If:
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(stmts)
	return out
}

// BuildLayout allocates the program's arrays for the given parameters.
func BuildLayout(prog *ir.Program, params rsd.Env) *shm.Layout {
	l := shm.NewLayout()
	env := rsd.Env{}
	for k, v := range params {
		env[k] = v
	}
	for _, a := range prog.Arrays {
		dims := make([]int, len(a.Dims))
		for i, d := range a.Dims {
			dims[i] = d.Eval(env)
		}
		l.Alloc(a.Name, dims...)
	}
	return l
}

type compilation struct {
	prog   *ir.Program
	opts   Options
	layout *shm.Layout
	rep    *Report
	// enclosing tracks induction variables of sync-carrying loops the
	// transformation has descended into; sections may reference them.
	enclosing []loopVar
	// computes are the program's Compute bindings in program order, needed
	// to evaluate sections that reference runtime-computed symbols.
	computes []ir.Compute
}

type loopVar struct {
	name   rsd.Sym
	lo, hi rsd.Lin
}

// element is one entry of a segmented statement list: either a fetch
// point or a maximal fetch-point-free segment.
type element struct {
	fetch ir.Stmt   // non-nil for fetch points
	seg   []ir.Stmt // non-nil for segments
}

// isFetchPoint reports whether st delimits analysis regions.
func isFetchPoint(st ir.Stmt) bool {
	switch st := st.(type) {
	case ir.Barrier, ir.LockAcquire, ir.LockRelease, ir.CallBoundary, ir.If, ir.PushStmt:
		return true
	case ir.Loop:
		return containsFetch(st.Body)
	}
	return false
}

func containsFetch(stmts []ir.Stmt) bool {
	for _, st := range stmts {
		if isFetchPoint(st) {
			return true
		}
	}
	return false
}

// segment splits a body into alternating fetch points and segments.
func segment(body []ir.Stmt) []element {
	var out []element
	var cur []ir.Stmt
	flush := func() {
		if len(cur) > 0 {
			out = append(out, element{seg: cur})
			cur = nil
		}
	}
	for _, st := range body {
		if isFetchPoint(st) {
			flush()
			out = append(out, element{fetch: st})
		} else {
			cur = append(cur, st)
		}
	}
	flush()
	return out
}

// transformBody segments and rewrites one statement list. cyclic is true
// for the bodies of loops (regions wrap around the back edge).
func (c *compilation) transformBody(body []ir.Stmt, cyclic bool) []ir.Stmt {
	els := segment(body)
	if len(els) == 0 {
		return nil
	}

	// Recurse into compound fetch points first.
	for i, el := range els {
		switch st := el.fetch.(type) {
		case ir.Loop:
			c.enclosing = append(c.enclosing, loopVar{name: st.Var, lo: st.Lo, hi: st.Hi})
			st.Body = c.transformBody(st.Body, true)
			c.enclosing = c.enclosing[:len(c.enclosing)-1]
			els[i].fetch = st
		case ir.If:
			st.Then = c.branchWithValidates(st.Then)
			st.Else = c.branchWithValidates(st.Else)
			els[i].fetch = st
		}
	}

	type insertion struct {
		before []ir.Stmt // Validate_w_sync registrations
		after  []ir.Stmt // Validates
		push   *ir.PushStmt
	}
	ins := make([]insertion, len(els))

	next := func(i int) (int, bool) {
		if i+1 < len(els) {
			return i + 1, true
		}
		if cyclic {
			return 0, true
		}
		return -1, false
	}
	prev := func(i int) (int, bool) {
		if i > 0 {
			return i - 1, true
		}
		if cyclic {
			return len(els) - 1, true
		}
		return -1, false
	}

	totalBars := 0
	for _, el := range els {
		if _, isBar := el.fetch.(ir.Barrier); isBar {
			totalBars++
		}
	}
	replacedBars := 0
	for i, el := range els {
		if el.fetch == nil {
			continue
		}
		if _, isLoop := el.fetch.(ir.Loop); isLoop {
			continue // handled recursively
		}
		// The region this fetch point covers: the following segment.
		var after Summary
		if j, ok := next(i); ok && els[j].seg != nil {
			after = Summarize(els[j].seg)
		}
		// Push rule: only barriers, preceded by a segment whose preceding
		// fetch point is a barrier, succeeded (after the region) by a
		// barrier distinct from this one. A global synchronization must
		// survive in the cycle ("a barrier is needed later to restore
		// release consistency"), and the exchange must actually move data
		// between processors.
		if bar, isBar := el.fetch.(ir.Barrier); isBar && c.opts.Push && cyclic {
			switch push, desc := c.tryPush(els, i, bar, after, prev, next); {
			case push == nil:
				if desc != "" {
					c.rep.Skipped = append(c.rep.Skipped, desc)
				}
			case replacedBars >= totalBars-1:
				c.rep.Skipped = append(c.rep.Skipped,
					fmt.Sprintf("push at barrier %d: must keep one barrier for release consistency", bar.ID))
			case !c.pushUseful(push):
				c.rep.Skipped = append(c.rep.Skipped,
					fmt.Sprintf("push at barrier %d: no cross-processor data to exchange", bar.ID))
			default:
				ins[i].push = push
				replacedBars++
				c.rep.Pushes = append(c.rep.Pushes, desc)
				// Reads of the following region are delivered by the Push;
				// only its write-side Validates remain useful.
				after = writesOnly(after)
			}
		}
		before, afterStmts := c.validatesFor(el.fetch, after, ins[i].push != nil)
		ins[i].before = before
		ins[i].after = afterStmts
	}

	// Reassemble.
	var out []ir.Stmt
	for i, el := range els {
		if el.seg != nil {
			out = append(out, el.seg...)
			continue
		}
		out = append(out, ins[i].before...)
		if ins[i].push != nil {
			out = append(out, *ins[i].push)
		} else {
			out = append(out, el.fetch)
		}
		out = append(out, ins[i].after...)
	}
	return out
}

// branchWithValidates rewrites a conditional branch, inserting region
// Validates at its start (the paper: when a conditional limits the
// region, the Validate is inserted at the beginning of that region).
func (c *compilation) branchWithValidates(body []ir.Stmt) []ir.Stmt {
	if len(body) == 0 || !c.opts.Aggregate {
		return body
	}
	if containsFetch(body) {
		return c.transformBody(body, false)
	}
	sum := Summarize(body)
	var vs []ir.Stmt
	for _, a := range sum.Accesses {
		if !c.hoistable(a, "in branch") {
			continue
		}
		v, desc := c.plainValidate(a)
		vs = append(vs, *v)
		c.rep.Validates = append(c.rep.Validates, desc+" (in branch)")
	}
	return append(vs, body...)
}

// hoistable reports whether an access's section can be evaluated at the
// head of its region, where a Validate for it would run. A section that
// mentions a symbol bound by a Compute inside the region cannot — there
// the symbol is unbound, or stale from the previous trip — so it is left
// to the run-time's demand fetches and listed as skipped.
func (c *compilation) hoistable(a Access, where string) bool {
	if a.boundInside != "" {
		c.rep.Skipped = append(c.rep.Skipped, fmt.Sprintf("validate %v %s: %s is bound inside the region", a.Sec, where, a.boundInside))
	}
	return a.boundInside == ""
}

// writesOnly strips read-only accesses from a summary.
func writesOnly(s Summary) Summary {
	var out []Access
	for _, a := range s.Accesses {
		if a.Tag.Has(rsd.Write) {
			out = append(out, a)
		}
	}
	return Summary{Accesses: out}
}

// validatesFor applies rules 2-4 of Section 4.2 for the region following
// fetch point f.
func (c *compilation) validatesFor(f ir.Stmt, after Summary, pushed bool) (before, afterStmts []ir.Stmt) {
	if !c.opts.Aggregate {
		return nil, nil
	}
	_, isBarrier := f.(ir.Barrier)
	_, isAcquire := f.(ir.LockAcquire)
	syncStmt := isBarrier || isAcquire

	// Accesses resolving to the same access type combine into a single
	// Validate call, so the run-time fetches all their sections in one
	// exchange per responder (communication aggregation across arrays).
	combined := map[ir.AccessType]*ir.ValidateStmt{}
	combinedW := map[ir.AccessType]*ir.ValidateStmt{}
	var beforeV, afterV []*ir.ValidateStmt
	emit := func(at ir.AccessType, wsync bool, sec rsd.Section) {
		m := combined
		if wsync {
			m = combinedW
		}
		v, ok := m[at]
		if !ok {
			v = &ir.ValidateStmt{At: at, WSync: wsync, Async: !wsync && c.opts.Async && at != ir.WriteAll}
			m[at] = v
			if wsync {
				beforeV = append(beforeV, v)
			} else {
				afterV = append(afterV, v)
			}
		}
		v.Secs = append(v.Secs, sec)
	}

	for _, a := range after.Accesses {
		if !c.hoistable(a, "after "+stmtName(f)) {
			continue
		}
		// Rule 2: exact, contiguous, fully written sections disable
		// consistency maintenance.
		if c.opts.ConsElim && a.Exact && a.Tag.Has(rsd.Write) && c.contiguousForAll(a.Sec) {
			at := ir.ReadWriteAll
			if a.Tag.Has(rsd.WriteFirst) {
				at = ir.WriteAll
			}
			emit(at, false, a.Sec)
			c.rep.Validates = append(c.rep.Validates, fmt.Sprintf("%v %v after %s", a.Sec, at, stmtName(f)))
			continue
		}
		at := baseAccessType(a.Tag)
		// Rule 3: merge the fetch with the synchronization operation. The
		// paper notes it is sometimes better to insert a Validate after f
		// instead (Section 4.2); merging pays off for read-only sections
		// (broadcastable data), while write-containing sections would make
		// every processor scan large address ranges it never modified
		// (Section 3.3), so those keep the plain Validate.
		if c.opts.SyncMerge && syncStmt && !pushed && at == ir.Read {
			emit(at, true, a.Sec)
			c.rep.WSyncs = append(c.rep.WSyncs, fmt.Sprintf("%v %v before %s", a.Sec, at, stmtName(f)))
			continue
		}
		// Rule 4: plain Validate at the beginning of the region.
		emit(at, false, a.Sec)
		c.rep.Validates = append(c.rep.Validates, fmt.Sprintf("%v %v after %s", a.Sec, at, stmtName(f)))
	}
	for _, v := range beforeV {
		before = append(before, *v)
	}
	for _, v := range afterV {
		afterStmts = append(afterStmts, *v)
	}
	return before, afterStmts
}

// plainValidate builds a rule-4 Validate for one access (used inside
// conditional branches, where neither *_ALL nor wsync apply).
func (c *compilation) plainValidate(a Access) (*ir.ValidateStmt, string) {
	at := baseAccessType(a.Tag)
	v := &ir.ValidateStmt{At: at, Secs: []rsd.Section{a.Sec}, Async: c.opts.Async}
	return v, fmt.Sprintf("%v %v", a.Sec, at)
}

// baseAccessType maps tags onto the consistency-preserving access types.
func baseAccessType(t rsd.Tag) ir.AccessType {
	switch {
	case t.Has(rsd.Read) && t.Has(rsd.Write):
		return ir.ReadWrite
	case t.Has(rsd.Write):
		return ir.Write
	default:
		return ir.Read
	}
}

// tryPush checks the Section 4.2 Push conditions for barrier element i
// and builds the PushStmt.
func (c *compilation) tryPush(els []element, i int, bar ir.Barrier, after Summary,
	prev, next func(int) (int, bool)) (*ir.PushStmt, string) {

	fetchBefore := func(i int) (ir.Stmt, bool) {
		j, ok := prev(i)
		if !ok {
			return nil, false
		}
		if els[j].seg != nil {
			j2, ok := prev(j)
			if !ok {
				return nil, false
			}
			j = j2
		}
		if els[j].fetch == nil || j == i {
			return nil, false
		}
		return els[j].fetch, true
	}
	fetchAfter := func(i int) (ir.Stmt, bool) {
		j, ok := next(i)
		if !ok {
			return nil, false
		}
		if els[j].seg != nil {
			j2, ok := next(j)
			if !ok {
				return nil, false
			}
			j = j2
		}
		if els[j].fetch == nil || j == i {
			return nil, false
		}
		return els[j].fetch, true
	}

	pf, ok1 := fetchBefore(i)
	sf, ok2 := fetchAfter(i)
	if !ok1 || !ok2 {
		return nil, fmt.Sprintf("push at barrier %d: no surrounding fetch points", bar.ID)
	}
	if _, isBar := pf.(ir.Barrier); !isBar {
		return nil, fmt.Sprintf("push at barrier %d: preceding fetch point is not a barrier", bar.ID)
	}
	if _, isBar := sf.(ir.Barrier); !isBar {
		return nil, fmt.Sprintf("push at barrier %d: succeeding fetch point is not a barrier", bar.ID)
	}

	// Writes of the preceding region.
	var beforeSum Summary
	if j, ok := prev(i); ok && els[j].seg != nil {
		beforeSum = Summarize(els[j].seg)
	}
	var writes, reads []rsd.Section
	for _, a := range beforeSum.Accesses {
		if !a.Tag.Has(rsd.Write) {
			continue
		}
		if sym := c.movesWith(a); sym != "" {
			return nil, fmt.Sprintf("push at barrier %d: section %v moves with %s", bar.ID, a.Sec, sym)
		}
		if !a.Exact {
			return nil, fmt.Sprintf("push at barrier %d: write section %v inexact", bar.ID, a.Sec)
		}
		writes = append(writes, a.Sec)
	}
	if len(writes) == 0 {
		return nil, fmt.Sprintf("push at barrier %d: preceding region writes nothing", bar.ID)
	}
	for _, a := range after.Accesses {
		if !a.Tag.Has(rsd.Read) {
			continue
		}
		if sym := c.movesWith(a); sym != "" {
			return nil, fmt.Sprintf("push at barrier %d: section %v moves with %s", bar.ID, a.Sec, sym)
		}
		if !a.Exact && !a.Tag.Has(rsd.Write) {
			// Reads may be over-approximated only by analyzable sections.
			return nil, fmt.Sprintf("push at barrier %d: read section %v unknown", bar.ID, a.Sec)
		}
		reads = append(reads, a.Sec)
	}
	push := &ir.PushStmt{ReplacedBarrier: bar.ID, Reads: reads, Writes: writes}
	return push, fmt.Sprintf("barrier %d replaced: writes %v, reads %v", bar.ID, writes, reads)
}

// movesWith returns a symbol that takes a new value on every trip of the
// loop carrying a barrier and that the access's section mentions ("" if
// none): a Compute inside the region, or a loop variable of the nest around
// the barrier. The exchange is checked once, at compile time, for all trips
// (pushUseful), and such a section has no one value to check.
func (c *compilation) movesWith(a Access) rsd.Sym {
	for _, lv := range c.enclosing {
		if mentioned(a.Sec, []rsd.Sym{lv.name}) != "" {
			return lv.name
		}
	}
	return a.boundInside
}

// pushUseful evaluates a candidate Push numerically and reports whether
// any processor would send data to another: whether some processor's write
// section shares an element with another processor's read section.
func (c *compilation) pushUseful(push *ir.PushStmt) bool {
	n := c.opts.NProcs
	reads := make([][]rsd.Concrete, n)
	writes := make([][]rsd.Concrete, n)
	for p := 0; p < n; p++ {
		env := c.prog.Env(c.opts.Params, p, n)
		for _, cp := range c.computes {
			env[cp.Sym] = cp.Fn(env)
		}
		for _, sec := range push.Reads {
			reads[p] = append(reads[p], sec.Eval(env))
		}
		for _, sec := range push.Writes {
			writes[p] = append(writes[p], sec.Eval(env))
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for _, w := range writes[i] {
				for _, r := range reads[j] {
					if i != j && !w.Intersect(r, nil).Empty() {
						return true
					}
				}
			}
		}
	}
	return false
}

// contiguousForAll reports whether a section maps to one contiguous
// address range for every processor, sampling the end points of any
// enclosing sync-loop induction variables the section references.
func (c *compilation) contiguousForAll(sec rsd.Section) bool {
	for p := 0; p < c.opts.NProcs; p++ {
		env := c.prog.Env(c.opts.Params, p, c.opts.NProcs)
		if !c.contiguousSampled(sec, env, 0) {
			return false
		}
	}
	return true
}

func (c *compilation) contiguousSampled(sec rsd.Section, env rsd.Env, depth int) bool {
	if depth < len(c.enclosing) {
		lv := c.enclosing[depth]
		lo, hi := lv.lo.Eval(env), lv.hi.Eval(env)
		samples := []int{lo, (lo + hi) / 2, hi}
		for _, v := range samples {
			if v < lo || v > hi {
				continue
			}
			env[lv.name] = v
			if !c.contiguousSampled(sec, env, depth+1) {
				delete(env, lv.name)
				return false
			}
			delete(env, lv.name)
		}
		return true
	}
	for _, cp := range c.computes {
		env[cp.Sym] = cp.Fn(env)
	}
	cc := sec.Eval(env)
	for _, cp := range c.computes {
		delete(env, cp.Sym)
	}
	if cc.Empty() {
		return true
	}
	return cc.ContiguousIn(c.layout.Array(cc.Array))
}

func stmtName(st ir.Stmt) string {
	switch st := st.(type) {
	case ir.Barrier:
		return fmt.Sprintf("barrier %d", st.ID)
	case ir.LockAcquire:
		return fmt.Sprintf("acquire %v", st.ID)
	case ir.LockRelease:
		return fmt.Sprintf("release %v", st.ID)
	case ir.CallBoundary:
		return "call " + st.Name
	case ir.If:
		return "if"
	}
	return fmt.Sprintf("%T", st)
}
