// Package compiler implements the paper's compile-time side: regular
// section access analysis over explicitly parallel programs (Section 4.1)
// and the source-to-source transformation that inserts augmented run-time
// calls — Validate, Validate_w_sync, Push — per the rules of Section 4.2.
//
// Like the paper's implementation, the analysis handles subscripts that
// depend on at most one induction variable, does not see through opaque
// conditionals or unanalyzed calls (which become fetch points), and
// summarizes accesses as bounded regular sections with read / write /
// write-first tags.
package compiler

import (
	"fmt"

	"sdsm/internal/ir"
	"sdsm/internal/rsd"
)

// Access is one summarized section with its tags.
type Access struct {
	Sec rsd.Section
	Tag rsd.Tag
	// Exact is true when the section is a faithful representation of the
	// accessed data: affine subscripts, no conditionals, and (for writes)
	// no holes introduced by bounding-box unions.
	Exact bool
	// boundInside, when set, is a symbol the section mentions that a
	// Compute inside the region binds: the section has no meaning at the
	// region's head, where inserted run-time calls execute, so it may
	// neither be validated there nor ride a Push.
	boundInside rsd.Sym
}

// Summary is the access summary of one analysis region (the code between
// two consecutive fetch points).
type Summary struct {
	Accesses []Access
}

// varBound records the range of an induction variable enclosing a
// statement, relative to the region being summarized.
type varBound struct {
	lo, hi rsd.Lin
	step   int
}

// summarizer accumulates accesses while walking a region.
type summarizer struct {
	bounds   map[rsd.Sym]varBound // loop variables opened inside the region
	nest     []rsd.Sym            // the same variables, outermost first
	computed []rsd.Sym            // symbols the region's own Computes bind
	writes   []Access             // write sections seen so far, for write-first analysis
	out      []Access
}

// Summarize computes the access summary of a region (a fetch-point-free
// statement list). Loop variables bound outside the region (for example
// the induction variable of a lock-carrying loop) stay symbolic in the
// resulting sections.
func Summarize(region []ir.Stmt) Summary {
	s := &summarizer{bounds: map[rsd.Sym]varBound{}}
	s.walk(region, true)
	// A section that is written but never read (reads covered by earlier
	// writes in the region were dropped) acquires write-first.
	for i := range s.out {
		a := &s.out[i]
		if a.Tag.Has(rsd.Write) && !a.Tag.Has(rsd.Read) {
			a.Tag |= rsd.WriteFirst
		}
		a.boundInside = mentioned(a.Sec, s.computed)
	}
	return Summary{Accesses: s.out}
}

func (s *summarizer) walk(stmts []ir.Stmt, exact bool) {
	for _, st := range stmts {
		switch st := st.(type) {
		case ir.Loop:
			s.bounds[st.Var] = varBound{lo: st.Lo, hi: st.Hi, step: st.StepOr1()}
			s.nest = append(s.nest, st.Var)
			s.walk(st.Body, exact)
			s.nest = s.nest[:len(s.nest)-1]
			delete(s.bounds, st.Var)
		case ir.Compute:
			// Binds an opaque symbol; contributes no accesses. Sections
			// referencing it stay symbolic, and cannot leave the region.
			s.computed = append(s.computed, st.Sym)
		case ir.Assign:
			for _, ref := range st.RHS {
				s.addRef(ref, rsd.Read, exact)
			}
			s.addRef(st.LHS, rsd.Write, exact)
		case ir.Kernel:
			for _, ts := range st.Accesses {
				s.add(Access{Sec: ts.Sec, Tag: ts.Tag, Exact: ts.Exact && exact})
			}
		case ir.If:
			// Everything under an opaque conditional is inexact.
			s.walk(st.Then, false)
			s.walk(st.Else, false)
		case ir.ValidateStmt, ir.PushStmt:
			// Already-inserted run-time calls contribute no accesses.
		default:
			panic(fmt.Sprintf("compiler: fetch point %T inside region", st))
		}
	}
}

// addRef converts an array reference under the current loop bounds into a
// section and records it.
func (s *summarizer) addRef(ref ir.Ref, tag rsd.Tag, exact bool) {
	sec, faithful := s.refSection(ref)
	if tag == rsd.Read {
		// Reaching-writes check: a read covered by an earlier write in the
		// same region does not read stale data (Section 4.1 step 2d).
		for _, w := range s.writes {
			if covers(w.Sec, sec) {
				return
			}
		}
	}
	acc := Access{Sec: sec, Tag: tag, Exact: exact && faithful}
	if tag == rsd.Write && faithful {
		// A bounding range covers no read: not all of it is written.
		s.writes = append(s.writes, acc)
	}
	s.add(acc)
}

// refSection builds the regular section a reference touches across the
// region's loop bounds, and reports whether it is faithful. A subscript
// over one region-bound induction variable is (the paper's limitation); one
// over several — a(i+j) — gets the range it takes over their bounds, each
// variable at the end its coefficient's sign picks, innermost first since
// an inner bound may mention an outer variable. That is a superset of what
// is touched, so it is not faithful: good for fetching, never for
// WRITE_ALL or a Push.
func (s *summarizer) refSection(ref ir.Ref) (sec rsd.Section, faithful bool) {
	sec, faithful = rsd.Section{Array: ref.Array, Dims: make([]rsd.Bound, len(ref.Idx))}, true
	for d, idx := range ref.Idx {
		var ivs []rsd.Sym
		for _, sym := range idx.FreeSyms() {
			if _, ok := s.bounds[sym]; ok {
				ivs = append(ivs, sym)
			}
		}
		switch len(ivs) {
		case 0:
			sec.Dims[d] = rsd.Bound{Lo: idx, Hi: idx, Stride: 1}
		case 1:
			v := ivs[0]
			c := idx.T[v]
			b := s.bounds[v]
			lo := idx.Subst(v, b.lo)
			hi := idx.Subst(v, b.hi)
			stride := c * b.step
			if stride < 0 {
				stride = -stride
				lo, hi = hi, lo
			}
			sec.Dims[d] = rsd.Bound{Lo: lo, Hi: hi, Stride: stride}
		default:
			lo, hi := idx, idx
			for k := len(s.nest) - 1; k >= 0; k-- {
				v, b := s.nest[k], s.bounds[s.nest[k]]
				lo, hi = extreme(lo, v, b, false), extreme(hi, v, b, true)
			}
			sec.Dims[d] = rsd.Bound{Lo: lo, Hi: hi, Stride: 1}
			faithful = false
		}
	}
	return sec, faithful
}

// extreme returns l with v at the end of its range where l is greatest
// (least if !greatest).
func extreme(l rsd.Lin, v rsd.Sym, b varBound, greatest bool) rsd.Lin {
	if (l.T[v] > 0) == greatest {
		return l.Subst(v, b.hi)
	}
	return l.Subst(v, b.lo)
}

// mentioned returns the least symbol of syms that a bound of sec mentions
// ("" if none).
func mentioned(sec rsd.Section, syms []rsd.Sym) (found rsd.Sym) {
	for _, sym := range syms {
		for _, d := range sec.Dims {
			_, lo := d.Lo.T[sym]
			_, hi := d.Hi.T[sym]
			if (lo || hi) && (found == "" || sym < found) {
				found = sym
			}
		}
	}
	return found
}

// add merges the access into the summary: identical sections merge tags;
// same-array sections merge by bounding box (regular section union). A
// box that over-approximates is harmless for reads (an upper bound on the
// data to fetch) but disqualifies writes from exactness.
func (s *summarizer) add(a Access) {
	for i := range s.out {
		o := &s.out[i]
		if o.Sec.Array != a.Sec.Array {
			continue
		}
		if o.Sec.Equal(a.Sec) {
			o.Tag = mergeTags(o.Tag, a.Tag)
			o.Exact = o.Exact && a.Exact
			return
		}
		if u, ok := o.Sec.Union(a.Sec); ok {
			lossy := !covers(o.Sec, a.Sec) && !covers(a.Sec, o.Sec) && !adjacentOneDim(o.Sec, a.Sec)
			tag := mergeTags(o.Tag, a.Tag)
			exact := o.Exact && a.Exact
			if lossy && tag.Has(rsd.Write) {
				exact = false
			}
			o.Sec = u
			o.Tag = tag
			o.Exact = exact
			return
		}
	}
	s.out = append(s.out, a)
}

// mergeTags combines tags; write-first survives only if every write-tagged
// constituent had it.
func mergeTags(a, b rsd.Tag) rsd.Tag {
	t := (a | b) &^ rsd.WriteFirst
	aw, bw := a.Has(rsd.Write), b.Has(rsd.Write)
	awf, bwf := a.Has(rsd.WriteFirst), b.Has(rsd.WriteFirst)
	switch {
	case aw && bw:
		if awf && bwf {
			t |= rsd.WriteFirst
		}
	case aw:
		if awf {
			t |= rsd.WriteFirst
		}
	case bw:
		if bwf {
			t |= rsd.WriteFirst
		}
	}
	return t
}

// covers reports whether symbolically w contains r (dimension-wise, with
// compatible strides).
func covers(w, r rsd.Section) bool {
	if w.Array != r.Array || len(w.Dims) != len(r.Dims) {
		return false
	}
	for d := range w.Dims {
		wd, rd := w.Dims[d], r.Dims[d]
		if wd.Stride != 1 && (wd.Stride != rd.Stride || !wd.Lo.Equal(rd.Lo)) {
			return false
		}
		if dlo, ok := wd.Lo.DiffConst(rd.Lo); !ok || dlo > 0 {
			return false
		}
		if dhi, ok := rd.Hi.DiffConst(wd.Hi); !ok || dhi > 0 {
			return false
		}
	}
	return true
}

// adjacentOneDim reports whether two sections differ in exactly one
// dimension and overlap or touch there, so their bounding box is exact.
func adjacentOneDim(a, b rsd.Section) bool {
	if a.Array != b.Array || len(a.Dims) != len(b.Dims) {
		return false
	}
	diff := -1
	for d := range a.Dims {
		if a.Dims[d].Stride != b.Dims[d].Stride {
			return false
		}
		if a.Dims[d].Lo.Equal(b.Dims[d].Lo) && a.Dims[d].Hi.Equal(b.Dims[d].Hi) {
			continue
		}
		if diff != -1 {
			return false
		}
		diff = d
	}
	if diff == -1 {
		return true
	}
	ad, bd := a.Dims[diff], b.Dims[diff]
	if ad.Stride != 1 {
		return false
	}
	// Overlap or adjacency: lo2 <= hi1+1 and lo1 <= hi2+1, decided
	// symbolically.
	d1, ok1 := bd.Lo.Sub(ad.Hi).IsConst()
	d2, ok2 := ad.Lo.Sub(bd.Hi).IsConst()
	if !ok1 || !ok2 {
		return false
	}
	return d1 <= 1 && d2 <= 1
}
