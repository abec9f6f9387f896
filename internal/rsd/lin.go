// Package rsd implements regular section descriptors (RSDs) in the style of
// Havlak and Kennedy's bounded regular section analysis, the representation
// the paper's compiler uses to summarize shared-array accesses between
// synchronization points (Section 4.1).
//
// A section bounds each array dimension with affine expressions over
// symbolic parameters (array extents, per-processor partition bounds, the
// processor id) plus a constant stride. Sections support the operations the
// paper's analysis needs: union (dimension-wise bounding box), symbolic
// comparison, evaluation against a concrete environment, exact
// intersection of concrete sections, and conversion to address regions for
// the run-time interface. A Push is planned at the section level: each
// rank intersects its write sections with the others' read sections and
// expands only what the two share into regions (Concrete.Intersect, then
// Concrete.AppendRegions).
package rsd

import (
	"fmt"
	"sort"
	"strings"
)

// Sym is a symbolic variable appearing in affine bounds: array extents
// ("m", "n"), partition bounds ("begin", "end"), the processor id ("p"),
// the processor count ("nprocs"), or loop induction variables.
type Sym string

// Env assigns values to symbols for evaluation.
type Env map[Sym]int

// Lin is an affine expression: C + Σ T[s]·s.
type Lin struct {
	C int
	T map[Sym]int
}

// Const returns a constant expression.
func Const(c int) Lin { return Lin{C: c} }

// Var returns the expression 1·s.
func Var(s Sym) Lin { return Lin{T: map[Sym]int{s: 1}} }

// Add returns l + o.
func (l Lin) Add(o Lin) Lin {
	out := Lin{C: l.C + o.C, T: map[Sym]int{}}
	for s, k := range l.T {
		out.T[s] += k
	}
	for s, k := range o.T {
		out.T[s] += k
	}
	for s, k := range out.T {
		if k == 0 {
			delete(out.T, s)
		}
	}
	if len(out.T) == 0 {
		out.T = nil
	}
	return out
}

// Sub returns l - o.
func (l Lin) Sub(o Lin) Lin { return l.Add(o.Scale(-1)) }

// Scale returns k·l.
func (l Lin) Scale(k int) Lin {
	out := Lin{C: l.C * k}
	if k != 0 && len(l.T) > 0 {
		out.T = map[Sym]int{}
		for s, c := range l.T {
			out.T[s] = c * k
		}
	}
	return out
}

// Plus returns l + c.
func (l Lin) Plus(c int) Lin { return l.Add(Const(c)) }

// IsConst reports whether l is constant and returns its value.
func (l Lin) IsConst() (int, bool) {
	if len(l.T) == 0 {
		return l.C, true
	}
	return 0, false
}

// Equal reports structural equality.
func (l Lin) Equal(o Lin) bool {
	d := l.Sub(o)
	c, ok := d.IsConst()
	return ok && c == 0
}

// DiffConst returns l - o when the difference is a known constant.
func (l Lin) DiffConst(o Lin) (int, bool) {
	return l.Sub(o).IsConst()
}

// Eval computes the value of l under env, panicking on unbound symbols.
func (l Lin) Eval(env Env) int {
	v := l.C
	for s, k := range l.T {
		val, ok := env[s]
		if !ok {
			panic(fmt.Sprintf("rsd: unbound symbol %q", s))
		}
		v += k * val
	}
	return v
}

// FreeSyms returns the symbols appearing in l, sorted.
func (l Lin) FreeSyms() []Sym {
	var out []Sym
	for s := range l.T {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Subst replaces symbol s with expression e in l.
func (l Lin) Subst(s Sym, e Lin) Lin {
	k, ok := l.T[s]
	if !ok {
		return l
	}
	rest := Lin{C: l.C, T: map[Sym]int{}}
	for t, c := range l.T {
		if t != s {
			rest.T[t] = c
		}
	}
	return rest.Add(e.Scale(k))
}

func (l Lin) String() string {
	var parts []string
	for _, s := range l.FreeSyms() {
		k := l.T[s]
		switch k {
		case 1:
			parts = append(parts, string(s))
		case -1:
			parts = append(parts, "-"+string(s))
		default:
			parts = append(parts, fmt.Sprintf("%d%s", k, s))
		}
	}
	if l.C != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", l.C))
	}
	out := strings.Join(parts, "+")
	return strings.ReplaceAll(out, "+-", "-")
}
