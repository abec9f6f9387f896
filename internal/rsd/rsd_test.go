package rsd

import (
	"testing"
	"testing/quick"

	"sdsm/internal/shm"
)

func TestLinAlgebra(t *testing.T) {
	b := Var("begin")
	e := Var("end")
	x := b.Plus(-1).Add(e).Sub(b) // begin-1+end-begin = end-1
	if got := x.String(); got != "end-1" {
		t.Fatalf("x = %q", got)
	}
	if v := x.Eval(Env{"end": 10}); v != 9 {
		t.Fatalf("eval = %d", v)
	}
	if _, ok := x.IsConst(); ok {
		t.Fatal("end-1 is not constant")
	}
	if c, ok := x.Sub(e).IsConst(); !ok || c != -1 {
		t.Fatal("x-end must be constant -1")
	}
}

func TestLinSubst(t *testing.T) {
	// 2*i + j + 3 with i := p+1  →  2p + j + 5
	l := Var("i").Scale(2).Add(Var("j")).Plus(3)
	got := l.Subst("i", Var("p").Plus(1))
	want := Var("p").Scale(2).Add(Var("j")).Plus(5)
	if !got.Equal(want) {
		t.Fatalf("subst = %v, want %v", got, want)
	}
}

func TestLinEvalPanicsOnUnbound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbound symbol")
		}
	}()
	Var("zzz").Eval(Env{})
}

// jacobiReadSections reproduces the paper's Section 4.3 example: the four
// read references to b in the Jacobi first loop nest union to
// b[1:M, begin-1:end+1].
func TestUnionMatchesPaperJacobiExample(t *testing.T) {
	m := Var("m")
	b := Var("begin")
	e := Var("end")
	mk := func(lo1, hi1, lo2, hi2 Lin) Section {
		return Section{Array: "b", Dims: []Bound{Dense(lo1, hi1), Dense(lo2, hi2)}}
	}
	secs := []Section{
		mk(Const(1), m.Plus(-2), b, e),
		mk(Const(3), m, b, e),
		mk(Const(2), m.Plus(-1), b.Plus(-1), e.Plus(-1)),
		mk(Const(2), m.Plus(-1), b.Plus(1), e.Plus(1)),
	}
	u := secs[0]
	for _, s := range secs[1:] {
		var ok bool
		u, ok = u.Union(s)
		if !ok {
			t.Fatalf("union failed at %v", s)
		}
	}
	want := mk(Const(1), m, b.Plus(-1), e.Plus(1))
	if !u.Equal(want) {
		t.Fatalf("union = %v, want %v", u, want)
	}
}

func TestUnionFailsOnIncomparableBounds(t *testing.T) {
	a := Section{Array: "x", Dims: []Bound{Dense(Var("i"), Var("i"))}}
	b := Section{Array: "x", Dims: []Bound{Dense(Var("j"), Var("j"))}}
	if _, ok := a.Union(b); ok {
		t.Fatal("union of incomparable bounds must fail")
	}
}

func TestUnionFailsAcrossArrays(t *testing.T) {
	a := Section{Array: "x", Dims: []Bound{Dense(Const(1), Const(2))}}
	b := Section{Array: "y", Dims: []Bound{Dense(Const(1), Const(2))}}
	if _, ok := a.Union(b); ok {
		t.Fatal("union across arrays must fail")
	}
}

func TestEvalAndElems(t *testing.T) {
	s := Section{Array: "a", Dims: []Bound{
		Dense(Const(1), Var("m")),
		{Lo: Var("p").Plus(1), Hi: Var("n"), Stride: 4},
	}}
	c := s.Eval(Env{"m": 10, "p": 0, "n": 9})
	if c.Dims[0].Count() != 10 || c.Dims[1].Count() != 3 {
		t.Fatalf("counts = %d, %d", c.Dims[0].Count(), c.Dims[1].Count())
	}
	if c.Elems() != 30 {
		t.Fatalf("elems = %d", c.Elems())
	}
	if c.Empty() {
		t.Fatal("not empty")
	}
}

func TestRegionsColumnMajor(t *testing.T) {
	b := shm.NewLayout().Alloc("b", 100, 50)
	// Full columns 3..4: one contiguous region of 200 words.
	c := Concrete{Array: "b", Dims: []CBound{{1, 100, 1}, {3, 4, 1}}}
	rs := c.AppendRegions(nil, b)
	if len(rs) != 1 || rs[0].Words() != 200 {
		t.Fatalf("regions = %v", rs)
	}
	// Partial columns: one region per column.
	c = Concrete{Array: "b", Dims: []CBound{{2, 99, 1}, {3, 4, 1}}}
	rs = c.AppendRegions(nil, b)
	if len(rs) != 2 || rs[0].Words() != 98 {
		t.Fatalf("regions = %v", rs)
	}
}

func TestContiguity(t *testing.T) {
	b := shm.NewLayout().Alloc("b", 100, 50)
	full := Concrete{Array: "b", Dims: []CBound{{1, 100, 1}, {10, 20, 1}}}
	if !full.ContiguousIn(b) {
		t.Fatal("full columns must be contiguous (column-major)")
	}
	part := Concrete{Array: "b", Dims: []CBound{{1, 99, 1}, {10, 20, 1}}}
	if part.ContiguousIn(b) {
		t.Fatal("partial columns must not be contiguous")
	}
}

func TestRegionsElemCountProperty(t *testing.T) {
	// Property: the total words of AppendRegions equals Elems for stride-1
	// sections (no overlap double-counting after merging).
	q := shm.NewLayout().Alloc("q", 64, 64)
	f := func(lo1, hi1, lo2, hi2 uint8) bool {
		d1 := CBound{1 + int(lo1)%64, 1 + int(hi1)%64, 1}
		d2 := CBound{1 + int(lo2)%64, 1 + int(hi2)%64, 1}
		c := Concrete{Array: "q", Dims: []CBound{d1, d2}}
		if c.Empty() {
			return true
		}
		words := 0
		for _, r := range c.AppendRegions(nil, q) {
			words += r.Words()
		}
		return words == c.Elems()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagString(t *testing.T) {
	tg := Read | Write | WriteFirst
	if !tg.Has(Read) || !tg.Has(Write) || !tg.Has(WriteFirst) {
		t.Fatal("tag bits broken")
	}
	if s := tg.String(); s != "{read,write,write-first}" {
		t.Fatalf("tag = %q", s)
	}
}

func TestSectionString(t *testing.T) {
	s := Section{Array: "b", Dims: []Bound{
		Dense(Const(1), Var("m")),
		{Lo: Var("begin"), Hi: Var("end"), Stride: 2},
	}}
	if got := s.String(); got != "b[1:m, begin:end:2]" {
		t.Fatalf("String = %q", got)
	}
}
