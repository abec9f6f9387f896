package rsd

import (
	"testing"
	"testing/quick"
)

// Property: Lin algebra is a commutative group under Add with Sub as
// inverse, and Eval is a homomorphism.
func TestLinGroupProperties(t *testing.T) {
	mk := func(c int8, ka, kb int8) Lin {
		return Const(int(c)).Add(Var("a").Scale(int(ka))).Add(Var("b").Scale(int(kb)))
	}
	env := Env{"a": 3, "b": -7}
	f := func(c1, ka1, kb1, c2, ka2, kb2 int8) bool {
		x, y := mk(c1, ka1, kb1), mk(c2, ka2, kb2)
		if !x.Add(y).Equal(y.Add(x)) {
			return false
		}
		if !x.Add(y).Sub(y).Equal(x) {
			return false
		}
		return x.Add(y).Eval(env) == x.Eval(env)+y.Eval(env)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Subst then Eval equals Eval with the substituted binding.
func TestSubstEvalCommute(t *testing.T) {
	f := func(c, ka, kb, sub int8) bool {
		l := Const(int(c)).Add(Var("a").Scale(int(ka))).Add(Var("b").Scale(int(kb)))
		replaced := l.Subst("a", Const(int(sub)))
		return replaced.Eval(Env{"b": 5}) == l.Eval(Env{"a": int(sub), "b": 5})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a symbolic union evaluated equals (contains) the union of the
// evaluations.
func TestUnionEvalContainment(t *testing.T) {
	f := func(lo1, hi1, lo2, hi2 uint8) bool {
		a := Section{Array: "x", Dims: []Bound{Dense(Const(int(lo1)), Const(int(lo1)+int(hi1)%50))}}
		b := Section{Array: "x", Dims: []Bound{Dense(Const(int(lo2)), Const(int(lo2)+int(hi2)%50))}}
		u, ok := a.Union(b)
		if !ok {
			return true
		}
		env := Env{}
		ca, cb, cu := a.Eval(env), b.Eval(env), u.Eval(env)
		for _, c := range []Concrete{ca, cb} {
			if c.Dims[0].Lo < cu.Dims[0].Lo || c.Dims[0].Hi > cu.Dims[0].Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
