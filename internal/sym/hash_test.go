package sym

import (
	"math/rand"
	"testing"
)

// termGen builds random terms from a stream of decisions, so that replaying
// the stream builds an equal term with no pointer in common, and replaying it
// with one decision changed builds a near miss: a different coefficient,
// operator, argument, variable or node kind at one place.
type termGen struct {
	decisions []int
	pos       int
	vars      []*Var
	funcs     []*Func
}

func newTermGen(decisions []int) *termGen {
	g := &termGen{decisions: decisions}
	// x#1 and x#4 share a name, and so do y#2 and y#3: only the IDs tell
	// them apart. z#1 shares x#1's ID: only the names do.
	g.vars = []*Var{{ID: 1, Name: "x"}, {ID: 2, Name: "y"}, {ID: 3, Name: "y"}, {ID: 4, Name: "x"}, {ID: 1, Name: "z"}}
	g.funcs = []*Func{{ID: 1, Name: "f", Arity: 1}, {ID: 2, Name: "g", Arity: 2}, {ID: 3, Name: "p", Arity: 1, Input: true}}
	return g
}

func (g *termGen) next(n int) int {
	d := 0
	if g.pos < len(g.decisions) {
		d = g.decisions[g.pos]
	}
	g.pos++
	return d % n
}

func (g *termGen) sum(depth int) *Sum {
	s := &Sum{Const: int64(g.next(5) - 2)}
	for i := g.next(3); i > 0; i-- {
		t := Term{Coef: int64(g.next(5) - 2)}
		if depth > 0 && g.next(3) == 0 {
			fn := g.funcs[g.next(len(g.funcs))]
			args := make([]*Sum, fn.Arity)
			for j := range args {
				args[j] = g.sum(depth - 1)
			}
			t.Atom = &Apply{Fn: fn, Args: args}
		} else {
			v := g.vars[g.next(len(g.vars))]
			t.Atom = &Var{ID: v.ID, Name: v.Name} // a fresh pointer per use
		}
		s.Terms = append(s.Terms, t)
	}
	return s
}

func (g *termGen) expr(depth int) Expr {
	kind := g.next(7)
	if depth == 0 {
		kind %= 3
	}
	switch kind {
	case 0:
		return &Cmp{Op: CmpOp(g.next(3)), S: g.sum(2)}
	case 1:
		return g.sum(2)
	case 2:
		return &Bool{V: g.next(2) == 1}
	case 3:
		return &Not{X: g.expr(depth - 1)}
	case 4, 5:
		xs := make([]Expr, g.next(3))
		for i := range xs {
			xs[i] = g.expr(depth - 1)
		}
		if kind == 4 {
			return &And{Xs: xs}
		}
		return &Or{Xs: xs}
	}
	return &Cmp{Op: CmpOp(g.next(3)), S: g.sum(0)}
}

// TestHashEqualMatchKey: over random terms, Equal(a, b) holds exactly when
// a.Key() == b.Key(), and equal keys give equal hashes. Each term is compared
// with a rebuilt copy, with a one-decision near miss and with an unrelated
// term.
func TestHashEqualMatchKey(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(a, b Expr) {
		t.Helper()
		sameKey := a.Key() == b.Key()
		if got := Equal(a, b); got != sameKey {
			t.Fatalf("Equal = %v, but keys\n  %s\n  %s", got, a.Key(), b.Key())
		}
		if sameKey && Hash(a) != Hash(b) {
			t.Fatalf("equal keys %s hash apart", a.Key())
		}
	}
	var equal, near int
	for iter := 0; iter < 3000; iter++ {
		ds := make([]int, 64)
		for i := range ds {
			ds[i] = r.Intn(1 << 20)
		}
		ga := newTermGen(ds)
		a := ga.expr(3)
		b := newTermGen(ds).expr(3)
		check(a, b)
		if !Equal(a, b) {
			t.Fatalf("a rebuilt term differs: %s", a.Key())
		}
		equal++
		miss := append([]int(nil), ds...)
		miss[r.Intn(min(ga.pos, len(miss)))]++ // a decision a was built from
		c := newTermGen(miss).expr(3)
		check(a, c)
		if !Equal(a, c) {
			near++
		}
		check(a, newTermGen([]int{r.Int()}).expr(3))
	}
	if near < equal/2 {
		t.Fatalf("only %d of %d near misses differ", near, equal)
	}
}

// TestEqualNearMisses: terms that differ in one coefficient, one operator,
// one application argument, or in a variable's ID or name are not Equal,
// and except for the name, which the hash leaves out, not hashed alike.
func TestEqualNearMisses(t *testing.T) {
	x1, x2, y := &Var{ID: 1, Name: "x"}, &Var{ID: 2, Name: "x"}, &Var{ID: 3, Name: "y"}
	f := &Func{ID: 1, Name: "f", Arity: 1}
	fx := func(c int64) *Sum { return ApplyTerm(f, AddConst(VarTerm(x1), c)) }
	cases := []struct {
		name string
		a, b Expr
	}{
		{"coefficient", Le(ScaleSum(2, VarTerm(x1)), VarTerm(y)), Le(ScaleSum(3, VarTerm(x1)), VarTerm(y))},
		{"operator", Eq(VarTerm(x1), Int(4)), Ne(VarTerm(x1), Int(4))},
		{"apply argument", Eq(fx(1), Int(0)), Eq(fx(2), Int(0))},
		{"same name, other ID", Le(VarTerm(x1), Int(0)), Le(VarTerm(x2), Int(0))},
		{"same ID, other name", Le(VarTerm(x1), Int(0)), Le(VarTerm(&Var{ID: 1, Name: "z"}), Int(0))},
		{"not", NotExpr(OrExpr(Eq(VarTerm(x1), Int(1)), Eq(VarTerm(y), Int(1)))), OrExpr(Eq(VarTerm(x1), Int(1)), Eq(VarTerm(y), Int(1)))},
		{"and/or", AndExpr(Eq(VarTerm(x1), Int(1)), Eq(VarTerm(y), Int(1))), OrExpr(Eq(VarTerm(x1), Int(1)), Eq(VarTerm(y), Int(1)))},
	}
	for _, c := range cases {
		if c.a.Key() == c.b.Key() {
			t.Fatalf("%s: the two terms share the key %s", c.name, c.a.Key())
		}
		if Equal(c.a, c.b) || Equal(c.b, c.a) {
			t.Errorf("%s: %s and %s are Equal", c.name, c.a.Key(), c.b.Key())
		}
		if Hash(c.a) == Hash(c.b) && c.name != "same ID, other name" {
			t.Errorf("%s: %s and %s hash alike", c.name, c.a.Key(), c.b.Key())
		}
	}
}

// TestConstOperandForms: the constant-operand constructors build the term
// or formula the general ones build from Int(c), key for key.
func TestConstOperandForms(t *testing.T) {
	var p Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	f := p.FuncSym("f", 1)
	sums := []*Sum{
		Int(0), Int(7), VarTerm(x), AddConst(ScaleSum(-2, VarTerm(y)), 3),
		AddSum(VarTerm(x), ApplyTerm(f, VarTerm(y))),
	}
	for _, s := range sums {
		for _, c := range []int64{-5, -1, 0, 1, 9} {
			if got, want := AddConst(s, c).Key(), AddSum(s, Int(c)).Key(); got != want {
				t.Errorf("AddConst(%s, %d) = %s, want %s", s.Key(), c, got, want)
			}
			if got, want := AddConst(s, c).Key(), AddSum(Int(c), s).Key(); got != want {
				t.Errorf("AddConst(%s, %d) = %s, want c + s = %s", s.Key(), c, got, want)
			}
			if got, want := ConstSub(c, s).Key(), SubSum(Int(c), s).Key(); got != want {
				t.Errorf("ConstSub(%d, %s) = %s, want %s", c, s.Key(), got, want)
			}
			for rel := RelEq; rel <= RelGe; rel++ {
				if got, want := CompareConst(rel, s, c).Key(), Compare(rel, s, Int(c)).Key(); got != want {
					t.Errorf("CompareConst(%d, %s, %d) = %s, want %s", rel, s.Key(), c, got, want)
				}
				if got, want := ConstCompare(rel, c, s).Key(), Compare(rel, Int(c), s).Key(); got != want {
					t.Errorf("ConstCompare(%d, %d, %s) = %s, want %s", rel, c, s.Key(), got, want)
				}
			}
		}
	}
}
