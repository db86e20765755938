package sym

import (
	"fmt"
	"strings"
)

// CmpOp is a comparison operator of a normalized atomic constraint.
// Every comparison a ⋈ b is normalized to (a-b) ⋈' 0 where ⋈' ∈ {=, ≠, ≤}:
// strict < is folded into ≤ by adding 1 (integers), and >,≥ by negating the
// left-hand side.
type CmpOp int

const (
	// OpEq asserts S = 0.
	OpEq CmpOp = iota
	// OpNe asserts S ≠ 0.
	OpNe
	// OpLe asserts S ≤ 0.
	OpLe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLe:
		return "<="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Bool is the boolean constant true or false.
type Bool struct{ V bool }

// True and False are the two boolean constants.
var (
	True  = &Bool{V: true}
	False = &Bool{V: false}
)

// Sort implements Expr.
func (b *Bool) Sort() Sort { return SortBool }

// Key implements Expr.
func (b *Bool) Key() string {
	if b.V {
		return "true"
	}
	return "false"
}

func (b *Bool) String() string { return b.Key() }

// Cmp is the normalized atomic constraint S op 0.
type Cmp struct {
	Op CmpOp
	S  *Sum

	key string
}

// Sort implements Expr.
func (c *Cmp) Sort() Sort { return SortBool }

// Key implements Expr.
func (c *Cmp) Key() string {
	if c.key == "" {
		c.key = "(" + c.S.Key() + " " + c.Op.String() + " 0)"
	}
	return c.key
}

func (c *Cmp) String() string { return fmt.Sprintf("%s %s 0", c.S, c.Op) }

// Negate returns the complement of the atomic constraint c.
func (c *Cmp) Negate() Expr {
	switch c.Op {
	case OpEq:
		return &Cmp{Op: OpNe, S: c.S}
	case OpNe:
		return &Cmp{Op: OpEq, S: c.S}
	case OpLe:
		// ¬(S ≤ 0)  ⇔  S > 0  ⇔  S ≥ 1  ⇔  1-S ≤ 0.
		return &Cmp{Op: OpLe, S: AddConst(NegSum(c.S), 1)}
	}
	panic("sym: bad CmpOp")
}

// Not is boolean negation.
type Not struct {
	X Expr

	key string
}

// Sort implements Expr.
func (n *Not) Sort() Sort { return SortBool }

// Key implements Expr.
func (n *Not) Key() string {
	if n.key == "" {
		n.key = "(not " + n.X.Key() + ")"
	}
	return n.key
}

func (n *Not) String() string { return "!(" + fmt.Sprint(n.X) + ")" }

// And is n-ary conjunction.
type And struct {
	Xs []Expr

	key string
}

// Sort implements Expr.
func (a *And) Sort() Sort { return SortBool }

// Key implements Expr.
func (a *And) Key() string {
	if a.key == "" {
		parts := make([]string, len(a.Xs))
		for i, x := range a.Xs {
			parts[i] = x.Key()
		}
		a.key = "(and " + strings.Join(parts, " ") + ")"
	}
	return a.key
}

func (a *And) String() string { return joinBool(a.Xs, " && ") }

// Or is n-ary disjunction.
type Or struct {
	Xs []Expr

	key string
}

// Sort implements Expr.
func (o *Or) Sort() Sort { return SortBool }

// Key implements Expr.
func (o *Or) Key() string {
	if o.key == "" {
		parts := make([]string, len(o.Xs))
		for i, x := range o.Xs {
			parts[i] = x.Key()
		}
		o.key = "(or " + strings.Join(parts, " ") + ")"
	}
	return o.key
}

func (o *Or) String() string { return joinBool(o.Xs, " || ") }

func joinBool(xs []Expr, sep string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = "(" + fmt.Sprint(x) + ")"
	}
	return strings.Join(parts, sep)
}

// Holds reports whether the constant v satisfies v op 0: the value a
// comparison whose left-hand side folded to v takes.
func (op CmpOp) Holds(v int64) bool {
	switch op {
	case OpEq:
		return v == 0
	case OpNe:
		return v != 0
	case OpLe:
		return v <= 0
	}
	return false
}

func cmp(op CmpOp, s *Sum) Expr {
	if v, ok := s.IsConst(); ok {
		if op.Holds(v) {
			return True
		}
		return False
	}
	return &Cmp{Op: op, S: s}
}

// Rel is a comparison a ⋈ b as a program writes it, before normalization.
type Rel int

const (
	RelEq Rel = iota // a = b
	RelNe            // a ≠ b
	RelLt            // a < b
	RelLe            // a ≤ b
	RelGt            // a > b
	RelGe            // a ≥ b
)

// relDiff returns a ⋈ b from d = a - b, for ⋈ one of =, ≠, <, ≤: the one
// place comparisons are normalized. Strict < folds to a-b+1 ≤ 0 over the
// integers; > and ≥ are < and ≤ with the operands swapped (Compare).
func relDiff(rel Rel, d *Sum) Expr {
	switch rel {
	case RelEq:
		return cmp(OpEq, d)
	case RelNe:
		return cmp(OpNe, d)
	case RelLt:
		return cmp(OpLe, AddConst(d, 1))
	case RelLe:
		return cmp(OpLe, d)
	}
	panic("sym: relDiff of a swapped relation")
}

// swapped returns the relation ⋈' with a ⋈ b ⇔ b ⋈' a, for > and ≥, and
// reports whether rel is one of them.
func (rel Rel) swapped() (Rel, bool) {
	switch rel {
	case RelGt:
		return RelLt, true
	case RelGe:
		return RelLe, true
	}
	return rel, false
}

// Compare returns the formula a ⋈ b.
func Compare(rel Rel, a, b *Sum) Expr {
	if r, ok := rel.swapped(); ok {
		return Compare(r, b, a)
	}
	return relDiff(rel, SubSum(a, b))
}

// CompareConst returns s ⋈ c: the formula Compare(rel, s, Int(c)) gives,
// without allocating the constant.
func CompareConst(rel Rel, s *Sum, c int64) Expr {
	if r, ok := rel.swapped(); ok {
		return ConstCompare(r, c, s)
	}
	return relDiff(rel, AddConst(s, -c))
}

// ConstCompare returns c ⋈ s: the formula Compare(rel, Int(c), s) gives,
// without allocating the constant.
func ConstCompare(rel Rel, c int64, s *Sum) Expr {
	if r, ok := rel.swapped(); ok {
		return CompareConst(r, s, c)
	}
	return relDiff(rel, ConstSub(c, s))
}

// Eq returns the formula a = b.
func Eq(a, b *Sum) Expr { return Compare(RelEq, a, b) }

// Ne returns the formula a ≠ b.
func Ne(a, b *Sum) Expr { return Compare(RelNe, a, b) }

// Le returns the formula a ≤ b.
func Le(a, b *Sum) Expr { return Compare(RelLe, a, b) }

// Lt returns the formula a < b (folded to a+1 ≤ b over the integers).
func Lt(a, b *Sum) Expr { return Compare(RelLt, a, b) }

// Ge returns the formula a ≥ b.
func Ge(a, b *Sum) Expr { return Compare(RelGe, a, b) }

// Gt returns the formula a > b.
func Gt(a, b *Sum) Expr { return Compare(RelGt, a, b) }

// NotExpr returns the negation of x, folding constants and atomic constraints.
func NotExpr(x Expr) Expr {
	switch e := x.(type) {
	case *Bool:
		if e.V {
			return False
		}
		return True
	case *Cmp:
		return e.Negate()
	case *Not:
		return e.X
	}
	return &Not{X: x}
}

// AndExpr returns the conjunction of xs, flattening nested conjunctions and
// folding constants.
func AndExpr(xs ...Expr) Expr {
	out := make([]Expr, 0, len(xs))
	for _, x := range xs {
		switch e := x.(type) {
		case *Bool:
			if !e.V {
				return False
			}
		case *And:
			out = append(out, e.Xs...)
		default:
			out = append(out, x)
		}
	}
	switch len(out) {
	case 0:
		return True
	case 1:
		return out[0]
	}
	return &And{Xs: out}
}

// OrExpr returns the disjunction of xs, flattening nested disjunctions and
// folding constants.
func OrExpr(xs ...Expr) Expr {
	out := make([]Expr, 0, len(xs))
	for _, x := range xs {
		switch e := x.(type) {
		case *Bool:
			if e.V {
				return True
			}
		case *Or:
			out = append(out, e.Xs...)
		default:
			out = append(out, x)
		}
	}
	switch len(out) {
	case 0:
		return False
	case 1:
		return out[0]
	}
	return &Or{Xs: out}
}

// Implies returns a ⇒ b.
func Implies(a, b Expr) Expr { return OrExpr(NotExpr(a), b) }
