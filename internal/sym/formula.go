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
		return &Cmp{Op: OpLe, S: AddSum(Int(1), NegSum(c.S))}
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

// Eq returns the formula a = b.
func Eq(a, b *Sum) Expr { return cmp(OpEq, SubSum(a, b)) }

// Ne returns the formula a ≠ b.
func Ne(a, b *Sum) Expr { return cmp(OpNe, SubSum(a, b)) }

// Le returns the formula a ≤ b.
func Le(a, b *Sum) Expr { return cmp(OpLe, SubSum(a, b)) }

// Lt returns the formula a < b (folded to a+1 ≤ b over the integers).
func Lt(a, b *Sum) Expr { return cmp(OpLe, AddSum(SubSum(a, b), Int(1))) }

// Ge returns the formula a ≥ b.
func Ge(a, b *Sum) Expr { return Le(b, a) }

// Gt returns the formula a > b.
func Gt(a, b *Sum) Expr { return Lt(b, a) }

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
