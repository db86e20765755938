// Package sym implements the symbolic expression language used by the
// concolic execution engine and the constraint solvers.
//
// The theory T is quantifier-free linear integer arithmetic with equality and
// order, extended with applications of uninterpreted functions (the theory
// T ∪ T_EUF of the paper). Integer terms are kept in a canonical linear form
//
//	c0 + c1*a1 + c2*a2 + ... + cn*an
//
// where each atom ai is either a program-input variable or an uninterpreted
// function application f(t1,...,tk). Canonicalization means that syntactic
// equality of the printed form coincides with equality of the normal form,
// which the solver layers rely on. Anything that cannot be expressed linearly
// (a product of two symbolic terms, a symbolic division, ...) is *not*
// representable here on purpose: such operations are "unknown instructions"
// in the sense of the paper and must go through the executor's imprecision
// channel (concretization or a fresh uninterpreted function).
package sym

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Sort identifies the sort of an expression.
type Sort int

const (
	// SortInt is the sort of integer-valued terms.
	SortInt Sort = iota
	// SortBool is the sort of boolean-valued formulas.
	SortBool
)

func (s Sort) String() string {
	switch s {
	case SortInt:
		return "Int"
	case SortBool:
		return "Bool"
	default:
		return fmt.Sprintf("Sort(%d)", int(s))
	}
}

// Expr is a symbolic expression: either an integer term (*Sum) or a boolean
// formula (*Bool, *Cmp, *Not, *And, *Or). Atoms (*Var, *Apply) appear only
// inside a *Sum; the constructor functions maintain this invariant.
type Expr interface {
	Sort() Sort
	// Key returns a canonical string; two expressions are structurally
	// equal iff their keys are equal.
	Key() string
}

// Atom is a non-constant leaf of an integer term: a variable or an
// uninterpreted function application.
type Atom interface {
	Key() string
	atom()
}

// Var is a symbolic variable standing for one program input parameter
// (the x_i of the paper). Vars are compared by identity; create them through
// a Pool so that IDs are unique.
type Var struct {
	ID   int
	Name string

	key string // memoized canonical form
}

func (v *Var) atom() {}

// Key implements Atom.
func (v *Var) Key() string {
	if v.key == "" {
		v.key = v.Name + "#" + strconv.Itoa(v.ID)
	}
	return v.key
}

func (v *Var) String() string { return v.Name }

// Func is an uninterpreted function symbol. Funcs are compared by identity;
// create them through a Pool.
type Func struct {
	ID    int
	Name  string
	Arity int
	// Input marks the symbol as a function-valued *input* of the program (a
	// callback parameter) rather than an environment unknown. Input symbols
	// have no fixed ground truth: search is free to invent any decision
	// table for them, which is what makes ∃-synthesis sound for callbacks.
	Input bool
}

func (f *Func) String() string { return f.Name }

// Apply is the application of an uninterpreted function to integer argument
// terms. It is an integer-sorted atom.
type Apply struct {
	Fn   *Func
	Args []*Sum

	key string // memoized canonical form
}

func (a *Apply) atom() {}

// Key implements Atom. Function symbols are unique per name within a Pool
// (FuncSym deduplicates), so the name alone identifies the symbol — unlike
// variables, whose names may repeat and which therefore carry their ID.
func (a *Apply) Key() string {
	if a.key == "" {
		var b strings.Builder
		b.WriteString(a.Fn.Name)
		b.WriteByte('(')
		for i, arg := range a.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(arg.Key())
		}
		b.WriteByte(')')
		a.key = b.String()
	}
	return a.key
}

func (a *Apply) String() string {
	parts := make([]string, len(a.Args))
	for i, arg := range a.Args {
		parts[i] = arg.String()
	}
	return fmt.Sprintf("%s(%s)", a.Fn.Name, strings.Join(parts, ","))
}

// Term is one scaled atom inside a Sum.
type Term struct {
	Coef int64
	Atom Atom
}

// Sum is the canonical linear integer term Const + Σ Coef_i * Atom_i.
// Invariants: no zero coefficients, atoms strictly ordered by Key, each atom
// occurs at most once. A Sum with no terms is an integer constant.
type Sum struct {
	Const int64
	Terms []Term

	key string // memoized canonical form
}

// Sort implements Expr.
func (s *Sum) Sort() Sort { return SortInt }

// Key implements Expr.
func (s *Sum) Key() string {
	if s.key == "" {
		b := make([]byte, 0, 16+24*len(s.Terms))
		b = strconv.AppendInt(b, s.Const, 10)
		for _, t := range s.Terms {
			b = append(b, '+')
			b = strconv.AppendInt(b, t.Coef, 10)
			b = append(b, '*')
			b = append(b, t.Atom.Key()...)
		}
		s.key = string(b)
	}
	return s.key
}

func (s *Sum) String() string {
	if len(s.Terms) == 0 {
		return fmt.Sprintf("%d", s.Const)
	}
	var b strings.Builder
	for i, t := range s.Terms {
		var at string
		switch a := t.Atom.(type) {
		case *Var:
			at = a.String()
		case *Apply:
			at = a.String()
		}
		switch {
		case i == 0 && t.Coef == 1:
			b.WriteString(at)
		case i == 0 && t.Coef == -1:
			b.WriteString("-" + at)
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", t.Coef, at)
		case t.Coef == 1:
			b.WriteString(" + " + at)
		case t.Coef == -1:
			b.WriteString(" - " + at)
		case t.Coef > 0:
			fmt.Fprintf(&b, " + %d*%s", t.Coef, at)
		default:
			fmt.Fprintf(&b, " - %d*%s", -t.Coef, at)
		}
	}
	switch {
	case s.Const > 0:
		fmt.Fprintf(&b, " + %d", s.Const)
	case s.Const < 0:
		fmt.Fprintf(&b, " - %d", -s.Const)
	}
	return b.String()
}

// IsConst reports whether s is an integer constant, and returns its value.
func (s *Sum) IsConst() (int64, bool) {
	if len(s.Terms) == 0 {
		return s.Const, true
	}
	return 0, false
}

// IsVar reports whether s is exactly one variable with coefficient 1 and no
// constant part, and returns it.
func (s *Sum) IsVar() (*Var, bool) {
	if s.Const == 0 && len(s.Terms) == 1 && s.Terms[0].Coef == 1 {
		if v, ok := s.Terms[0].Atom.(*Var); ok {
			return v, true
		}
	}
	return nil, false
}

// IsApply reports whether s is exactly one function application with
// coefficient 1 and no constant part, and returns it.
func (s *Sum) IsApply() (*Apply, bool) {
	if s.Const == 0 && len(s.Terms) == 1 && s.Terms[0].Coef == 1 {
		if a, ok := s.Terms[0].Atom.(*Apply); ok {
			return a, true
		}
	}
	return nil, false
}

// Pool creates variables and function symbols with unique identities.
// The zero value is ready to use. Pool is safe for concurrent use; note that
// under concurrent allocation the numeric IDs handed to each goroutine depend
// on scheduling, so nothing observable may be derived from fresh-variable ID
// values (the engine and solvers only rely on IDs for identity and for the
// per-goroutine monotonic ordering of allocations).
type Pool struct {
	mu       sync.Mutex
	nextVar  int
	nextFunc int
	funcs    map[string]*Func
}

// NewVar returns a fresh symbolic variable named name. The canonical key is
// precomputed here so that concurrent readers of Key() never race on the memo
// field (workers only read keys; all writes happen at allocation or on the
// search coordinator before fan-out).
func (p *Pool) NewVar(name string) *Var {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextVar++
	v := &Var{ID: p.nextVar, Name: name}
	v.key = name + "#" + strconv.Itoa(v.ID)
	return v
}

// FuncSym returns the uninterpreted function symbol with the given name and
// arity, creating it on first use. The same (name) always yields the same
// symbol; requesting it with a different arity is a programming error and
// panics, since unknown functions are assumed to have a fixed signature
// (assumption of Theorem 3).
func (p *Pool) FuncSym(name string, arity int) *Func {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.funcs == nil {
		p.funcs = make(map[string]*Func)
	}
	if f, ok := p.funcs[name]; ok {
		if f.Arity != arity {
			panic(fmt.Sprintf("sym: function %s redeclared with arity %d (was %d)", name, arity, f.Arity))
		}
		if f.Input {
			panic(fmt.Sprintf("sym: input function %s redeclared as an environment symbol", name))
		}
		return f
	}
	p.nextFunc++
	f := &Func{ID: p.nextFunc, Name: name, Arity: arity}
	p.funcs[name] = f
	return f
}

// InputFuncSym is FuncSym for function-valued inputs: the returned symbol has
// Input set. Requesting a name already registered as a non-input symbol (or
// vice versa) panics — a symbol is either an environment unknown or an input,
// never both.
func (p *Pool) InputFuncSym(name string, arity int) *Func {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.funcs == nil {
		p.funcs = make(map[string]*Func)
	}
	if f, ok := p.funcs[name]; ok {
		if f.Arity != arity {
			panic(fmt.Sprintf("sym: function %s redeclared with arity %d (was %d)", name, arity, f.Arity))
		}
		if !f.Input {
			panic(fmt.Sprintf("sym: function %s redeclared as an input symbol", name))
		}
		return f
	}
	p.nextFunc++
	f := &Func{ID: p.nextFunc, Name: name, Arity: arity, Input: true}
	p.funcs[name] = f
	return f
}

// Int returns the constant integer term v.
func Int(v int64) *Sum { return &Sum{Const: v} }

// VarTerm returns the term consisting of the single variable v.
func VarTerm(v *Var) *Sum { return &Sum{Terms: []Term{{Coef: 1, Atom: v}}} }

// ApplyTerm returns the term f(args). It panics if the arity does not match.
func ApplyTerm(f *Func, args ...*Sum) *Sum {
	if len(args) != f.Arity {
		panic(fmt.Sprintf("sym: %s expects %d arguments, got %d", f.Name, f.Arity, len(args)))
	}
	cp := make([]*Sum, len(args))
	copy(cp, args)
	return &Sum{Terms: []Term{{Coef: 1, Atom: &Apply{Fn: f, Args: cp}}}}
}

// AtomTerm returns the term consisting of the single atom a.
func AtomTerm(a Atom) *Sum { return &Sum{Terms: []Term{{Coef: 1, Atom: a}}} }

// AddSum returns a + b in canonical form. Both inputs are canonical (terms
// strictly ordered by atom key), so the result is a linear-time sorted merge;
// when one side contributes nothing the other is returned as-is, preserving
// pointer identity (and the memoized key) of the shared structure.
func AddSum(a, b *Sum) *Sum {
	if len(b.Terms) == 0 {
		return AddConst(a, b.Const)
	}
	if len(a.Terms) == 0 {
		return AddConst(b, a.Const)
	}
	terms := make([]Term, 0, len(a.Terms)+len(b.Terms))
	i, j := 0, 0
	for i < len(a.Terms) && j < len(b.Terms) {
		ta, tb := a.Terms[i], b.Terms[j]
		if ta.Atom == tb.Atom {
			if c := ta.Coef + tb.Coef; c != 0 {
				terms = append(terms, Term{Coef: c, Atom: ta.Atom})
			}
			i++
			j++
			continue
		}
		switch ka, kb := ta.Atom.Key(), tb.Atom.Key(); {
		case ka < kb:
			terms = append(terms, ta)
			i++
		case ka > kb:
			terms = append(terms, tb)
			j++
		default:
			if c := ta.Coef + tb.Coef; c != 0 {
				terms = append(terms, Term{Coef: c, Atom: ta.Atom})
			}
			i++
			j++
		}
	}
	terms = append(terms, a.Terms[i:]...)
	terms = append(terms, b.Terms[j:]...)
	return &Sum{Const: a.Const + b.Const, Terms: terms}
}

// AddConst returns s + c in canonical form, sharing s's terms: the term
// AddSum(s, Int(c)) gives, without allocating the constant. It returns s
// itself when c is 0.
func AddConst(s *Sum, c int64) *Sum {
	if c == 0 {
		return s
	}
	return &Sum{Const: s.Const + c, Terms: s.Terms}
}

// ConstSub returns c - s: the term SubSum(Int(c), s) gives, without
// allocating the constant.
func ConstSub(c int64, s *Sum) *Sum {
	if len(s.Terms) == 0 {
		return &Sum{Const: c - s.Const}
	}
	return AddConst(NegSum(s), c)
}

// SubSum returns a - b in canonical form.
func SubSum(a, b *Sum) *Sum {
	if len(b.Terms) == 0 {
		return AddConst(a, -b.Const)
	}
	return AddSum(a, ScaleSum(-1, b))
}

// ScaleSum returns k * a in canonical form.
func ScaleSum(k int64, a *Sum) *Sum {
	if k == 0 {
		return Int(0)
	}
	terms := make([]Term, 0, len(a.Terms))
	for _, t := range a.Terms {
		terms = append(terms, Term{Coef: k * t.Coef, Atom: t.Atom})
	}
	return &Sum{Const: k * a.Const, Terms: terms}
}

// MulSum returns a * b if at least one side is constant; ok is false when both
// sides are symbolic (a nonlinear product, which the theory cannot express).
func MulSum(a, b *Sum) (res *Sum, ok bool) {
	if k, isC := a.IsConst(); isC {
		return ScaleSum(k, b), true
	}
	if k, isC := b.IsConst(); isC {
		return ScaleSum(k, a), true
	}
	return nil, false
}

// NegSum returns -a.
func NegSum(a *Sum) *Sum { return ScaleSum(-1, a) }
