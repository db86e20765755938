package smt

import (
	"fmt"

	"hotg/internal/sym"
)

// compiler translates an apply-free sym formula into SAT clauses whose atoms
// are linear inequalities, via Tseitin encoding.
type compiler struct {
	sat *SAT

	varIndex map[int]int // sym Var.ID → dense LIA variable index
	varList  []*sym.Var  // dense index → sym variable

	atomVar  map[string]int // normalized ineq key → SAT variable
	atomIneq map[int]Ineq   // SAT variable → inequality (positive polarity)

	memo    map[string]Lit // expr key → literal
	trueLit Lit
	hasTrue bool

	// Journal of insertions, kept only when journaling is on (the warm
	// refuter, FirstUnsat): popTo replays it backwards to drop a case's
	// state. Map entries a case reuses from the base produce no new journal
	// record, so they survive the pop — which is right, since the SAT
	// variables they map to predate the mark.
	journal bool
	memoLog []string
	atomLog []string
}

func newCompiler(sat *SAT) *compiler {
	return &compiler{
		sat:      sat,
		varIndex: make(map[int]int),
		atomVar:  make(map[string]int),
		atomIneq: make(map[int]Ineq),
		memo:     make(map[string]Lit),
	}
}

// compMark snapshots compiler extent for popTo, mirroring SATMark.
type compMark struct {
	nVars  int
	nMemo  int
	nAtoms int
}

func (c *compiler) mark() compMark {
	return compMark{nVars: len(c.varList), nMemo: len(c.memoLog), nAtoms: len(c.atomLog)}
}

// popTo removes every dense variable, Tseitin memo entry and theory atom
// registered since the mark. Requires journaling.
func (c *compiler) popTo(m compMark) {
	for _, v := range c.varList[m.nVars:] {
		delete(c.varIndex, v.ID)
	}
	c.varList = c.varList[:m.nVars]
	for _, k := range c.memoLog[m.nMemo:] {
		delete(c.memo, k)
	}
	c.memoLog = c.memoLog[:m.nMemo]
	for _, k := range c.atomLog[m.nAtoms:] {
		delete(c.atomIneq, c.atomVar[k])
		delete(c.atomVar, k)
	}
	c.atomLog = c.atomLog[:m.nAtoms]
}

func (c *compiler) constLit(v bool) Lit {
	if !c.hasTrue {
		tv := c.sat.NewVar()
		c.sat.AddClause(MkLit(tv, false))
		c.trueLit = MkLit(tv, false)
		c.hasTrue = true
	}
	if v {
		return c.trueLit
	}
	return c.trueLit.Flip()
}

func (c *compiler) denseVar(v *sym.Var) int {
	if i, ok := c.varIndex[v.ID]; ok {
		return i
	}
	i := len(c.varList)
	c.varIndex[v.ID] = i
	c.varList = append(c.varList, v)
	return i
}

// Note: varList doubles as its own journal (popTo truncates it), so denseVar
// needs no explicit log entry.

// sumToIneq converts the constraint s ≤ 0 into an Ineq over dense variables.
// s must be apply-free.
func (c *compiler) sumToIneq(s *sym.Sum) Ineq {
	terms := make([]IVTerm, 0, len(s.Terms))
	for _, t := range s.Terms {
		v, ok := t.Atom.(*sym.Var)
		if !ok {
			panic(fmt.Sprintf("smt: formula contains uninterpreted application %v; ackermannize first", t.Atom))
		}
		terms = append(terms, IVTerm{Var: c.denseVar(v), Coef: t.Coef})
	}
	return Ineq{Terms: terms, B: -s.Const}
}

// atomLit returns the literal asserting q (Σcx ≤ b).
func (c *compiler) atomLit(q Ineq) Lit {
	nq, triv := q.Normalize()
	switch triv {
	case 1:
		return c.constLit(true)
	case -1:
		return c.constLit(false)
	}
	key := nq.Key()
	if v, ok := c.atomVar[key]; ok {
		return MkLit(v, false)
	}
	v := c.sat.NewVar()
	c.atomVar[key] = v
	c.atomIneq[v] = nq
	if c.journal {
		c.atomLog = append(c.atomLog, key)
	}
	return MkLit(v, false)
}

func (c *compiler) and(lits []Lit) Lit {
	z := c.sat.NewVar()
	zl := MkLit(z, false)
	all := make([]Lit, 0, len(lits)+1)
	for _, l := range lits {
		c.sat.AddClause(zl.Flip(), l)
		all = append(all, l.Flip())
	}
	all = append(all, zl)
	c.sat.AddClause(all...)
	return zl
}

func (c *compiler) or(lits []Lit) Lit {
	z := c.sat.NewVar()
	zl := MkLit(z, false)
	all := make([]Lit, 0, len(lits)+1)
	for _, l := range lits {
		c.sat.AddClause(zl, l.Flip())
		all = append(all, l)
	}
	all = append(all, zl.Flip())
	c.sat.AddClause(all...)
	return zl
}

// compile returns a literal equisatisfiably representing e.
func (c *compiler) compile(e sym.Expr) Lit {
	key := e.Key()
	if l, ok := c.memo[key]; ok {
		return l
	}
	var l Lit
	switch x := e.(type) {
	case *sym.Bool:
		l = c.constLit(x.V)
	case *sym.Cmp:
		switch x.Op {
		case sym.OpLe:
			l = c.atomLit(c.sumToIneq(x.S))
		case sym.OpEq:
			// S = 0  ⇔  S ≤ 0 ∧ -S ≤ 0.
			a := c.atomLit(c.sumToIneq(x.S))
			b := c.atomLit(c.sumToIneq(sym.NegSum(x.S)))
			l = c.and([]Lit{a, b})
		case sym.OpNe:
			// S ≠ 0  ⇔  S ≤ -1 ∨ -S ≤ -1.
			a := c.atomLit(c.sumToIneq(sym.AddSum(x.S, sym.Int(1))))
			b := c.atomLit(c.sumToIneq(sym.AddSum(sym.NegSum(x.S), sym.Int(1))))
			l = c.or([]Lit{a, b})
		}
	case *sym.Not:
		l = c.compile(x.X).Flip()
	case *sym.And:
		lits := make([]Lit, len(x.Xs))
		for i, y := range x.Xs {
			lits[i] = c.compile(y)
		}
		l = c.and(lits)
	case *sym.Or:
		lits := make([]Lit, len(x.Xs))
		for i, y := range x.Xs {
			lits[i] = c.compile(y)
		}
		l = c.or(lits)
	default:
		panic(fmt.Sprintf("smt: compile: unexpected %T", e))
	}
	c.memo[key] = l
	if c.journal {
		c.memoLog = append(c.memoLog, key)
	}
	return l
}

// assertedIneqs reads the SAT model and returns, for every theory atom, the
// inequality asserted by its polarity, paired with the literal that asserts
// it (used to build blocking clauses).
func (c *compiler) assertedIneqs() ([]Ineq, []Lit) {
	ineqs := make([]Ineq, 0, len(c.atomIneq))
	lits := make([]Lit, 0, len(c.atomIneq))
	// Deterministic order: by SAT variable index.
	for v := 0; v < c.sat.NumVars(); v++ {
		q, ok := c.atomIneq[v]
		if !ok {
			continue
		}
		if c.sat.Value(v) {
			ineqs = append(ineqs, q)
			lits = append(lits, MkLit(v, false))
		} else {
			ineqs = append(ineqs, q.Negated())
			lits = append(lits, MkLit(v, true))
		}
	}
	return ineqs, lits
}
