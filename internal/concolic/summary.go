package concolic

import (
	"fmt"
	"strings"
	"sync"

	"hotg/internal/mini"
	"hotg/internal/sym"
)

// Compositional summaries — the "higher-order compositional test generation"
// the paper sketches in Section 8: function summaries in the style of
// demand-driven compositional symbolic execution (Godefroid POPL'07; Anand,
// Godefroid, Tillmann TACAS'08), combined with the uninterpreted-function
// treatment of unknown calls.
//
// A summary case memoizes one intraprocedural path of a user-defined
// function: the path constraints and the return term, both expressed over
// fresh *formal* variables. At a call site the engine first runs the callee
// concretely (a cheap probe via mini.RunFuncVM) to learn which path the call
// takes; on a cache hit the memoized constraints are instantiated by
// substituting the actual argument terms for the formals — no symbolic
// re-execution of the callee happens. Because symbolic evaluation is
// compositional and terms are kept canonical, the instantiated constraints
// are syntactically identical to what inline execution would have produced
// (this is asserted by the property tests), so searches behave identically
// while call-heavy programs execute faster.
//
// Restrictions (checked by summarizable): the callee's parameters are ints
// and its body declares no arrays, so a call cannot touch caller state.
// Summaries require ModeHigherOrder: the memoized formulas must be exact for
// *every* argument vector following the summarized path, which only the
// uninterpreted-function treatment guarantees — under any concretization
// the callee-level formulas embed the miss-time runtime values and are stale
// for other arguments (the same phenomenon as Section 3.2's unsoundness).
// This is precisely why the paper pairs summaries with higher-order
// execution ("higher-order compositional test generation", Section 8).

// relConstraint is a path-constraint conjunct relative to the call: the
// expression is over the summary's formal variables and the event index is
// relative to the call's first branch event.
type relConstraint struct {
	Expr     sym.Expr
	RelEvent int
	IsConc   bool
	Pos      mini.Pos
}

// SummaryCase is one memoized intraprocedural path of a function.
type SummaryCase struct {
	Formals     []*sym.Var
	Constraints []relConstraint
	Ret         *sym.Sum // over Formals; a constant when it depends on none (0 for void or fall-off returns)
}

// SummaryCache memoizes path summaries per function. A single cache belongs
// to one engine (it references the engine's variable pool). The cache is safe
// for concurrent use by engine clones; read the statistics fields only after
// the runs sharing the cache have finished.
type SummaryCache struct {
	mu    sync.Mutex
	cases map[*mini.FuncDecl]map[string]*SummaryCase
	smzbl map[*mini.FuncDecl]bool

	// Statistics.
	Hits      int // call sites served from a memoized case
	Misses    int // call sites that built a new case
	Fallbacks int // abnormal callee exits handled by classic inlining
}

// NewSummaryCache returns an empty cache.
func NewSummaryCache() *SummaryCache {
	return &SummaryCache{
		cases: make(map[*mini.FuncDecl]map[string]*SummaryCase),
		smzbl: make(map[*mini.FuncDecl]bool),
	}
}

// Cases returns the total number of memoized path summaries.
func (c *SummaryCache) Cases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.cases {
		n += len(m)
	}
	return n
}

func (c *SummaryCache) lookup(fd *mini.FuncDecl, sig string) *SummaryCase {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cases[fd][sig]
}

func (c *SummaryCache) store(fd *mini.FuncDecl, sig string, cs *SummaryCase) {
	// Memoize the canonical keys of every stored expression before
	// publishing: Key() lazily writes a memo field, and the case's nodes are
	// shared by every engine clone that hits this entry afterwards. Warming
	// here (Key computation is transitive over subterms) makes all later
	// accesses read-only.
	for _, rc := range cs.Constraints {
		rc.Expr.Key()
	}
	cs.Ret.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.cases[fd]
	if m == nil {
		m = make(map[string]*SummaryCase)
		c.cases[fd] = m
	}
	m[sig] = cs
}

func (c *SummaryCache) noteHit()      { c.mu.Lock(); c.Hits++; c.mu.Unlock() }
func (c *SummaryCache) noteMiss()     { c.mu.Lock(); c.Misses++; c.mu.Unlock() }
func (c *SummaryCache) noteFallback() { c.mu.Lock(); c.Fallbacks++; c.mu.Unlock() }

// summarizable reports whether fd is eligible: int parameters only and no
// array declarations anywhere in the body.
func (c *SummaryCache) summarizable(fd *mini.FuncDecl) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok, seen := c.smzbl[fd]; seen {
		return ok
	}
	ok := true
	for _, prm := range fd.Params {
		if prm.Type.Kind != mini.TInt {
			ok = false
		}
	}
	if ok {
		ok = !declaresArray(fd.Body)
	}
	c.smzbl[fd] = ok
	return ok
}

func declaresArray(b *mini.Block) bool {
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *mini.ArrDecl:
			return true
		case *mini.Block:
			if declaresArray(st) {
				return true
			}
		case *mini.If:
			if declaresArray(st.Then) {
				return true
			}
			switch e := st.Else.(type) {
			case *mini.Block:
				if declaresArray(e) {
					return true
				}
			case *mini.If:
				if declaresArray(&mini.Block{Stmts: []mini.Stmt{e}}) {
					return true
				}
			}
		case *mini.While:
			if declaresArray(st.Body) {
				return true
			}
		}
	}
	return false
}

// traceSig encodes a branch-event sequence as a cache key.
func traceSig(events []mini.BranchEvent) string {
	var b strings.Builder
	for _, ev := range events {
		if ev.Taken {
			fmt.Fprintf(&b, "%d+", ev.ID)
		} else {
			fmt.Fprintf(&b, "%d-", ev.ID)
		}
	}
	return b.String()
}

// summariesUsable reports whether the engine's mode supports summary calls.
func (e *Engine) summariesUsable() bool {
	return e.Summaries != nil && e.Mode == ModeHigherOrder
}

// groundFold replaces uninterpreted applications whose arguments became
// constants after substitution by their sampled values. Inline execution
// with those constant operands would have computed concretely and never
// created the application, so folding restores exact equivalence; the sample
// is always present because the concrete pass evaluated the same call.
func (r *runner) groundFold(e sym.Expr) sym.Expr {
	return sym.RewriteApplies(e, r.groundFoldApply)
}

func (r *runner) groundFoldSum(s *sym.Sum) *sym.Sum {
	return sym.RewriteAppliesSum(s, r.groundFoldApply)
}

func (r *runner) groundFoldApply(a *sym.Apply) (*sym.Sum, bool) {
	// A product with one constant side is linear: inline execution never
	// created an application for it (sym.MulSum succeeded), so fold it back.
	if a.Fn.Name == "$mul" && len(a.Args) == 2 {
		if prod, ok := sym.MulSum(a.Args[0], a.Args[1]); ok {
			return prod, true
		}
	}
	args := make([]int64, len(a.Args))
	for i, arg := range a.Args {
		v, ok := arg.IsConst()
		if !ok {
			return nil, false
		}
		args[i] = v
	}
	if out, ok := r.e.Samples.Lookup(a.Fn, args); ok {
		return sym.Int(out), true
	}
	// Unknown instructions ($mul/$div/$mod) and natives have concrete
	// ground-truth semantics; evaluating directly matches what inline
	// execution computed with the same constant operands.
	if out, ok := r.e.NativeEval(a.Fn.Name, args); ok {
		return sym.Int(out), true
	}
	return nil, false
}

// evalCallSummary handles a call to a summarizable function through the
// summary cache. Falls back to classic inlining on abnormal callee exits.
func (r *runner) evalCallSummary(x *mini.Call, fr frame) (int64, sval, error) {
	fd := x.Fn
	argC, argS, err := r.evalArgs(x.Args, fr)
	if err != nil {
		return 0, sval{}, err
	}

	// Concrete probe: which intraprocedural path does this call take?
	remaining := r.maxSteps - r.steps
	if remaining <= 0 {
		return 0, sval{}, errStepBudget
	}
	var sampleHook func(string, []int64, int64)
	if r.e.Mode == ModeHigherOrder {
		sampleHook = func(name string, args []int64, out int64) {
			if r.e.Samples.Add(r.e.FuncFor(name), args, out) {
				r.ex.NewSamples++
			}
		}
	}
	probe := mini.RunFuncVM(r.e.compiled(), fd.Name, argC, mini.RunOptions{
		MaxSteps:     remaining,
		MaxDepth:     r.maxDepth,
		OnNativeCall: sampleHook,
	})
	r.steps += probe.Steps
	if probe.Kind != mini.StopReturn {
		// Error site or fault inside the callee: let classic inlining
		// reproduce it with full symbolic context.
		r.e.Summaries.noteFallback()
		return r.evalCallInline(x, argC, argS)
	}

	sig := traceSig(probe.Branches)
	base := len(r.res.Branches)

	if cs := r.e.Summaries.lookup(fd, sig); cs != nil {
		r.e.Summaries.noteHit()
		r.res.Branches = append(r.res.Branches, probe.Branches...)
		subst := make(map[int]*sym.Sum, len(cs.Formals))
		for i, f := range cs.Formals {
			subst[f.ID] = argS[i].term(argC[i])
		}
		for _, rc := range cs.Constraints {
			expr := r.groundFold(sym.SubstVars(rc.Expr, subst))
			// Constraints that fold away under constant arguments would not
			// have been emitted by inline execution either.
			if expr == sym.True {
				continue
			}
			ei := -1
			if rc.RelEvent >= 0 {
				ei = base + rc.RelEvent
			}
			r.ex.PC = append(r.ex.PC, Constraint{
				Expr:             expr,
				IsConcretization: rc.IsConc,
				EventIndex:       ei,
				Pos:              rc.Pos,
			})
		}
		return probe.Return, intS(r.groundFoldSum(sym.SubstVarsSum(cs.Ret, subst)), nil), nil
	}

	// Miss: execute the callee symbolically over fresh formal variables,
	// memoize the (formal-level) summary, then instantiate in place.
	r.e.Summaries.noteMiss()
	if err := r.enter(x.P); err != nil {
		return 0, sval{}, err
	}
	formals := make([]*sym.Var, len(fd.Params))
	callee := make(frame, fd.FrameSize)
	for i, prm := range fd.Params {
		formals[i] = r.e.Pool.NewVar("$" + fd.Name + "." + prm.Name)
		callee[i] = slot{i: argC[i], s: intS(sym.VarTerm(formals[i]), nil)}
		// Formals behave as the inputs of this sub-execution: register them
		// so any concretization pin emitted inside the callee (e.g. a
		// symbolic array index in a nested non-summarizable call) pins the
		// formal to the concrete argument value.
		r.varByID[formals[i].ID] = formals[i]
		r.inputVal[formals[i].ID] = argC[i]
	}
	pcMark := len(r.ex.PC)
	ret, err := r.execBlock(fd.Body, callee)
	r.depth--
	if err != nil {
		// The probe said this path returns normally; a deterministic
		// program cannot disagree with it.
		panic(fmt.Sprintf("concolic: summary pass diverged from probe at %s: %v", x.P, err))
	}

	if ret == nil {
		ret = &retval{} // fall-off return: the input-independent 0
	}
	retC, retSum := ret.i, ret.s.term(ret.i)
	cs := &SummaryCase{Formals: formals, Ret: retSum}
	for i := pcMark; i < len(r.ex.PC); i++ {
		c := r.ex.PC[i]
		rel := -1
		if c.EventIndex >= 0 {
			rel = c.EventIndex - base
		}
		cs.Constraints = append(cs.Constraints, relConstraint{
			Expr:     c.Expr,
			RelEvent: rel,
			IsConc:   c.IsConcretization,
			Pos:      c.Pos,
		})
	}
	r.e.Summaries.store(fd, sig, cs)

	// Rewrite the freshly appended constraints into the caller's vocabulary,
	// dropping any that fold away under constant arguments (inline execution
	// would not have emitted those).
	subst := make(map[int]*sym.Sum, len(formals))
	for i, f := range formals {
		subst[f.ID] = argS[i].term(argC[i])
	}
	kept := r.ex.PC[:pcMark]
	for i := pcMark; i < len(r.ex.PC); i++ {
		expr := r.groundFold(sym.SubstVars(r.ex.PC[i].Expr, subst))
		if expr == sym.True {
			continue
		}
		c := r.ex.PC[i]
		c.Expr = expr
		kept = append(kept, c)
	}
	r.ex.PC = kept
	return retC, intS(r.groundFoldSum(sym.SubstVarsSum(retSum, subst)), nil), nil
}
