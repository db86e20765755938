package fol

import (
	"context"
	"fmt"
	"time"

	"hotg/internal/faults"
	"hotg/internal/obs"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// Defensive resource ceilings, applied regardless of caller options so a
// pathological formula cannot exhaust memory: HardMaxNodes clamps MaxNodes,
// and hardMaxConjuncts fails any proof state whose goal grew past it (EUF and
// sample steps append equations; on adversarial inputs that growth compounds).
const (
	// HardMaxNodes is the absolute cap on proof-search nodes per Prove call,
	// applied even when Options.MaxNodes asks for more.
	HardMaxNodes = 1 << 20
	// hardMaxConjuncts bounds the width of any intermediate proof goal.
	hardMaxConjuncts = 1 << 14
	// maxProofDepth caps the depth of the backtracking proof search.
	maxProofDepth = 64
)

// Options configures Prove.
type Options struct {
	// VarBounds restricts input domains (keyed by variable ID); the bounds
	// are enforced on the residual arithmetic solve and checked on resolved
	// strategy values by callers.
	VarBounds map[int]smt.Bound
	// MaxNodes caps the backtracking search (default 20000).
	MaxNodes int
	// Pool supplies fresh variables for the refutation pass and for
	// residual solving; optional (a private pool is used when nil).
	Pool *sym.Pool
	// NoRefute skips the invalidity check (used by ablations).
	NoRefute bool
	// Fallback supplies concrete values (typically the current test input)
	// for variables the proof leaves unconstrained — the paper's "fix y"
	// step. Unconstrained variables without a fallback default to 0.
	Fallback map[int]int64
	// Obs, when non-nil, collects prover metrics (fol.prove.* latency and
	// outcome counters, proof-search node usage) and is forwarded to the
	// residual SMT solves. Never affects prover results.
	Obs *obs.Obs
	// Ctx, when non-nil, cancels the proof search cooperatively: the
	// backtracking loop polls it and unwinds with OutcomeTimeout.
	Ctx context.Context
	// Deadline, when non-zero, is an absolute wall-clock cutoff for this
	// call; past it the proof search unwinds with OutcomeTimeout. The
	// deadline is forwarded to the residual SMT solves and the refutation
	// pass, so one Prove call never outlives it by more than a poll interval.
	Deadline time.Time
}

// Prove attempts a constructive validity proof of POST(pc) = ∃X: A ⇒ pc,
// where A is the sample store's antecedent. On OutcomeProved the returned
// strategy builds witness inputs; on OutcomeInvalid no test input works for
// every interpretation of the unknown functions; OutcomeUnknown means the
// proof search was exhausted without a verdict.
func Prove(pc sym.Expr, samples *sym.SampleStore, opts Options) (*Strategy, Outcome) {
	st, out := ProveCore(pc, samples, opts)
	if out == OutcomeProved {
		st = FillFallback(st, sym.Vars(pc), opts.Fallback)
	}
	return st, out
}

// ProveCore is Prove without the final fallback-filling step: on
// OutcomeProved the returned strategy defines only the variables the proof
// itself constrained. Because the fallback values are the only caller-specific
// part of a proof, core strategies are reusable across callers — the parallel
// search memoizes them keyed by the formula (and, where the samples can
// change the verdict, the sample-store version), and applies FillFallback per
// target.
func ProveCore(pc sym.Expr, samples *sym.SampleStore, opts Options) (*Strategy, Outcome) {
	if f := faults.Active(); f != nil {
		if f.FireProvePanic() {
			panic("faults: injected prover panic")
		}
		if f.FireProveTimeout() {
			return nil, OutcomeTimeout
		}
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 20000
	}
	if opts.MaxNodes > HardMaxNodes {
		opts.MaxNodes = HardMaxNodes
	}
	if opts.Pool == nil {
		opts.Pool = &sym.Pool{}
	}
	o := opts.Obs
	var t0 time.Time
	if o.Enabled() {
		t0 = time.Now()
	}
	p := &prover{samples: samples, opts: opts, budget: opts.MaxNodes}
	if p.expired() { // an already-passed deadline or cancelled ctx: no search
		return nil, OutcomeTimeout
	}
	st := p.search(sym.Conjuncts(pc), nil, 0)
	out := OutcomeUnknown
	switch {
	case st != nil:
		out = OutcomeProved
	case p.timedOut:
		// No refutation attempt: the budget is spent, and OutcomeInvalid
		// must only ever come from a completed refutation.
		out = OutcomeTimeout
	case !opts.NoRefute && Refute(pc, samples, opts):
		out = OutcomeInvalid
	case !opts.NoRefute && p.expired():
		// The refutation ran out of wall clock: that is no verdict on the
		// formula, and callers must not remember it as one.
		out = OutcomeTimeout
	}
	if o.Enabled() {
		o.Histogram("fol.prove.ns").Observe(int64(time.Since(t0)))
		o.Histogram("fol.prove.nodes").Observe(int64(opts.MaxNodes - p.budget))
		o.Counter("fol.prove.calls").Inc()
		o.Counter("fol.prove." + out.String()).Inc()
	}
	return st, out
}

// FillFallback "fixes" every variable of vars the proof left unconstrained at
// its fallback value (or 0), so the strategy resolves to a full input — the
// paper's "fix y" step. vars are the proved formula's variables, distinct
// and in ID order (sym.Vars). The input strategy is not modified; the result
// shares its Proof and core Defs.
func FillFallback(st *Strategy, vars []*sym.Var, fallback map[int]int64) *Strategy {
	out := &Strategy{Defs: make([]Def, len(st.Defs), len(st.Defs)+len(vars)), Proof: st.Proof}
	copy(out.Defs, st.Defs)
vars:
	for _, v := range vars {
		for _, d := range st.Defs {
			if d.Var.ID == v.ID {
				continue vars
			}
		}
		out.Defs = append(out.Defs, Def{Var: v, Term: sym.Int(fallback[v.ID])})
	}
	return out
}

type prover struct {
	samples *sym.SampleStore
	opts    Options
	budget  int
	// polls counts searchT entries for deadline sampling (the clock is read
	// every 64 nodes, not every node); timedOut latches once the deadline or
	// context fires, so the whole backtrack stack unwinds without re-reading
	// the clock.
	polls    int
	timedOut bool
}

// expired reports (and latches) whether the call's deadline has passed or its
// context is done. With neither configured it is always false.
func (p *prover) expired() bool {
	if p.timedOut {
		return true
	}
	if !p.opts.Deadline.IsZero() && !time.Now().Before(p.opts.Deadline) {
		p.timedOut = true
	} else if p.opts.Ctx != nil && p.opts.Ctx.Err() != nil {
		p.timedOut = true
	}
	return p.timedOut
}

// choice is one applicable proof step.
type choice struct {
	// definitional step:
	defVar  *sym.Var
	defTerm *sym.Sum
	dropIdx int // conjunct consumed by the definition
	// euf step:
	eufIdx int
	eufEqs []sym.Expr
	// sample step:
	sampApp *sym.Apply
	sampVal sym.Sample
	kind    int // 0=definitional 1=euf 2=sample 3=disjunct
	disjIdx int
	disj    sym.Expr
}

// tstep is one recorded proof step. Steps are kept symbolic while the search
// runs and rendered to strings only when a branch actually succeeds, keeping
// fmt off the backtracking hot path (failed branches — the vast majority —
// never pay for formatting).
type tstep struct {
	unit bool // unit-propagation step (def), else a choice step (ch)
	def  Def
	ch   choice
}

// String renders the step exactly as the eager trace used to.
func (t tstep) String() string {
	if t.unit {
		return fmt.Sprintf("unit: %s", t.def)
	}
	return t.ch.describe()
}

// search explores proof steps depth-first, returning a strategy or nil.
func (p *prover) search(conjuncts []sym.Expr, defs []Def, depth int) *Strategy {
	return p.searchT(conjuncts, defs, nil, depth)
}

func (p *prover) searchT(conjuncts []sym.Expr, defs []Def, trace []tstep, depth int) *Strategy {
	if !p.enter(len(conjuncts), depth) {
		return nil
	}

	before := len(defs)
	conjuncts, defs, ok := p.simplify(conjuncts, defs)
	if !ok {
		return nil
	}
	for _, d := range defs[before:] {
		trace = append(trace, tstep{unit: true, def: d})
	}

	// Find the first conjunct that still mentions an uninterpreted
	// application or is a disjunction; if none, finish arithmetically.
	target := -1
	for i, c := range conjuncts {
		if _, isOr := c.(*sym.Or); isOr || sym.HasApply(c) {
			target = i
			break
		}
	}
	if target == -1 {
		return p.finish(conjuncts, defs, trace)
	}

	for _, ch := range p.choices(conjuncts, target) {
		if st := p.step(conjuncts, defs, trace, depth, ch); st != nil {
			return st
		}
	}
	// Sample binding: for each application in the conjunct, each recorded
	// sample of its function symbol is a candidate. Most candidates contradict
	// the goal outright; they are refuted without building the child goal but
	// charged the one node the child would have spent failing.
	c, isCmp := conjuncts[target].(*sym.Cmp)
	if !isCmp {
		return nil
	}
	for _, app := range sym.Applies(c) {
		key := app.Key()
		for _, s := range p.samples.ForFunc(app.Fn) {
			if bindingRefuted(conjuncts, app, key, s) {
				p.enter(len(conjuncts)+len(app.Args), depth+1)
				continue
			}
			ch := choice{kind: 2, sampApp: app, sampVal: s, dropIdx: target}
			if st := p.step(conjuncts, defs, trace, depth, ch); st != nil {
				return st
			}
		}
	}
	return nil
}

// enter opens one proof-search node for a goal of width conjuncts at the
// given depth: it fails when a limit is hit (node budget, depth, goal width,
// deadline) and otherwise charges the node against the budget.
func (p *prover) enter(width, depth int) bool {
	if p.budget <= 0 || depth > maxProofDepth {
		return false
	}
	// Defensive width guard (independent of the node budget): EUF and sample
	// steps append equations, so an adversarial goal can grow without ever
	// burning many nodes. Past the hard cap this branch simply fails.
	if width > hardMaxConjuncts {
		return false
	}
	if p.timedOut {
		return false
	}
	p.polls++
	if p.polls&63 == 0 && p.expired() {
		return false
	}
	p.budget--
	return true
}

// step applies one proof step and searches the resulting goal.
func (p *prover) step(conjuncts []sym.Expr, defs []Def, trace []tstep, depth int, ch choice) *Strategy {
	next, ndefs, ok := p.apply(conjuncts, defs, ch)
	if !ok {
		return nil
	}
	return p.searchT(next, ndefs, append(trace[:len(trace):len(trace)], tstep{ch: ch}), depth+1)
}

// bindingRefuted reports, without building anything, that binding app (whose
// canonical key is key) to sample s yields a goal with a constant-false
// conjunct, which simplify rejects on entry. That happens when an argument
// equation relates two unequal constants, or when a comparison conjunct's
// only term is the bound application and its folded value fails the
// comparison. The check is conservative: a false result promises nothing.
func bindingRefuted(conjuncts []sym.Expr, app *sym.Apply, key string, s sym.Sample) bool {
	for i, arg := range app.Args {
		if v, isC := arg.IsConst(); isC && v != s.Args[i] {
			return true
		}
	}
	for _, c := range conjuncts {
		cmp, isCmp := c.(*sym.Cmp)
		if !isCmp || len(cmp.S.Terms) != 1 {
			continue
		}
		t := cmp.S.Terms[0]
		if a, isApp := t.Atom.(*sym.Apply); isApp && (a == app || a.Key() == key) &&
			!cmp.Op.Holds(cmp.S.Const+t.Coef*s.Out) {
			return true
		}
	}
	return false
}

// describe renders one proof step for the derivation trace.
func (ch choice) describe() string {
	switch ch.kind {
	case 0:
		return fmt.Sprintf("definitional: %s := %v", ch.defVar, ch.defTerm)
	case 1:
		return "euf: unify arguments of equal applications"
	case 2:
		return fmt.Sprintf("sample: bind %v via %v", ch.sampApp, ch.sampVal)
	case 3:
		return fmt.Sprintf("disjunct: case %d", ch.disjIdx+1)
	}
	return "?"
}

// simplify applies sample rewriting of ground applications, constant folding,
// and unit propagation (x = c) to a fixpoint.
func (p *prover) simplify(conjuncts []sym.Expr, defs []Def) ([]sym.Expr, []Def, bool) {
	cs := append([]sym.Expr(nil), conjuncts...)
	ds := append([]Def(nil), defs...)
	for {
		changed := false
		// Ground-application rewriting: f(42) → 567 when sampled.
		for i, c := range cs {
			nc := sym.RewriteApplies(c, func(a *sym.Apply) (*sym.Sum, bool) {
				args := make([]int64, len(a.Args))
				for k, arg := range a.Args {
					v, isC := arg.IsConst()
					if !isC {
						return nil, false
					}
					args[k] = v
				}
				if out, ok := p.samples.Lookup(a.Fn, args); ok {
					return sym.Int(out), true
				}
				return nil, false
			})
			// RewriteApplies returns the original pointer when nothing inside
			// was rewritten, so pointer identity is the change test (no key
			// materialization on the fixpoint loop).
			if nc != c {
				cs[i] = nc
				changed = true
			}
		}
		// Constant folding and unit propagation.
		out := cs[:0]
		var unit *Def
		for _, c := range cs {
			switch e := c.(type) {
			case *sym.Bool:
				if !e.V {
					return nil, nil, false
				}
				changed = true
				continue
			case *sym.Cmp:
				if unit == nil && e.Op == sym.OpEq && !sym.HasApply(e.S) {
					if d, ok := solveForVar(e, sym.OpEq); ok {
						if _, isC := d.Term.IsConst(); isC {
							unit = d
							changed = true
							continue
						}
					}
				}
			}
			out = append(out, c)
		}
		cs = out
		if unit != nil {
			ds = append(ds, *unit)
			binding := map[int]*sym.Sum{unit.Var.ID: unit.Term}
			for i, c := range cs {
				cs[i] = sym.SubstVars(c, binding)
			}
		}
		if !changed {
			return cs, ds, true
		}
	}
}

// solveForVar tries to solve the (normalized) constraint S op 0 for some
// variable with coefficient ±1 that does not occur in the remainder,
// returning the definition that satisfies the constraint for every F:
//
//	Eq: x := −R   Ne: x := −R + 1   Le (coef +1): x := −R   Le (coef −1): x := R
//
// where S = c·x + R.
func solveForVar(c *sym.Cmp, op sym.CmpOp) (*Def, bool) {
	for _, t := range c.S.Terms {
		v, isVar := t.Atom.(*sym.Var)
		if !isVar || (t.Coef != 1 && t.Coef != -1) {
			continue
		}
		r := sym.SubSum(c.S, &sym.Sum{Terms: []sym.Term{t}}) // R = S − c·x
		if sym.OccursVar(r, v.ID) {
			continue
		}
		var term *sym.Sum
		switch op {
		case sym.OpEq:
			// c·x + R = 0 → x = −R/c; with c = ±1: x = −c·R.
			term = sym.ScaleSum(-t.Coef, r)
		case sym.OpNe:
			term = sym.AddSum(sym.ScaleSum(-t.Coef, r), sym.Int(1))
		case sym.OpLe:
			// c·x + R ≤ 0: choosing x = −c·R gives S = 0 ≤ 0.
			term = sym.ScaleSum(-t.Coef, r)
		}
		return &Def{Var: v, Term: term}, true
	}
	return nil, false
}

// choices enumerates the disjunct, EUF and definitional steps on conjunct
// target. Sample bindings, which are far more numerous, are enumerated lazily
// by searchT after these.
func (p *prover) choices(conjuncts []sym.Expr, target int) []choice {
	var out []choice
	switch c := conjuncts[target].(type) {
	case *sym.Or:
		for i, d := range c.Xs {
			out = append(out, choice{kind: 3, dropIdx: target, disjIdx: i, disj: d})
		}
		return out
	case *sym.Cmp:
		// EUF functionality: f(s̄) − f(t̄) = 0 follows from s̄ = t̄.
		if c.Op == sym.OpEq && len(c.S.Terms) == 2 && c.S.Const == 0 {
			a0, ok0 := c.S.Terms[0].Atom.(*sym.Apply)
			a1, ok1 := c.S.Terms[1].Atom.(*sym.Apply)
			if ok0 && ok1 && a0.Fn == a1.Fn &&
				c.S.Terms[0].Coef+c.S.Terms[1].Coef == 0 &&
				(c.S.Terms[0].Coef == 1 || c.S.Terms[0].Coef == -1) {
				eqs := make([]sym.Expr, len(a0.Args))
				for i := range a0.Args {
					eqs[i] = sym.Eq(a0.Args[i], a1.Args[i])
				}
				out = append(out, choice{kind: 1, eufIdx: target, eufEqs: eqs})
			}
		}
		// Definitional: solve for a ±1-coefficient variable.
		if d, ok := solveForVar(c, c.Op); ok {
			out = append(out, choice{kind: 0, defVar: d.Var, defTerm: d.Term, dropIdx: target})
		}
	}
	return out
}

// apply executes one proof step, returning the new goal state.
func (p *prover) apply(conjuncts []sym.Expr, defs []Def, ch choice) ([]sym.Expr, []Def, bool) {
	switch ch.kind {
	case 0: // definitional
		// Occurs-check against applications: x must not appear inside the
		// defining term at all (solveForVar checked plain variables; applies
		// in R may still hide x in their arguments).
		if sym.OccursVar(ch.defTerm, ch.defVar.ID) {
			return nil, nil, false
		}
		ndefs := append(append([]Def(nil), defs...), Def{Var: ch.defVar, Term: ch.defTerm})
		binding := map[int]*sym.Sum{ch.defVar.ID: ch.defTerm}
		next := make([]sym.Expr, 0, len(conjuncts)-1)
		for i, c := range conjuncts {
			if i == ch.dropIdx {
				continue
			}
			next = append(next, sym.SubstVars(c, binding))
		}
		return next, ndefs, true

	case 1: // euf
		next := make([]sym.Expr, 0, len(conjuncts)+len(ch.eufEqs))
		for i, c := range conjuncts {
			if i == ch.eufIdx {
				continue
			}
			next = append(next, c)
		}
		next = append(next, ch.eufEqs...)
		return next, defs, true

	case 2: // sample binding
		app, s := ch.sampApp, ch.sampVal
		next := make([]sym.Expr, 0, len(conjuncts)+len(app.Args))
		key := app.Key()
		for _, c := range conjuncts {
			next = append(next, sym.RewriteApplies(c, func(a *sym.Apply) (*sym.Sum, bool) {
				if a.Key() == key {
					return sym.Int(s.Out), true
				}
				return nil, false
			}))
		}
		for i, arg := range app.Args {
			next = append(next, sym.Eq(arg, sym.Int(s.Args[i])))
		}
		return next, defs, true

	case 3: // disjunct selection
		next := make([]sym.Expr, 0, len(conjuncts))
		for i, c := range conjuncts {
			if i == ch.dropIdx {
				continue
			}
			next = append(next, c)
		}
		next = append(next, sym.Conjuncts(ch.disj)...)
		return next, defs, true
	}
	return nil, nil, false
}

// finish solves the residual apply-free conjuncts arithmetically and folds
// the model into the strategy.
func (p *prover) finish(conjuncts []sym.Expr, defs []Def, trace []tstep) *Strategy {
	residual := sym.AndExpr(conjuncts...)
	if residual == sym.False {
		return nil
	}
	// The branch succeeded (or is one residual solve away): now it is worth
	// rendering the symbolic trace into the human-readable proof.
	var proof []string
	if len(trace) > 0 {
		proof = make([]string, 0, len(trace))
		for _, t := range trace {
			proof = append(proof, t.String())
		}
	}
	st := &Strategy{Defs: defs, Proof: proof}
	if residual == sym.True {
		return st
	}
	// The call's VarBounds pass through whole: defined variables were
	// substituted out of every conjunct, so they cannot occur in the
	// residual, and the solver only reads bounds of variables that occur in
	// the formula.
	status, model := smt.Solve(residual, smt.Options{
		Pool: p.opts.Pool, VarBounds: p.opts.VarBounds, Obs: p.opts.Obs,
		Ctx: p.opts.Ctx, Deadline: p.opts.Deadline,
	})
	if status != smt.StatusSat {
		return nil
	}
	for _, v := range sym.Vars(residual) {
		if val, ok := model.Vars[v.ID]; ok {
			st.Defs = append(st.Defs, Def{Var: v, Term: sym.Int(val)})
			st.Proof = append(st.Proof, fmt.Sprintf("residual model: %s := %d", v, val))
		}
	}
	return st
}
