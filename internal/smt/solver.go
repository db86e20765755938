package smt

import (
	"context"
	"fmt"
	"sort"
	"time"

	"hotg/internal/faults"
	"hotg/internal/obs"
	"hotg/internal/sym"
)

// DefaultDomain bounds every integer variable to [-DefaultDomain, DefaultDomain]
// unless the caller supplies tighter bounds. Bounding the domain makes the
// branch-and-bound integer search a decision procedure; all workloads in this
// repository live comfortably inside it.
const DefaultDomain = int64(1) << 31

// Options configures a Solve call.
type Options struct {
	// Pool supplies fresh variables for Ackermann's reduction. Required
	// only when the formula contains uninterpreted applications.
	Pool *sym.Pool
	// VarBounds gives per-variable domains, keyed by sym Var ID.
	VarBounds map[int]Bound
	// MaxConflicts caps the SAT search (0 = default).
	MaxConflicts int
	// MaxNodes caps branch-and-bound nodes per theory check (0 = default).
	MaxNodes int
	// MaxTheoryRounds caps lazy SAT↔theory iterations (0 = default 200).
	MaxTheoryRounds int
	// Obs, when non-nil, collects solver metrics: per-theory solve latency
	// (smt.sat.ns, smt.lia.ns, smt.euf.ns), CNF size, Ackermann expansion
	// counts, and verdict counters. Never affects solver results.
	Obs *obs.Obs
	// Ctx, when non-nil, cancels the solve cooperatively: the SAT loop and
	// the branch-and-bound search poll it and unwind with StatusTimeout.
	Ctx context.Context
	// Deadline, when non-zero, is an absolute wall-clock cutoff for this
	// call; past it the solve unwinds with StatusTimeout. Combined with Ctx
	// when both are set (whichever fires first wins).
	Deadline time.Time
}

// stopProbe builds the cooperative cancellation probe for one solve call, or
// nil when neither a deadline nor a context is configured. The probe latches:
// once it fires it stays fired, so a deep unwind never re-checks the clock.
func (o Options) stopProbe() func() bool {
	if o.Ctx == nil && o.Deadline.IsZero() {
		return nil
	}
	fired := false
	return func() bool {
		if fired {
			return true
		}
		if !o.Deadline.IsZero() && !time.Now().Before(o.Deadline) {
			fired = true
		} else if o.Ctx != nil && o.Ctx.Err() != nil {
			fired = true
		}
		return fired
	}
}

// Model is a satisfying assignment: concrete values for the input variables
// and, when the formula contained uninterpreted applications, witness values
// for each application (keyed by the application's canonical key). Witness
// values show *one* interpretation under which the formula holds — they are
// exactly the "invented function" of Section 4.2 of the paper, which is why
// satisfiability alone is unusable for higher-order test generation.
type Model struct {
	Vars  map[int]int64
	Funcs map[string]int64
	// FuncRows are the witness interpretations in concrete decision-table
	// form: one row per application, with the argument terms *evaluated*
	// under the model (nested applications resolved through their stand-in
	// values). This is the form higher-order test generation reads the
	// invented function off — Funcs keys embed Ackermann stand-in variable
	// IDs for nested applications and cannot be matched against source-level
	// application keys. Rows are sorted by (Fn, Args) for determinism.
	FuncRows []FuncRow
}

// FuncRow is one concrete sample of a model's witness interpretation:
// Fn(Args) = Out under the satisfying assignment.
type FuncRow struct {
	Fn   string
	Args []int64
	Out  int64
}

// Solve decides satisfiability of the quantifier-free formula f over
// T ∪ T_EUF and returns a model when satisfiable. When Options.Obs is set the
// call is accounted in the metrics registry (smt.solve.* and the per-theory
// latency histograms); a nil Obs adds a single branch of overhead.
func Solve(f sym.Expr, opts Options) (Status, *Model) {
	if faults.Active().FireSolveTimeout() {
		return StatusTimeout, nil
	}
	o := opts.Obs
	if !o.Enabled() {
		return solve(f, opts)
	}
	t0 := time.Now()
	st, m := solve(f, opts)
	o.Histogram("smt.solve.ns").Observe(int64(time.Since(t0)))
	o.Counter("smt.solve.calls").Inc()
	o.Counter("smt.solve." + st.String()).Inc()
	return st, m
}

func solve(f sym.Expr, opts Options) (Status, *Model) {
	o := opts.Obs
	// Fast path: purely equational conjunctions are decided by congruence
	// closure directly (euf.go). Only the unsat verdict short-circuits —
	// satisfiable formulas continue to the full pipeline, which constructs
	// the model; this also keeps the two decision procedures cross-checking
	// each other in the property tests.
	if o.Enabled() {
		t0 := time.Now()
		st, ok := SolveEUF(f)
		o.Histogram("smt.euf.ns").Observe(int64(time.Since(t0)))
		if ok && st == StatusUnsat {
			o.Counter("smt.euf.fastpath_unsat").Inc()
			return StatusUnsat, nil
		}
	} else if st, ok := SolveEUF(f); ok && st == StatusUnsat {
		return StatusUnsat, nil
	}

	funcs := map[string]int64{}
	appVars := map[string]*sym.Var{}
	apps := map[string]*sym.Apply{}
	// The pre-reduction variable set: Ackermann's reduction can erase a
	// variable that occurs only inside an application's arguments (f(x)==1
	// becomes v_f==1), but the model must still assign it — the witness rows
	// evaluate those arguments, and a test built from the model pairs the
	// variable's value with the invented function's table.
	origVars := sym.Vars(f)
	if sym.HasApply(f) {
		if opts.Pool == nil {
			panic("smt: formula contains uninterpreted applications but Options.Pool is nil")
		}
		ar := Ackermannize(f, opts.Pool)
		if o.Enabled() {
			o.Counter("smt.ackermann.apps").Add(int64(len(ar.AppVars)))
			o.Counter("smt.ackermann.consistency").Add(int64(len(sym.Conjuncts(ar.Consistency))))
		}
		f = sym.AndExpr(ar.Formula, ar.Consistency)
		appVars = ar.AppVars
		apps = ar.Apps
	}

	stop := opts.stopProbe()
	sat := NewSAT(opts.MaxConflicts)
	sat.SetStop(stop)
	comp := newCompiler(sat)
	top := comp.compile(f)
	if !sat.AddClause(top) {
		return StatusUnsat, nil
	}
	if o.Enabled() {
		o.Histogram("smt.cnf.clauses").Observe(int64(sat.NumClauses()))
		o.Histogram("smt.cnf.vars").Observe(int64(sat.NumVars()))
	}

	// Make sure every free variable of f has a dense index so it receives a
	// model value even if it occurs in no surviving atom, including variables
	// the Ackermann rewrite left only inside recorded application arguments.
	for _, v := range sym.Vars(f) {
		comp.denseVar(v)
	}
	for _, v := range origVars {
		comp.denseVar(v)
	}

	st, model := theoryLoop(sat, comp, opts, stop, sat.AddClause)
	if st != StatusSat {
		return st, nil
	}
	m := &Model{Vars: make(map[int]int64, len(model)), Funcs: funcs}
	for i, v := range comp.varList {
		m.Vars[v.ID] = model[i]
	}
	for key, av := range appVars {
		if val, ok := m.Vars[av.ID]; ok {
			m.Funcs[key] = val
		}
	}
	// Concrete witness rows: the recorded applications are apply-free
	// (nested applications already replaced by stand-ins), so each
	// argument evaluates directly under the full assignment — which
	// still includes the stand-in values at this point.
	for key, a := range apps {
		out, ok := m.Funcs[key]
		if !ok || a == nil {
			continue
		}
		args := make([]int64, len(a.Args))
		for i, arg := range a.Args {
			args[i] = evalSumUnder(arg, m.Vars)
		}
		m.FuncRows = append(m.FuncRows, FuncRow{Fn: a.Fn.Name, Args: args, Out: out})
	}
	sort.Slice(m.FuncRows, func(i, j int) bool {
		a, b := m.FuncRows[i], m.FuncRows[j]
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		for k := range a.Args {
			if k >= len(b.Args) {
				return false
			}
			if a.Args[k] != b.Args[k] {
				return a.Args[k] < b.Args[k]
			}
		}
		return len(a.Args) < len(b.Args)
	})
	for _, av := range appVars {
		delete(m.Vars, av.ID)
	}
	return StatusSat, m
}

// theoryLoop is the lazy SAT↔theory loop over a compiled formula: solve the
// boolean skeleton, check the inequalities its model asserts, and on a
// theory conflict install the negation of a minimized core through block
// (AddClause for a one-shot solve, AddTheoryLemma on the warm solver, so the
// lemma survives pops). On StatusSat it returns the integer model, indexed
// like comp.varList.
func theoryLoop(sat *SAT, comp *compiler, opts Options, stop func() bool, block func(...Lit) bool) (Status, []int64) {
	o := opts.Obs
	maxRounds := opts.MaxTheoryRounds
	if maxRounds <= 0 {
		maxRounds = 200
	}
	nvars := len(comp.varList)
	bounds := make([]Bound, nvars)
	for i, v := range comp.varList {
		if b, ok := opts.VarBounds[v.ID]; ok {
			bounds[i] = clampBound(b)
		} else {
			bounds[i] = Bound{Lo: -DefaultDomain, Hi: DefaultDomain, HasLo: true, HasHi: true}
		}
	}

	for round := 0; round < maxRounds; round++ {
		var tSAT time.Time
		if o.Enabled() {
			tSAT = time.Now()
		}
		satRes := sat.Solve()
		if o.Enabled() {
			o.Histogram("smt.sat.ns").Observe(int64(time.Since(tSAT)))
		}
		switch satRes {
		case SATUnsat:
			return StatusUnsat, nil
		case SATUnknown:
			if stop != nil && stop() {
				return StatusTimeout, nil
			}
			return StatusUnknown, nil
		}
		ineqs, lits := comp.assertedIneqs()
		var tLIA time.Time
		if o.Enabled() {
			tLIA = time.Now()
		}
		model, st := solveLIA(nvars, ineqs, bounds, opts.MaxNodes, stop)
		if o.Enabled() {
			o.Histogram("smt.lia.ns").Observe(int64(time.Since(tLIA)))
		}
		switch st {
		case StatusSat:
			return StatusSat, model
		case StatusUnknown, StatusTimeout:
			return st, nil
		}
		// Theory conflict: shrink to a small core and block it.
		o.Counter("smt.theory_conflicts").Inc()
		core := minimizeCore(nvars, ineqs, bounds, opts.MaxNodes)
		if stop != nil && stop() {
			return StatusTimeout, nil
		}
		clause := make([]Lit, 0, len(core))
		for _, idx := range core {
			clause = append(clause, lits[idx].Flip())
		}
		sat.Reset()
		if !block(clause...) {
			return StatusUnsat, nil
		}
	}
	return StatusUnknown, nil
}

// evalSumUnder evaluates an apply-free linear term under a variable
// assignment (unassigned variables count as 0).
func evalSumUnder(s *sym.Sum, vars map[int]int64) int64 {
	v := s.Const
	for _, t := range s.Terms {
		if a, ok := t.Atom.(*sym.Var); ok {
			v += t.Coef * vars[a.ID]
		}
	}
	return v
}

func clampBound(b Bound) Bound {
	if !b.HasLo {
		b.Lo, b.HasLo = -DefaultDomain, true
	}
	if !b.HasHi {
		b.Hi, b.HasHi = DefaultDomain, true
	}
	return b
}

// minimizeCore shrinks an infeasible inequality set to an irreducible core,
// returning indices into ineqs. It first seeds the core from the simplex's own
// infeasibility certificate — the bounds pinning the failing row — which
// typically narrows dozens of asserted inequalities to a handful before the
// greedy deletion pass runs, so the O(core) verification solves operate on
// tiny subsets instead of the full assertment.
func minimizeCore(nvars int, ineqs []Ineq, bounds []Bound, maxNodes int) []int {
	active := conflictSeed(nvars, ineqs, bounds, maxNodes)
	if active == nil {
		active = make([]int, len(ineqs))
		for i := range active {
			active[i] = i
		}
	}
	for i := 0; i < len(active); {
		trial := make([]Ineq, 0, len(active)-1)
		for j, idx := range active {
			if j == i {
				continue
			}
			trial = append(trial, ineqs[idx])
		}
		if _, st := SolveLIA(nvars, trial, bounds, maxNodes); st == StatusUnsat {
			active = append(active[:i], active[i+1:]...)
		} else {
			i++
		}
	}
	return active
}

// conflictSeed re-runs the infeasible solve with certificate collection and
// returns a sorted, *verified-unsat* subset of ineq indices, or nil when no
// narrowing was achieved (budget exhaustion, or the certificate spans the
// whole set). The verification solve is cheap insurance: the greedy pass in
// minimizeCore assumes its starting set is unsatisfiable, and the blocking
// clause built from the core would be unsound if it were not.
func conflictSeed(nvars int, ineqs []Ineq, bounds []Bound, maxNodes int) []int {
	cert := make(map[int]bool)
	budget := maxNodes
	if budget <= 0 {
		budget = 20000
	}
	extra := make([]Bound, nvars)
	copy(extra, bounds)
	if _, st := bnb(nvars, ineqs, extra, &budget, nil, cert); st != StatusUnsat {
		return nil
	}
	if len(cert) >= len(ineqs) {
		return nil
	}
	seed := make([]int, 0, len(cert))
	for i := range cert {
		seed = append(seed, i)
	}
	sort.Ints(seed)
	trial := make([]Ineq, 0, len(seed))
	for _, i := range seed {
		trial = append(trial, ineqs[i])
	}
	if _, st := SolveLIA(nvars, trial, bounds, maxNodes); st != StatusUnsat {
		return nil
	}
	return seed
}

// CheckModel verifies that the model satisfies the original formula; it is
// used by tests and as an internal sanity check by callers that need
// certainty (e.g. before reporting a generated test input).
func CheckModel(f sym.Expr, m *Model, fnEval func(name string, args []int64) (int64, bool)) (bool, error) {
	env := sym.Env{
		Vars: m.Vars,
		Fn: func(fn *sym.Func, args []int64) (int64, bool) {
			if fnEval != nil {
				if v, ok := fnEval(fn.Name, args); ok {
					return v, ok
				}
			}
			return 0, false
		},
	}
	return sym.EvalBool(f, env)
}

// String renders a model deterministically for diagnostics.
func (m *Model) String() string {
	if m == nil {
		return "<nil model>"
	}
	return fmt.Sprintf("vars=%v funcs=%v", m.Vars, m.Funcs)
}
