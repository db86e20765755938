package fol

import (
	"time"

	"hotg/internal/smt"
	"hotg/internal/sym"
)

// Refute tries to prove POST(pc) = ∃X: A ⇒ pc *invalid* by exhibiting one
// interpretation of the unknown functions — consistent with every recorded
// sample — under which pc is unsatisfiable. It returns true when such a
// completion is found.
//
// Each candidate interpretation agrees with the IOF store on sampled points
// and falls back to a simple default elsewhere: the constant functions 0 and
// 1, the first-argument projection, its successor, and its negated successor.
// These are exactly the counter-interpretations the paper reaches for
// ("consider the function h such that h(x)=0 for all x", Example 4; a
// successor-style h refutes Example 3's x = h(y) ∧ y = h(x)). A pc without
// applications needs no completion and is one Solve; otherwise the five
// completions are decided in order on one warm solver (smt.FirstUnsat).
func Refute(pc sym.Expr, samples *sym.SampleStore, opts Options) bool {
	o := opts.Obs
	var t0 time.Time
	if o.Enabled() {
		t0 = time.Now()
		defer func() {
			o.Histogram("fol.refute.ns").Observe(int64(time.Since(t0)))
			o.Counter("fol.refute.calls").Inc()
		}()
	}
	if !sym.HasApply(pc) {
		st, _ := smt.Solve(pc, smt.Options{
			Pool: opts.Pool, VarBounds: opts.VarBounds, Obs: opts.Obs,
			Ctx: opts.Ctx, Deadline: opts.Deadline,
		})
		return st == smt.StatusUnsat
	}
	pool := opts.Pool
	if pool == nil {
		pool = &sym.Pool{}
	}
	base, cases := completions(pc, samples, pool)
	return smt.FirstUnsat(base, cases, smt.Options{
		Pool: pool, VarBounds: opts.VarBounds, Obs: opts.Obs,
		Ctx: opts.Ctx, Deadline: opts.Deadline,
	}) >= 0
}

// completions factors the candidate interpretations of pc's unknown
// functions into one base and one case per default, for smt.FirstUnsat.
// Every application is replaced by a fresh stand-in v, and the base carries
// its case split over the recorded samples; that split is the same for every
// default. Only the value on unsampled points differs per candidate, so the
// else-branch binds v to a fresh variable ev ("the default's value here"),
// and each case asserts ev = default(args). Substituting default(args) for ev
// maps models in either direction, since ev is fresh and occurs nowhere
// else, so base ∧ case is equisatisfiable with pc under that completion. The
// shared base is what the warm solver pays off on: theory lemmas minimized
// out of one candidate's conflicts mention only base literals and prune every
// later candidate's search.
func completions(pc sym.Expr, samples *sym.SampleStore, pool *sym.Pool) (sym.Expr, []sym.Expr) {
	type appElse struct {
		ev   *sym.Var
		args []*sym.Sum
	}
	var side []sym.Expr
	var elses []appElse
	seen := map[string]*sym.Var{}
	replaced := sym.RewriteApplies(pc, func(a *sym.Apply) (*sym.Sum, bool) {
		key := a.Key()
		if v, ok := seen[key]; ok {
			return sym.VarTerm(v), true
		}
		v := pool.NewVar("$" + a.Fn.Name)
		seen[key] = v
		ev := pool.NewVar("$else_" + a.Fn.Name)

		smps := samples.ForFunc(a.Fn)
		var cases []sym.Expr
		var notSampled []sym.Expr
		for _, s := range smps {
			match := make([]sym.Expr, len(a.Args))
			for i := range a.Args {
				match[i] = sym.Eq(a.Args[i], sym.Int(s.Args[i]))
			}
			cases = append(cases, sym.AndExpr(append(match, sym.Eq(sym.VarTerm(v), sym.Int(s.Out)))...))
			notSampled = append(notSampled, sym.NotExpr(sym.AndExpr(match...)))
		}
		elseCase := sym.AndExpr(append(notSampled, sym.Eq(sym.VarTerm(v), sym.VarTerm(ev)))...)
		side = append(side, sym.OrExpr(append(cases, elseCase)...))
		elses = append(elses, appElse{ev: ev, args: a.Args})
		return sym.VarTerm(v), true
	})
	cases := make([]sym.Expr, len(defaults))
	for i, def := range defaults {
		eqs := make([]sym.Expr, len(elses))
		for j, ae := range elses {
			eqs[j] = sym.Eq(sym.VarTerm(ae.ev), def(ae.args))
		}
		cases[i] = sym.AndExpr(eqs...)
	}
	return sym.AndExpr(append(side, replaced)...), cases
}

// defaults are the candidate values of an unknown function off its samples,
// in the order Refute tries them.
var defaults = []func(args []*sym.Sum) *sym.Sum{
	func([]*sym.Sum) *sym.Sum { return sym.Int(0) },
	func([]*sym.Sum) *sym.Sum { return sym.Int(1) },
	func(a []*sym.Sum) *sym.Sum { return a[0] },
	func(a []*sym.Sum) *sym.Sum { return sym.AddSum(a[0], sym.Int(1)) },
	func(a []*sym.Sum) *sym.Sum { return sym.SubSum(sym.Int(-1), a[0]) },
}
