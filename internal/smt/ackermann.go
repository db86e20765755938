package smt

import (
	"sort"

	"hotg/internal/sym"
)

// AckermannResult is the outcome of Ackermann's reduction: an apply-free
// formula equisatisfiable (over the integers) with the original.
type AckermannResult struct {
	// Formula is the rewritten input with every uninterpreted application
	// replaced by a fresh variable.
	Formula sym.Expr
	// Consistency is the conjunction of functional-consistency side
	// conditions: for every pair of applications f(s̄), f(t̄),
	// s̄ = t̄ ⇒ v_{f(s̄)} = v_{f(t̄)}.
	Consistency sym.Expr
	// AppVars maps the canonical key of each application (with rewritten,
	// apply-free arguments) to its stand-in variable, so a model value for
	// that variable can be read back as a witness interpretation.
	AppVars map[string]*sym.Var
	// Apps records, per key, the rewritten application itself.
	Apps map[string]*sym.Apply
}

// Ackermannize eliminates uninterpreted function applications from e,
// creating fresh stand-in variables from pool. Applications are processed
// innermost-first, so arguments of recorded applications are themselves
// apply-free.
func Ackermannize(e sym.Expr, pool *sym.Pool) *AckermannResult {
	res := &AckermannResult{
		AppVars: make(map[string]*sym.Var),
		Apps:    make(map[string]*sym.Apply),
	}
	repl := func(a *sym.Apply) (*sym.Sum, bool) {
		// Arguments have already been rewritten bottom-up by
		// RewriteApplies, but they may still mention stand-in variables —
		// which is exactly what we want (f(g(x)) becomes f(v_g) with
		// v_g standing for g(x)).
		key := a.Key()
		if v, ok := res.AppVars[key]; ok {
			return sym.VarTerm(v), true
		}
		v := pool.NewVar("$" + a.Fn.Name)
		res.AppVars[key] = v
		res.Apps[key] = a
		return sym.VarTerm(v), true
	}
	res.Formula = sym.RewriteApplies(e, repl)

	// Functional consistency for every same-symbol pair.
	keys := make([]string, 0, len(res.Apps))
	for k := range res.Apps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var side []sym.Expr
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			a, b := res.Apps[keys[i]], res.Apps[keys[j]]
			if a.Fn != b.Fn {
				continue
			}
			eqArgs := make([]sym.Expr, len(a.Args))
			for k := range a.Args {
				// The recorded args may themselves contain nested
				// applies replaced by stand-ins; rewrite once more so the
				// side condition is apply-free.
				la := sym.RewriteAppliesSum(a.Args[k], func(x *sym.Apply) (*sym.Sum, bool) {
					if v, ok := res.AppVars[x.Key()]; ok {
						return sym.VarTerm(v), true
					}
					return nil, false
				})
				lb := sym.RewriteAppliesSum(b.Args[k], func(x *sym.Apply) (*sym.Sum, bool) {
					if v, ok := res.AppVars[x.Key()]; ok {
						return sym.VarTerm(v), true
					}
					return nil, false
				})
				eqArgs[k] = sym.Eq(la, lb)
			}
			side = append(side, sym.Implies(
				sym.AndExpr(eqArgs...),
				sym.Eq(sym.VarTerm(res.AppVars[keys[i]]), sym.VarTerm(res.AppVars[keys[j]])),
			))
		}
	}
	res.Consistency = sym.AndExpr(side...)
	return res
}
