package search

import (
	"time"

	"hotg/internal/smt"
	"hotg/internal/sym"
)

// Budget sets the per-proof wall-clock ceiling and enables graceful
// degradation. The zero value reproduces the unbudgeted behavior exactly:
// unlimited wall clock, every target discharged at the engine's top rung.
//
// A proof or satisfiability check runs until the earlier of its own
// ProofTimeout and the deadline of Options.Ctx, the one way to bound the
// whole search. See DESIGN.md §8 for the full semantics and the determinism
// caveats that come with wall-clock limits.
type Budget struct {
	// ProofTimeout is the wall-clock deadline applied to each individual
	// validity proof or satisfiability check (0 = none). A proof cut off by
	// it reports a timeout, which Degrade can turn into a lower-rung retry.
	ProofTimeout time.Duration
	// Degrade retries targets whose higher-order validity proof timed out
	// (or was otherwise cut short) down the paper's precision ladder:
	// quantifier-free solving first, plain concretization last. Each
	// generated test records the rung that produced it (Stats.Budget).
	// Only meaningful in higher-order mode; the lower modes already operate
	// at the lower rungs.
	Degrade bool
}

// Active reports whether a proof ceiling or the degradation ladder is
// configured; an inactive Budget leaves the search bit-identical to an
// unbudgeted one.
func (b Budget) Active() bool {
	return b.ProofTimeout > 0 || b.Degrade
}

// Rung identifies the precision ladder rung that produced a test, mirroring
// the options of Section 5 of the paper in decreasing reasoning power.
type Rung int

const (
	// RungProof is the top rung — option (3): a constructive validity proof
	// of POST(pc) with uninterpreted functions. Sound and precise.
	RungProof Rung = iota
	// RungQF is the middle rung — option (2): sound-but-weak quantifier-free
	// reasoning. ALT(pc) is checked for satisfiability and the model is
	// accepted only if it holds under the real interpretation of the unknown
	// functions (an invented-function model is rejected, cf. §4.2).
	RungQF
	// RungConcretize is the bottom rung — option (1): unsound concretization.
	// Every uninterpreted application in ALT(pc) is replaced by its concrete
	// value under the parent input, DART-style; the residual formula is pure
	// arithmetic. Tests from this rung may diverge.
	RungConcretize
	// NumRungs is the number of ladder rungs.
	NumRungs
)

func (r Rung) String() string {
	switch r {
	case RungProof:
		return "proof"
	case RungQF:
		return "qf"
	case RungConcretize:
		return "concretize"
	default:
		return "rung?"
	}
}

// proofDeadline returns the absolute cutoff for one proof or satisfiability
// check started now: the earlier of now+ProofTimeout and the search
// context's deadline. Zero means unlimited.
func (s *searcher) proofDeadline() time.Time {
	if s.opts.Budget.ProofTimeout <= 0 {
		return s.deadline
	}
	d := time.Now().Add(s.opts.Budget.ProofTimeout)
	if !s.deadline.IsZero() && s.deadline.Before(d) {
		return s.deadline
	}
	return d
}

// degradeTarget walks one target down the ladder after its validity proof
// was cut short and returns the last rung it tried with that rung's verdict.
// fb is the parent input by variable ID. Both rungs solve through the solve
// cache (solveCached); only the acceptance of a rung-2 model reads fb.
//
// Rung 2 (quantifier-free): decide satisfiability of ALT(pc) directly. An
// unsat verdict is decisive — no interpretation of the unknown functions
// admits the path — so the walk stops without a test. A sat model is accepted
// only if the formula actually holds under the ground-truth interpretation of
// the unknown functions; otherwise the model "invented" a function (§4.2) and
// the target falls through.
//
// Rung 1 (concretization): substitute every uninterpreted application by its
// concrete value under the parent input and solve the residual arithmetic.
// This mirrors DART's unsound concretization; a resulting test may diverge.
func (s *searcher) degradeTarget(alt *altFormula, fb map[int]int64) (Rung, smt.Status, *smt.Model) {
	status, model := s.solveCached(alt.key, alt.expr)
	if status == smt.StatusUnsat || status == smt.StatusSat && s.qfModelSound(alt.expr, fb, model) {
		return RungQF, status, model
	}
	conc := s.concretizeAlt(alt.expr, fb)
	status, model = s.solveCached(conc.Key(), conc)
	return RungConcretize, status, model
}

// qfModelSound checks a rung-2 model against the ground truth: the formula
// must hold when its variables take the model's values and every
// uninterpreted application is evaluated by the real native function. This is
// what makes the middle rung "sound but weak" (option (2)): models that
// invent a function interpretation are rejected rather than executed.
func (s *searcher) qfModelSound(alt sym.Expr, fb map[int]int64, model *smt.Model) bool {
	values := make(map[int]int64, len(fb)+len(model.Vars))
	for id, v := range fb {
		values[id] = v
	}
	for id, v := range model.Vars {
		values[id] = v
	}
	ok, err := sym.EvalBool(alt, sym.Env{
		Vars: values,
		Fn: func(f *sym.Func, args []int64) (int64, bool) {
			return s.eng.NativeEval(f.Name, args)
		},
	})
	return err == nil && ok
}

// concretizeAlt substitutes every uninterpreted application in alt by its
// concrete value under the parent input fb — preferring a recorded sample
// (exact by construction), falling back to evaluating the native function on
// the arguments' concrete values. Applications whose value cannot be
// determined (e.g. division faults) are left in place; the solver then treats
// them via Ackermann's reduction as usual. Rewriting is innermost-first, so
// outer applications see their arguments already concretized.
func (s *searcher) concretizeAlt(alt sym.Expr, fb map[int]int64) sym.Expr {
	return sym.RewriteApplies(alt, func(a *sym.Apply) (*sym.Sum, bool) {
		args := make([]int64, len(a.Args))
		for i, arg := range a.Args {
			v, ok := evalSumUnder(arg, fb)
			if !ok {
				return nil, false
			}
			args[i] = v
		}
		if out, ok := s.eng.Samples.Lookup(a.Fn, args); ok {
			return sym.Int(out), true
		}
		if out, ok := s.eng.NativeEval(a.Fn.Name, args); ok {
			return sym.Int(out), true
		}
		return nil, false
	})
}

// evalSumUnder evaluates a linear term under concrete variable values,
// failing on any atom that is not a valued variable (residual applications are the
// callers' problem — RewriteApplies visits them innermost-first, so a failed
// inner rewrite surfaces here as a non-variable atom).
func evalSumUnder(sum *sym.Sum, values map[int]int64) (int64, bool) {
	total := sum.Const
	for _, t := range sum.Terms {
		v, isVar := t.Atom.(*sym.Var)
		if !isVar {
			return 0, false
		}
		val, ok := values[v.ID]
		if !ok {
			return 0, false
		}
		total += t.Coef * val
	}
	return total, true
}
