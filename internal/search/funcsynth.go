package search

// This file is the witness-constructor path for higher-order inputs: targets
// whose alternate path constraint mentions a function-valued input (a
// callback parameter of main) are not just solved for scalar values — the
// search *constructs* the function. Each generated test carries a concrete
// finite decision table (mini.FuncValue) per callback parameter, built from
// one of two tiers:
//
//   Tier 1 (validity proof, RungProof): ProveCore over the engine's sample
//   store overlaid with this run's callback samples. A proved strategy may
//   probe callback applications whose samples were never observed; unlike
//   environment unknowns, those probes need no intermediate execution — the
//   parent run's function inputs ARE the ground truth, so the coordinator
//   answers them by evaluating the parent's decision tables directly. The
//   child test inherits the parent's function inputs unchanged.
//
//   Tier 2 (satisfiability, RungQF): smt.Solve of the alternate constraint
//   treats each callback application as a free uninterpreted point, and the
//   model's Ackermann assignments become rows of a *new* decision table: the
//   function itself is invented to drive the program down the flipped branch.
//   Tier 2 runs even when tier 1 returned invalid — "invalid under the
//   observed samples" only rules out the parent's function, not every
//   function, and the function is part of the input.
//
// Callback targets never touch the proof cache: their verdicts depend on the
// parent execution's private callback samples, which are not part of the
// versioned shared store, so a cache entry would leak one test's function
// into another's proof. They come last in the expansion's discharge sequence
// and run one at a time on the coordinator, in constraint order: tier 1
// writes its probe answers into one overlay per expansion that later targets
// read, and the per-target work is small. The canonical trajectory is
// therefore identical at every worker count.

import (
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hotg/internal/concolic"
	"hotg/internal/fol"
	"hotg/internal/mini"
	"hotg/internal/sym"
)

// probeRounds bounds the tier-1 probe-answering loop. Each round answers at
// least one callback probe from the parent's tables or exits, and a strategy
// only probes applications its own definitions mention, so the bound is never
// reached in practice; it guards against a resolution cycle.
const probeRounds = 64

// dischargeCallbacks discharges an expansion's callback targets: for each,
// try the validity-proof tier, then fall back to function synthesis. fb is
// the parent input by variable ID.
func (s *searcher) dischargeCallbacks(targets []*target, ex *concolic.Execution, fb map[int]int64, hot bool) {
	// The proof store: shared cross-run samples plus this run's callback
	// observations. Callback symbols never enter the shared store (their
	// ground truth changes per test), so the overlay cannot conflict.
	store := sym.NewOverlay(s.eng.Samples)
	if ex.CallbackSamples != nil {
		for _, smp := range ex.CallbackSamples.All() {
			store.Add(smp.Fn, smp.Args, smp.Out)
		}
	}
	for _, t := range targets {
		t0 := time.Now()
		t.worker, t.start = 0, t0
		s.stats.CallbackTargets++
		tier := "proof"
		if !s.callbackProve(t, ex, store, fb, hot) {
			tier = "synth"
			s.callbackSynthesize(t, ex, hot)
		}
		t.dur = time.Since(t0)
		t.done = true
		atomic.AddInt64(&s.solveNanos, int64(t.dur))
		s.stats.ProofsPerWorker[0]++
		if s.tracing() {
			s.taskEvent("callback", 0, t0, t.dur,
				map[string]int64{"k": int64(t.k), "formula_size": int64(len(t.alt.key))},
				map[string]string{"tier": tier, "verdict": t.outcome.String(), "status": t.status.String()})
		}
	}
}

// callbackProve is tier 1: a validity proof whose missing callback samples
// are answered from the parent's own function inputs. It reports whether a
// test was enqueued; false routes the target to tier 2.
func (s *searcher) callbackProve(t *target, ex *concolic.Execution, store *sym.SampleStore, fb map[int]int64, hot bool) bool {
	s.prove(t, store)
	if !s.countVerdict(t) {
		return false
	}
	st := fol.FillFallback(t.strategy, t.alt.vars, fb)
	var res *fol.Resolution
	for round := 0; round < probeRounds; round++ {
		res = st.Resolve(store)
		if res.Complete {
			break
		}
		answered := false
		for _, p := range res.Probes {
			if !p.Fn.Input {
				continue
			}
			// The probe asks for a sample of the parent's own function input:
			// its table is the ground truth, no intermediate run needed.
			if idx := s.callbackIndex(p.Fn); idx >= 0 {
				var fv *mini.FuncValue
				if idx < len(ex.Funcs) {
					fv = ex.Funcs[idx]
				}
				store.Add(p.Fn, p.Args, fv.Eval(p.Args))
				answered = true
			}
		}
		if !answered {
			// Only environment-unknown probes remain; completing them needs
			// intermediate executions. Fall back to synthesis rather than
			// spending runs — the function is an input we can construct.
			return false
		}
	}
	if !res.Complete {
		return false
	}
	input, ok := s.testFrom(res.Values, ex.Input, t.alt.expr, store)
	if !ok {
		return false
	}
	s.enqueueTest(input, ex.Funcs, ex.Prediction(t.k), t.k+1, hot, RungProof)
	return true
}

// callbackSynthesize is tier 2: solve the alternate constraint with every
// callback application free, then read the invented function off the model.
// Each callback symbol mentioned in the formula gets a fresh decision table
// whose rows are the model's Ackermann assignments (default 0); unmentioned
// parameters inherit the parent's function unchanged, keeping the rest of the
// replayed path stable.
func (s *searcher) callbackSynthesize(t *target, ex *concolic.Execution, hot bool) {
	t.status, t.model = s.solve(t.alt.expr)
	if !s.countSolve(t) {
		return
	}
	input := s.inputFrom(t.model.Vars, ex.Input)
	if !s.inBounds(input) {
		return
	}
	applies := sym.Applies(t.alt.expr)
	shape := s.eng.FuncShape()
	funcs := make([]*mini.FuncValue, len(shape))
	for i := range shape {
		if i < len(ex.Funcs) {
			funcs[i] = ex.Funcs[i]
		}
	}
	for i, fn := range s.eng.CallbackFns {
		if !mentions(applies, fn) {
			continue
		}
		fv := &mini.FuncValue{Arity: fn.Arity}
		seen := map[string]bool{}
		for _, row := range t.model.FuncRows {
			if row.Fn != fn.Name || len(row.Args) != fn.Arity {
				continue
			}
			// Functional consistency in the model means two applications with
			// equal evaluated arguments carry equal outputs, so keeping the
			// first row of a duplicate tuple loses nothing; the dedup guards
			// Canon against panicking if that invariant ever slipped.
			k := concreteArgsKey(row.Args)
			if seen[k] {
				continue
			}
			seen[k] = true
			fv.Rows = append(fv.Rows, mini.FuncRow{Args: row.Args, Out: row.Out})
		}
		funcs[i] = fv.Canon()
		s.stats.FuncsSynthesized++
	}
	s.enqueueTest(input, funcs, ex.Prediction(t.k), t.k+1, hot, RungQF)
}

// callbackIndex maps a callback symbol to its function-parameter index, or -1
// for symbols that are not function-valued inputs of this engine.
func (s *searcher) callbackIndex(fn *sym.Func) int {
	for i, f := range s.eng.CallbackFns {
		if f == fn {
			return i
		}
	}
	return -1
}

// mentions reports whether any application in the list is of fn.
func mentions(applies []*sym.Apply, fn *sym.Func) bool {
	for _, a := range applies {
		if a.Fn == fn {
			return true
		}
	}
	return false
}

// concreteArgsKey renders an evaluated argument tuple for row deduplication.
func concreteArgsKey(args []int64) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = strconv.FormatInt(a, 10)
	}
	return strings.Join(parts, ",")
}
