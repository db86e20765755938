package smt

import (
	"time"

	"hotg/internal/faults"
	"hotg/internal/sym"
)

// FirstUnsat decides base ∧ cases[i] for each case in order and returns the
// index of the first conjunction found unsatisfiable, or -1 when none is. It
// answers status only: a case that is satisfiable, undecided or out of budget
// does not count, and no model is built.
//
// The base is compiled once into one warm SAT solver and CNF compiler. Each
// case is compiled above a mark, decided by the lazy SAT↔theory loop, and
// popped. What survives the pop is what makes the later cases cheap: the
// base's clauses, VSIDS activity, saved phases, and every theory lemma whose
// literals all predate the mark. Such a lemma is a consequence of the theory
// and VarBounds alone, so it stays valid under any case.
//
// A formula with uninterpreted applications cannot be compiled: a base with
// one sends every case, and a case with one sends that case, to a one-shot
// Solve of base ∧ case. Options apply to every check, and each check gets the
// full conflict budget.
func FirstUnsat(base sym.Expr, cases []sym.Expr, opts Options) int {
	var sat *SAT
	var comp *compiler
	warm := !sym.HasApply(base)
	if warm {
		sat = NewSAT(0)
		sat.SavePhase(true)
		comp = newCompiler(sat)
		comp.journal = true
		// The constant-true literal goes below every mark, so a pop never
		// takes it from under a memoized *sym.Bool.
		comp.constLit(true)
		for _, c := range sym.Conjuncts(base) {
			sat.AddClause(comp.compile(c))
		}
	}
	for i, c := range cases {
		var st Status
		if warm && !sym.HasApply(c) {
			st = checkWarm(sat, comp, c, opts)
		} else {
			st, _ = Solve(sym.AndExpr(base, c), opts)
		}
		if st == StatusUnsat {
			return i
		}
	}
	return -1
}

// checkWarm decides the compiled base ∧ c on the warm solver and pops c
// again. It is accounted like a one-shot Solve (smt.solve.*).
func checkWarm(sat *SAT, comp *compiler, c sym.Expr, opts Options) Status {
	if faults.Active().FireSolveTimeout() {
		return StatusTimeout
	}
	o := opts.Obs
	var t0 time.Time
	if o.Enabled() {
		t0 = time.Now()
	}
	// A fresh mark per case: retained lemmas and the level-0 facts they
	// imply then sit below it, exactly as if the base had asserted them.
	sat.Reset()
	m, cm := sat.Mark(), comp.mark()
	for _, x := range sym.Conjuncts(c) {
		sat.AddClause(comp.compile(x))
	}
	stop := opts.stopProbe()
	sat.SetStop(stop)
	sat.ResetSearch()
	st, _ := theoryLoop(sat, comp, opts, stop, sat.AddTheoryLemma)
	sat.PopTo(m)
	comp.popTo(cm)
	if o.Enabled() {
		o.Histogram("smt.solve.ns").Observe(int64(time.Since(t0)))
		o.Counter("smt.solve.calls").Inc()
		o.Counter("smt.solve." + st.String()).Inc()
	}
	return st
}
