// Package smt implements a small Satisfiability-Modulo-Theories solver for
// quantifier-free linear integer arithmetic with uninterpreted functions
// (QF_UFLIA), the theory T ∪ T_EUF used by higher-order test generation.
//
// Architecture (offline lazy SMT):
//
//   - uninterpreted function applications are removed up front by Ackermann's
//     reduction (ackermann.go);
//   - equalities and disequalities are rewritten to conjunctions/disjunctions
//     of weak inequalities Σ cᵢxᵢ ≤ b, the only theory atoms (cnf.go);
//   - the boolean skeleton is Tseitin-encoded and handed to a CDCL SAT solver
//     (this file);
//   - each complete propositional model is checked for arithmetic consistency
//     by a rational simplex with branch-and-bound for integrality (simplex.go,
//     lia.go); inconsistent models yield learned blocking clauses built from a
//     greedily minimized unsatisfiable core (solver.go).
//
// The solver is deliberately simple — path constraints produced by concolic
// execution are small, conjunction-heavy formulas — but it is a complete
// decision procedure on the bounded integer domains used throughout this
// repository.
package smt

// Lit is a propositional literal: variable v with polarity encoded as
// v<<1 (positive) or v<<1|1 (negative). Variables are numbered from 0.
type Lit int

// MkLit builds a literal for variable v; neg selects the negative polarity.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Flip returns the literal with the opposite polarity.
func (l Lit) Flip() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) flip() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

type clause struct {
	lits    []Lit
	learned bool
	theory  bool // theory lemma (globally valid); survives PopTo when its vars do
	act     float64
}

// SAT is a CDCL propositional solver with two-watched-literal propagation,
// first-UIP conflict learning, VSIDS-style branching, and geometric restarts.
// The zero value is an empty solver ready for NewVar/AddClause.
type SAT struct {
	clauses  []*clause
	watches  [][]*clause // literal → watching clauses
	assign   []lbool     // variable → value
	level    []int       // variable → decision level
	reason   []*clause   // variable → antecedent clause
	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	activity []float64
	varInc   float64
	order    []int // lazily re-sorted variable order heap (simple)

	// phase holds the last value each variable was assigned before a
	// backtrack; consulted by branching only when savePhase is set, so the
	// one-shot solve path keeps its historical false-first polarity.
	phase     []lbool
	savePhase bool

	nConflicts   int
	maxConflicts int

	// stop, when non-nil, is polled on every conflict and every decision;
	// when it reports true the search abandons work with SATUnknown. It is
	// how wall-clock deadlines and context cancellation reach the inner
	// CDCL loop (see SetStop).
	stop func() bool

	unsat bool
}

// NewSAT returns an empty SAT solver with the given conflict budget
// (0 means a generous default).
func NewSAT(maxConflicts int) *SAT {
	if maxConflicts <= 0 {
		maxConflicts = 1 << 20
	}
	return &SAT{varInc: 1.0, maxConflicts: maxConflicts}
}

// NewVar introduces a fresh propositional variable and returns its index.
func (s *SAT) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, lUndef)
	s.watches = append(s.watches, nil, nil)
	s.order = append(s.order, v)
	return v
}

// SavePhase toggles phase saving: with it on, branching reuses the last value
// a variable held before a backtrack instead of always trying false first.
// The warm refuter (FirstUnsat) enables it so each case starts from the
// previous case's polarity; the one-shot path leaves it off.
func (s *SAT) SavePhase(on bool) { s.savePhase = on }

// NumVars returns the number of propositional variables.
func (s *SAT) NumVars() int { return len(s.assign) }

// NumClauses returns how many clauses (original and learned) the solver
// currently holds; used by the observability layer as the CNF-size metric.
func (s *SAT) NumClauses() int { return len(s.clauses) }

func (s *SAT) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.Neg() {
		return v.flip()
	}
	return v
}

// AddClause installs a clause. It returns false if the clause makes the
// formula trivially unsatisfiable. Must be called at decision level 0.
func (s *SAT) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	// Simplify: drop false literals, detect satisfied/duplicate.
	seen := make(map[Lit]bool, len(lits))
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		if seen[l] {
			continue
		}
		if seen[l.Flip()] {
			return true // tautology
		}
		seen[l] = true
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.enqueue(out[0], nil)
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *SAT) watch(c *clause) {
	s.watches[c.lits[0].Flip()] = append(s.watches[c.lits[0].Flip()], c)
	s.watches[c.lits[1].Flip()] = append(s.watches[c.lits[1].Flip()], c)
}

func (s *SAT) enqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *SAT) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns a conflicting clause or nil.
func (s *SAT) propagate() *clause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[l]
		s.watches[l] = ws[:0:0] // will re-add survivors
		kept := s.watches[l]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Ensure the false literal is at position 1.
			if c.lits[0] == l.Flip() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Flip()] = append(s.watches[c.lits[1].Flip()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, c)
			if s.value(c.lits[0]) == lFalse {
				// Conflict: re-add remaining watchers and report.
				kept = append(kept, ws[i+1:]...)
				s.watches[l] = kept
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(c.lits[0], c)
		}
		s.watches[l] = kept
	}
	return nil
}

func (s *SAT) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze performs first-UIP conflict analysis. It returns the learned clause
// (asserting literal first) and the backjump level.
func (s *SAT) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // placeholder for the asserting literal
	seen := make([]bool, len(s.assign))
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	c := confl
	for {
		for _, q := range c.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				s.bumpVar(v)
				if s.level[v] == s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next trail literal to resolve on.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Flip()

	// Backjump level = max level among the other literals.
	back := 0
	for i := 1; i < len(learnt); i++ {
		if lv := s.level[learnt[i].Var()]; lv > back {
			back = lv
		}
	}
	// Move one literal of the backjump level to position 1 (watch invariant).
	for i := 1; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] == back {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	return learnt, back
}

func (s *SAT) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		if s.savePhase {
			s.phase[v] = s.assign[v]
		}
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.level[v] = -1
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *SAT) pickBranchVar() int {
	best, bestAct := -1, -1.0
	for v := 0; v < len(s.assign); v++ {
		if s.assign[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// SATResult is the outcome of a propositional search.
type SATResult int

const (
	// SATUnknown means the conflict budget was exhausted.
	SATUnknown SATResult = iota
	// SATSat means a satisfying assignment was found.
	SATSat
	// SATUnsat means the formula is unsatisfiable.
	SATUnsat
)

// SetStop installs a cooperative cancellation probe, polled on every conflict
// and every decision. When it reports true, Solve returns SATUnknown at the
// next poll; the caller decides whether that is a timeout or a budget stop.
func (s *SAT) SetStop(stop func() bool) { s.stop = stop }

// Solve runs the CDCL search. On SATSat the model is available via Value.
func (s *SAT) Solve() SATResult {
	if s.unsat {
		return SATUnsat
	}
	if c := s.propagate(); c != nil {
		s.unsat = true
		return SATUnsat
	}
	for {
		confl := s.propagate()
		if confl != nil {
			s.nConflicts++
			if s.nConflicts > s.maxConflicts {
				return SATUnknown
			}
			if s.stop != nil && s.stop() {
				return SATUnknown
			}
			if s.decisionLevel() == 0 {
				s.unsat = true
				return SATUnsat
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learned: true}
				s.clauses = append(s.clauses, c)
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			continue
		}
		if s.stop != nil && s.stop() {
			return SATUnknown
		}
		v := s.pickBranchVar()
		if v == -1 {
			return SATSat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		neg := true // branch false first: biases toward sparse models
		if s.savePhase && s.phase[v] == lTrue {
			neg = false
		}
		s.enqueue(MkLit(v, neg), nil)
	}
}

// Value returns the model value of variable v after a SATSat result.
func (s *SAT) Value(v int) bool { return s.assign[v] == lTrue }

// Reset clears the search state but keeps accumulated knowledge. Its exact
// post-Reset contract, which the warm refuter and the lazy theory loop
// both depend on (see TestSATResetContract):
//
//   - all clauses survive, original and learned alike;
//   - the trail is unwound to decision level 0: level-0 units (facts) keep
//     their assignments, every other variable returns to unassigned;
//   - VSIDS activity scores and the activity increment survive, so branching
//     order in the next Solve reflects conflicts seen in earlier ones;
//   - saved phases survive (when SavePhase is on) and are refreshed by the
//     unwind itself, so the next Solve re-tries the last polarities;
//   - the conflict counter is NOT reset: the conflict budget spans every
//     Solve since construction (or since ResetSearch, which does reset it);
//   - an unsat verdict is permanent: once the solver derived level-0 unsat,
//     Reset does not clear it (only PopTo can, by removing the clauses that
//     caused it).
func (s *SAT) Reset() {
	s.cancelUntil(0)
}

// ResetSearch is Reset plus a fresh conflict budget. The warm refuter uses it
// between cases so each check gets the full budget, matching what a fresh
// solver would have been given.
func (s *SAT) ResetSearch() {
	s.cancelUntil(0)
	s.nConflicts = 0
}

// SATMark is a snapshot of solver extent, taken at decision level 0, that
// PopTo can later restore. Everything allocated or asserted after the mark is
// removed on pop, with one exception: theory lemmas (AddTheoryLemma) whose
// variables all predate the mark are retained, because they are consequences
// of the theory alone and remain valid in any assertion context.
type SATMark struct {
	NumVars    int
	NumClauses int
	TrailLen   int
	Unsat      bool
}

// Mark snapshots the current solver extent. Must be taken at decision level 0
// (callers unwind with Reset first).
func (s *SAT) Mark() SATMark {
	if s.decisionLevel() != 0 {
		panic("smt: SAT.Mark at non-zero decision level")
	}
	return SATMark{
		NumVars:    len(s.assign),
		NumClauses: len(s.clauses),
		TrailLen:   len(s.trail),
		Unsat:      s.unsat,
	}
}

// PopTo unwinds the solver to a previous Mark: clauses, variables and level-0
// facts added since the mark are dropped; theory lemmas over still-live
// variables are kept (their count is returned). CDCL-learned clauses past the
// mark are dropped too — they may depend on popped clauses or on level-0
// facts that no longer hold. Watches are rebuilt and the propagation queue is
// rewound so the next Solve re-propagates the surviving trail.
func (s *SAT) PopTo(m SATMark) (retained int) {
	s.cancelUntil(0)
	// Filter clauses in place: originals up to the mark stay, and theory
	// lemmas added later stay when every literal predates the mark.
	kept := s.clauses[:m.NumClauses]
	for _, c := range s.clauses[m.NumClauses:] {
		if !c.theory {
			continue
		}
		live := true
		for _, l := range c.lits {
			if l.Var() >= m.NumVars {
				live = false
				break
			}
		}
		if live {
			kept = append(kept, c)
			retained++
		}
	}
	for i := len(kept); i < len(s.clauses); i++ {
		s.clauses[i] = nil
	}
	s.clauses = kept
	// Unassign level-0 facts recorded after the mark.
	for i := len(s.trail) - 1; i >= m.TrailLen; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.level[v] = -1
	}
	s.trail = s.trail[:m.TrailLen]
	// Drop variables allocated after the mark.
	s.assign = s.assign[:m.NumVars]
	s.level = s.level[:m.NumVars]
	s.reason = s.reason[:m.NumVars]
	s.activity = s.activity[:m.NumVars]
	s.phase = s.phase[:m.NumVars]
	s.order = s.order[:m.NumVars]
	s.watches = s.watches[:2*m.NumVars]
	for i := range s.watches {
		s.watches[i] = nil
	}
	s.unsat = m.Unsat
	// Rebuild watches from scratch and replay propagation from the start of
	// the trail so the two-watch invariant is restored for every clause.
	s.qhead = 0
	for _, c := range s.clauses {
		s.rewatch(c)
	}
	return retained
}

// rewatch re-registers a clause after PopTo, selecting non-false watches so
// the two-watched-literal invariant holds under the surviving level-0 facts.
func (s *SAT) rewatch(c *clause) {
	w := 0
	for i := 0; i < len(c.lits) && w < 2; i++ {
		if s.value(c.lits[i]) != lFalse {
			c.lits[w], c.lits[i] = c.lits[i], c.lits[w]
			w++
		}
	}
	if len(c.lits) == 1 {
		switch s.value(c.lits[0]) {
		case lUndef:
			s.enqueue(c.lits[0], nil)
		case lFalse:
			s.unsat = true
		}
		return
	}
	switch w {
	case 0:
		s.unsat = true
		s.watch(c)
	case 1:
		// Exactly one non-false literal (now at position 0): either the
		// clause is already satisfied by a level-0 fact, or that literal is
		// forced. A false co-watch is harmless in both cases — level-0 facts
		// only change via PopTo, which rebuilds watches again.
		s.watch(c)
		if s.value(c.lits[0]) == lUndef {
			s.enqueue(c.lits[0], c)
		}
	default:
		s.watch(c)
	}
}

// AddTheoryLemma installs a clause that is valid in the theory itself (e.g. a
// blocking clause derived from an arithmetic conflict core), tagging it so
// PopTo may retain it across frames. Unlike AddClause it performs no
// simplification against the current level-0 facts: a lemma simplified
// against a fact would become unsound the moment that fact is popped. Must be
// called at decision level 0. Returns false when the lemma is empty or
// immediately contradicts the surviving facts.
func (s *SAT) AddTheoryLemma(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	seen := make(map[Lit]bool, len(lits))
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if seen[l] {
			continue
		}
		if seen[l.Flip()] {
			return true // tautology: valid, nothing to record
		}
		seen[l] = true
		out = append(out, l)
	}
	if len(out) == 0 {
		s.unsat = true
		return false
	}
	c := &clause{lits: out, theory: true}
	s.clauses = append(s.clauses, c)
	s.rewatch(c)
	if s.unsat {
		return false
	}
	if s.propagate() != nil {
		s.unsat = true
		return false
	}
	return true
}
