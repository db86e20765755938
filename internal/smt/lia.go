package smt

import (
	"math/big"
)

// Status is the outcome of a (sub)solver query.
type Status int

const (
	// StatusUnknown means the search budget was exhausted before a verdict.
	StatusUnknown Status = iota
	// StatusSat means satisfiable; a model is available.
	StatusSat
	// StatusUnsat means unsatisfiable.
	StatusUnsat
	// StatusTimeout means the wall-clock deadline (Options.Deadline) expired
	// or the context (Options.Ctx) was cancelled before a verdict. Like
	// StatusUnknown it is inconclusive, but callers distinguish the two: a
	// timeout is a budget event the search may degrade on, not an intrinsic
	// limit of the solver.
	StatusTimeout
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	case StatusTimeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// Bound is an optional closed interval constraint on one integer variable.
type Bound struct {
	Lo, Hi       int64
	HasLo, HasHi bool
}

// bnbNodes is the branch-and-bound node budget of one theory check.
const bnbNodes = 20000

// SolveLIA decides feasibility of the conjunction of the inequalities over
// integer variables 0..nvars-1 subject to per-variable bounds, using rational
// simplex relaxations refined by branch-and-bound. maxNodes caps the number
// of explored branch nodes (0 means bnbNodes).
func SolveLIA(nvars int, ineqs []Ineq, bounds []Bound, maxNodes int) ([]int64, Status) {
	return solveLIA(nvars, ineqs, bounds, maxNodes, nil)
}

// solveLIA is SolveLIA with a cooperative stop probe: when stop returns true
// the search unwinds and reports StatusTimeout. A nil stop never fires.
func solveLIA(nvars int, ineqs []Ineq, bounds []Bound, maxNodes int, stop func() bool) ([]int64, Status) {
	if maxNodes <= 0 {
		maxNodes = bnbNodes
	}
	budget := maxNodes
	extra := make([]Bound, nvars)
	copy(extra, bounds)
	for len(extra) < nvars {
		extra = append(extra, Bound{})
	}
	return bnb(nvars, ineqs, extra, &budget, stop, nil)
}

// bnb explores the branch-and-bound tree. When cert is non-nil, every unsat
// leaf records which inequalities (by index into ineqs) participated in its
// simplex infeasibility explanation; because the branch cuts x ≤ ⌊v⌋ ∨
// x ≥ ⌊v⌋+1 are tautologies over the integers, the union collected across an
// all-leaves-unsat tree is itself an unsatisfiable subset of ineqs.
func bnb(nvars int, ineqs []Ineq, bounds []Bound, budget *int, stop func() bool, cert map[int]bool) ([]int64, Status) {
	if *budget <= 0 {
		return nil, StatusUnknown
	}
	if stop != nil && stop() {
		return nil, StatusTimeout
	}
	*budget--

	s := newSimplex(nvars)
	for v := 0; v < nvars; v++ {
		b := bounds[v]
		if b.HasLo && !s.assertLower(v, new(big.Rat).SetInt64(b.Lo)) {
			return nil, StatusUnsat // variable-bound clash: no inequality involved
		}
		if b.HasHi && !s.assertUpper(v, new(big.Rat).SetInt64(b.Hi)) {
			return nil, StatusUnsat
		}
	}
	var slackIneq map[int]int // slack var → index into ineqs
	if cert != nil {
		slackIneq = make(map[int]int, len(ineqs))
	}
	for i, q := range ineqs {
		nq, triv := q.Normalize()
		switch triv {
		case 1:
			continue
		case -1:
			if cert != nil {
				cert[i] = true
			}
			return nil, StatusUnsat
		}
		combo := make(map[int]*big.Rat, len(nq.Terms))
		for _, t := range nq.Terms {
			combo[t.Var] = new(big.Rat).SetInt64(t.Coef)
		}
		y := s.defineSlack(combo)
		if cert != nil {
			slackIneq[y] = i
		}
		if !s.assertUpper(y, new(big.Rat).SetInt64(nq.B)) {
			if cert != nil {
				cert[i] = true
			}
			return nil, StatusUnsat
		}
	}
	if !s.check() {
		if cert != nil {
			for _, x := range s.conflict {
				if i, ok := slackIneq[x]; ok {
					cert[i] = true
				}
			}
		}
		return nil, StatusUnsat
	}
	// Find a fractional problem variable.
	frac := -1
	for v := 0; v < nvars; v++ {
		if !s.val[v].IsInt() {
			frac = v
			break
		}
	}
	if frac == -1 {
		model := make([]int64, nvars)
		for v := 0; v < nvars; v++ {
			model[v] = s.val[v].Num().Int64()
		}
		return model, StatusSat
	}
	// Branch: x ≤ ⌊v⌋ then x ≥ ⌊v⌋+1.
	fl := ratFloor(s.val[frac])

	left := make([]Bound, len(bounds))
	copy(left, bounds)
	if !left[frac].HasHi || left[frac].Hi > fl {
		left[frac].Hi, left[frac].HasHi = fl, true
	}
	if m, st := bnb(nvars, ineqs, left, budget, stop, cert); st != StatusUnsat {
		return m, st
	}

	right := make([]Bound, len(bounds))
	copy(right, bounds)
	if !right[frac].HasLo || right[frac].Lo < fl+1 {
		right[frac].Lo, right[frac].HasLo = fl+1, true
	}
	return bnb(nvars, ineqs, right, budget, stop, cert)
}

func ratFloor(r *big.Rat) int64 {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() < 0 && new(big.Int).Rem(r.Num(), r.Denom()).Sign() != 0 {
		q.Sub(q, big.NewInt(1))
	}
	return q.Int64()
}
