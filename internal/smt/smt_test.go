package smt

import (
	"math/rand"
	"testing"

	"hotg/internal/sym"
)

func TestSATBasics(t *testing.T) {
	s := NewSAT(0)
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a ∨ b
	s.AddClause(MkLit(a, true))                   // ¬a
	if s.Solve() != SATSat {
		t.Fatal("expected SAT")
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("model a=%v b=%v", s.Value(a), s.Value(b))
	}
}

func TestSATUnsat(t *testing.T) {
	s := NewSAT(0)
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if !s.AddClause(MkLit(a, true)) {
		return // detected at add time
	}
	if s.Solve() != SATUnsat {
		t.Fatal("expected UNSAT")
	}
}

// TestSATPigeonhole checks a nontrivial UNSAT instance that requires real
// conflict-driven search: 4 pigeons in 3 holes.
func TestSATPigeonhole(t *testing.T) {
	const P, H = 4, 3
	s := NewSAT(0)
	v := make([][]int, P)
	for p := 0; p < P; p++ {
		v[p] = make([]int, H)
		for h := 0; h < H; h++ {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < P; p++ {
		lits := make([]Lit, H)
		for h := 0; h < H; h++ {
			lits[h] = MkLit(v[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(MkLit(v[p1][h], true), MkLit(v[p2][h], true))
			}
		}
	}
	if s.Solve() != SATUnsat {
		t.Fatal("pigeonhole should be UNSAT")
	}
}

// TestSATRandom3CNF cross-checks CDCL against brute force on random 3-CNF.
func TestSATRandom3CNF(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 3 + r.Intn(6) // 3..8 vars
		m := 2 + r.Intn(4*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(r.Intn(n), r.Intn(2) == 0)
			}
			clauses[i] = cl
		}
		// Brute force.
		bruteSat := false
		for mask := 0; mask < 1<<n && !bruteSat; mask++ {
			ok := true
			for _, cl := range clauses {
				cok := false
				for _, l := range cl {
					val := mask>>(l.Var())&1 == 1
					if l.Neg() {
						val = !val
					}
					if val {
						cok = true
						break
					}
				}
				if !cok {
					ok = false
					break
				}
			}
			if ok {
				bruteSat = true
			}
		}
		s := NewSAT(0)
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		addOK := true
		for _, cl := range clauses {
			if !s.AddClause(cl...) {
				addOK = false
				break
			}
		}
		var got SATResult
		if !addOK {
			got = SATUnsat
		} else {
			got = s.Solve()
		}
		want := SATUnsat
		if bruteSat {
			want = SATSat
		}
		if got != want {
			t.Fatalf("iter %d: CDCL=%v brute=%v (n=%d m=%d)", iter, got, want, n, m)
		}
		if got == SATSat {
			for _, cl := range clauses {
				cok := false
				for _, l := range cl {
					val := s.Value(l.Var())
					if l.Neg() {
						val = !val
					}
					if val {
						cok = true
					}
				}
				if !cok {
					t.Fatalf("iter %d: model violates clause", iter)
				}
			}
		}
	}
}

func TestLIASimple(t *testing.T) {
	// x + y ≤ 3, -x ≤ 0, -y ≤ 0, -x-y ≤ -3  (i.e. x+y=3, x,y ≥ 0)
	ineqs := []Ineq{
		{Terms: []IVTerm{{0, 1}, {1, 1}}, B: 3},
		{Terms: []IVTerm{{0, -1}}, B: 0},
		{Terms: []IVTerm{{1, -1}}, B: 0},
		{Terms: []IVTerm{{0, -1}, {1, -1}}, B: -3},
	}
	m, st := SolveLIA(2, ineqs, nil, 0)
	if st != StatusSat {
		t.Fatalf("status %v", st)
	}
	if m[0]+m[1] != 3 || m[0] < 0 || m[1] < 0 {
		t.Fatalf("model %v", m)
	}
}

func TestLIAInfeasible(t *testing.T) {
	// x ≤ 0 ∧ -x ≤ -1  (x ≥ 1): empty.
	ineqs := []Ineq{
		{Terms: []IVTerm{{0, 1}}, B: 0},
		{Terms: []IVTerm{{0, -1}}, B: -1},
	}
	if _, st := SolveLIA(1, ineqs, nil, 0); st != StatusUnsat {
		t.Fatalf("status %v", st)
	}
}

func TestLIAIntegrality(t *testing.T) {
	// 2x = 1 has a rational solution but no integer one: 2x ≤ 1 ∧ -2x ≤ -1.
	ineqs := []Ineq{
		{Terms: []IVTerm{{0, 2}}, B: 1},
		{Terms: []IVTerm{{0, -2}}, B: -1},
	}
	if _, st := SolveLIA(1, ineqs, nil, 0); st != StatusUnsat {
		t.Fatalf("2x=1 over ints should be unsat, got %v", st)
	}
	// 3x - 3y = 1 likewise (gcd argument), needs normalization or branching.
	ineqs = []Ineq{
		{Terms: []IVTerm{{0, 3}, {1, -3}}, B: 1},
		{Terms: []IVTerm{{0, -3}, {1, 3}}, B: -1},
	}
	bounds := []Bound{{Lo: -10, Hi: 10, HasLo: true, HasHi: true}, {Lo: -10, Hi: 10, HasLo: true, HasHi: true}}
	if _, st := SolveLIA(2, ineqs, bounds, 0); st != StatusUnsat {
		t.Fatalf("3x-3y=1 over ints should be unsat, got %v", st)
	}
}

func TestSolveConjunction(t *testing.T) {
	var p sym.Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	f := sym.AndExpr(
		sym.Eq(sym.AddSum(sym.VarTerm(x), sym.VarTerm(y)), sym.Int(10)),
		sym.Lt(sym.VarTerm(x), sym.VarTerm(y)),
		sym.Ge(sym.VarTerm(x), sym.Int(0)),
	)
	st, m := Solve(f, Options{})
	if st != StatusSat {
		t.Fatalf("status %v", st)
	}
	ok, err := CheckModel(f, m, nil)
	if err != nil || !ok {
		t.Fatalf("model check: %v %v (%v)", ok, err, m)
	}
}

func TestSolveDisjunctionAndNegation(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	// (x = 3 ∨ x = 7) ∧ x ≠ 3  →  x = 7.
	f := sym.AndExpr(
		sym.OrExpr(sym.Eq(sym.VarTerm(x), sym.Int(3)), sym.Eq(sym.VarTerm(x), sym.Int(7))),
		sym.Ne(sym.VarTerm(x), sym.Int(3)),
	)
	st, m := Solve(f, Options{})
	if st != StatusSat {
		t.Fatalf("status %v", st)
	}
	if m.Vars[x.ID] != 7 {
		t.Fatalf("x = %d, want 7", m.Vars[x.ID])
	}
}

func TestSolveUnsat(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	f := sym.AndExpr(
		sym.Lt(sym.VarTerm(x), sym.Int(0)),
		sym.Gt(sym.VarTerm(x), sym.Int(0)),
	)
	if st, _ := Solve(f, Options{}); st != StatusUnsat {
		t.Fatalf("status %v", st)
	}
}

func TestSolveRespectsBounds(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	f := sym.Ge(sym.VarTerm(x), sym.Int(10))
	st, _ := Solve(f, Options{VarBounds: map[int]Bound{x.ID: {Lo: 0, Hi: 5, HasLo: true, HasHi: true}}})
	if st != StatusUnsat {
		t.Fatalf("x≥10 with x∈[0,5] should be unsat, got %v", st)
	}
}

func TestSolveEUFCongruence(t *testing.T) {
	var p sym.Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	h := p.FuncSym("h", 1)
	hx := sym.ApplyTerm(h, sym.VarTerm(x))
	hy := sym.ApplyTerm(h, sym.VarTerm(y))

	// x = y ∧ h(x) ≠ h(y): violates functional consistency.
	f := sym.AndExpr(sym.Eq(sym.VarTerm(x), sym.VarTerm(y)), sym.Ne(hx, hy))
	if st, _ := Solve(f, Options{Pool: &p}); st != StatusUnsat {
		t.Fatalf("congruence violation should be unsat, got %v", st)
	}

	// x ≠ y ∧ h(x) ≠ h(y): satisfiable (h injective on {x,y}).
	f = sym.AndExpr(sym.Ne(sym.VarTerm(x), sym.VarTerm(y)), sym.Ne(hx, hy))
	st, m := Solve(f, Options{Pool: &p})
	if st != StatusSat {
		t.Fatalf("status %v", st)
	}
	if m.Vars[x.ID] == m.Vars[y.ID] {
		t.Fatalf("model x=y=%d", m.Vars[x.ID])
	}

	// h(x) = h(y) ∧ x ≠ y: satisfiable (h constant, for instance) — this is
	// precisely the "invented function" hazard of Section 4.2.
	f = sym.AndExpr(sym.Eq(hx, hy), sym.Ne(sym.VarTerm(x), sym.VarTerm(y)))
	st, m = Solve(f, Options{Pool: &p})
	if st != StatusSat {
		t.Fatalf("status %v", st)
	}
	if len(m.Funcs) == 0 {
		t.Fatal("expected witness interpretations for h")
	}
}

func TestSolveEUFNested(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	h := p.FuncSym("h", 1)
	// h(h(x)) = x ∧ h(x) ≠ x: satisfiable (h an involution without fixpoint at x).
	hhx := sym.ApplyTerm(h, sym.ApplyTerm(h, sym.VarTerm(x)))
	f := sym.AndExpr(
		sym.Eq(hhx, sym.VarTerm(x)),
		sym.Ne(sym.ApplyTerm(h, sym.VarTerm(x)), sym.VarTerm(x)),
	)
	if st, _ := Solve(f, Options{Pool: &p}); st != StatusSat {
		t.Fatalf("involution should be sat, got %v", st)
	}
	// h(h(x)) ≠ h(h(x)) is unsat regardless of h.
	f = sym.Ne(hhx, hhx)
	// Ne folds syntactically to false already; exercise the path through Solve.
	if st, _ := Solve(sym.AndExpr(f), Options{Pool: &p}); st != StatusUnsat {
		t.Fatal("expected unsat")
	}
}

// randFormula builds a random boolean combination of linear atoms over vars.
func randFormula(r *rand.Rand, vars []*sym.Var, depth int) sym.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		s := sym.Int(int64(r.Intn(9) - 4))
		for _, v := range vars {
			if r.Intn(2) == 0 {
				s = sym.AddSum(s, sym.ScaleSum(int64(r.Intn(5)-2), sym.VarTerm(v)))
			}
		}
		switch r.Intn(4) {
		case 0:
			return sym.Eq(s, sym.Int(0))
		case 1:
			return sym.Ne(s, sym.Int(0))
		case 2:
			return sym.Le(s, sym.Int(0))
		default:
			return sym.Lt(s, sym.Int(int64(r.Intn(5))))
		}
	}
	a := randFormula(r, vars, depth-1)
	b := randFormula(r, vars, depth-1)
	switch r.Intn(3) {
	case 0:
		return sym.AndExpr(a, b)
	case 1:
		return sym.OrExpr(a, b)
	default:
		return sym.NotExpr(a)
	}
}

// TestSolveVsBruteForce cross-checks the full SMT pipeline against exhaustive
// enumeration over a small integer domain.
func TestSolveVsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var p sym.Pool
	vars := []*sym.Var{p.NewVar("a"), p.NewVar("b")}
	const lo, hi = -4, 4
	bounds := map[int]Bound{
		vars[0].ID: {Lo: lo, Hi: hi, HasLo: true, HasHi: true},
		vars[1].ID: {Lo: lo, Hi: hi, HasLo: true, HasHi: true},
	}
	for iter := 0; iter < 150; iter++ {
		f := randFormula(r, vars, 3)
		bruteSat := false
		for a := int64(lo); a <= hi && !bruteSat; a++ {
			for b := int64(lo); b <= hi; b++ {
				env := sym.Env{Vars: map[int]int64{vars[0].ID: a, vars[1].ID: b}}
				ok, err := sym.EvalBool(f, env)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					bruteSat = true
					break
				}
			}
		}
		st, m := Solve(f, Options{VarBounds: bounds})
		want := StatusUnsat
		if bruteSat {
			want = StatusSat
		}
		if st != want {
			t.Fatalf("iter %d: Solve=%v brute=%v for %v", iter, st, want, f)
		}
		if st == StatusSat {
			ok, err := CheckModel(f, m, nil)
			if err != nil || !ok {
				t.Fatalf("iter %d: bad model %v for %v (err %v)", iter, m, f, err)
			}
			for _, v := range vars {
				if val, present := m.Vars[v.ID]; present && (val < lo || val > hi) {
					t.Fatalf("iter %d: model out of bounds: %s=%d", iter, v.Name, val)
				}
			}
		}
	}
}

func TestMinimizeCore(t *testing.T) {
	// {x ≤ 0, -x ≤ -5, y ≤ 3}: core is the first two.
	ineqs := []Ineq{
		{Terms: []IVTerm{{0, 1}}, B: 0},
		{Terms: []IVTerm{{0, -1}}, B: -5},
		{Terms: []IVTerm{{1, 1}}, B: 3},
	}
	core := minimizeCore(2, ineqs, []Bound{{}, {}}, 0)
	if len(core) != 2 || core[0] != 0 || core[1] != 1 {
		t.Fatalf("core = %v", core)
	}
}

func TestIneqNormalize(t *testing.T) {
	q := Ineq{Terms: []IVTerm{{0, 2}, {0, 2}, {1, 0}}, B: 5}
	nq, triv := q.Normalize()
	if triv != 0 {
		t.Fatalf("triv = %d", triv)
	}
	// 4x ≤ 5 → x ≤ 1 (floor).
	if len(nq.Terms) != 1 || nq.Terms[0].Coef != 1 || nq.B != 1 {
		t.Fatalf("normalized = %v", nq)
	}
	q = Ineq{Terms: []IVTerm{{0, 1}, {0, -1}}, B: -1}
	if _, triv := q.Normalize(); triv != -1 {
		t.Fatal("0 ≤ -1 should be trivially false")
	}
	q = Ineq{B: 3}
	if _, triv := q.Normalize(); triv != 1 {
		t.Fatal("0 ≤ 3 should be trivially true")
	}
}

func TestIneqNegated(t *testing.T) {
	q := Ineq{Terms: []IVTerm{{0, 1}}, B: 4} // x ≤ 4
	n := q.Negated()                         // x ≥ 5 i.e. -x ≤ -5
	for v := int64(-10); v <= 10; v++ {
		a := q.Eval([]int64{v})
		b := n.Eval([]int64{v})
		if a == b {
			t.Fatalf("negation overlap at %d", v)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {7, -2, -4}, {-7, -2, 3}, {6, 3, 2}, {-6, 3, -2},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Fatalf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestSATConflictBudget: a hard UNSAT instance under a one-conflict budget
// must come back unknown, and Solve must propagate that as StatusUnknown.
func TestSATConflictBudget(t *testing.T) {
	build := func(budget int) (*SAT, [][]Lit) {
		const P, H = 6, 5 // pigeonhole, hard enough to need many conflicts
		s := NewSAT(budget)
		v := make([][]int, P)
		for p := 0; p < P; p++ {
			v[p] = make([]int, H)
			for h := 0; h < H; h++ {
				v[p][h] = s.NewVar()
			}
		}
		var clauses [][]Lit
		for p := 0; p < P; p++ {
			lits := make([]Lit, H)
			for h := 0; h < H; h++ {
				lits[h] = MkLit(v[p][h], false)
			}
			clauses = append(clauses, lits)
		}
		for h := 0; h < H; h++ {
			for p1 := 0; p1 < P; p1++ {
				for p2 := p1 + 1; p2 < P; p2++ {
					clauses = append(clauses, []Lit{MkLit(v[p1][h], true), MkLit(v[p2][h], true)})
				}
			}
		}
		return s, clauses
	}
	s, clauses := build(1)
	ok := true
	for _, cl := range clauses {
		ok = ok && s.AddClause(cl...)
	}
	if ok && s.Solve() != SATUnknown {
		t.Fatal("one-conflict budget should exhaust on pigeonhole 6/5")
	}
	s2, clauses2 := build(0) // generous default
	ok = true
	for _, cl := range clauses2 {
		ok = ok && s2.AddClause(cl...)
	}
	if ok && s2.Solve() != SATUnsat {
		t.Fatal("pigeonhole 6/5 should be UNSAT with a real budget")
	}
}

// TestSolveUnknownPropagation: a SAT-level unknown surfaces as StatusUnknown.
func TestSolveUnknownPropagation(t *testing.T) {
	var p sym.Pool
	// A formula whose boolean skeleton needs real search: pairwise distinct
	// x1..x5 in a domain of size 4 (unsat) with a tiny conflict budget.
	vars := make([]*sym.Var, 5)
	parts := []sym.Expr{}
	bounds := map[int]Bound{}
	for i := range vars {
		vars[i] = p.NewVar("v")
		bounds[vars[i].ID] = Bound{Lo: 0, Hi: 3, HasLo: true, HasHi: true}
	}
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			parts = append(parts, sym.Ne(sym.VarTerm(vars[i]), sym.VarTerm(vars[j])))
		}
	}
	f := sym.AndExpr(parts...)
	st, _ := Solve(f, Options{VarBounds: bounds, MaxTheoryRounds: 1})
	if st == smtStatusSatAlias() {
		t.Fatal("5 distinct values cannot fit in a 4-element domain")
	}
	// With full budgets the verdict is a definite unsat.
	st, _ = Solve(f, Options{VarBounds: bounds})
	if st != StatusUnsat {
		t.Fatalf("full-budget verdict = %v", st)
	}
}

func smtStatusSatAlias() Status { return StatusSat }

// TestSATResetContract pins down the exact post-Reset contract documented on
// SAT.Reset: clauses, activity, phases and level-0 facts survive; everything
// above level 0 is unwound; the conflict counter is not reset. The one-shot
// theory loop and the warm refuter both rely on it.
func TestSATResetContract(t *testing.T) {
	s := NewSAT(0)
	s.SavePhase(true)
	v := s.NewVar()
	w := s.NewVar()
	s.AddClause(MkLit(v, false))                // level-0 fact
	s.AddClause(MkLit(v, true), MkLit(w, true)) // forces ¬w
	// x must be true, which a false-first branch learns through a conflict,
	// so activity and the conflict counter have moved before Reset.
	x, y := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(x, false), MkLit(y, false))
	s.AddClause(MkLit(x, false), MkLit(y, true))
	if res := s.Solve(); res != SATSat {
		t.Fatalf("expected SAT, got %v", res)
	}
	clausesBefore := s.NumClauses()
	activityBefore := append([]float64(nil), s.activity...)
	conflictsBefore := s.nConflicts
	if conflictsBefore == 0 {
		t.Fatal("the instance solved without a conflict; nothing for Reset to keep")
	}

	s.Reset()

	if s.NumClauses() != clausesBefore {
		t.Errorf("Reset dropped clauses: %d -> %d", clausesBefore, s.NumClauses())
	}
	if s.assign[v] != lTrue {
		t.Errorf("Reset lost the level-0 fact on v: %v", s.assign[v])
	}
	for i, act := range s.activity {
		if act != activityBefore[i] {
			t.Errorf("Reset changed activity[%d]: %v -> %v", i, activityBefore[i], act)
		}
	}
	if s.nConflicts != conflictsBefore {
		t.Errorf("Reset cleared the conflict counter: %d -> %d", conflictsBefore, s.nConflicts)
	}
	// Re-solving after Reset succeeds and w keeps its saved phase usable.
	if res := s.Solve(); res != SATSat {
		t.Fatalf("re-solve after Reset: %v", res)
	}
	// ResetSearch additionally clears the conflict budget.
	s.nConflicts = 17
	s.ResetSearch()
	if s.nConflicts != 0 {
		t.Errorf("ResetSearch kept nConflicts=%d", s.nConflicts)
	}
}

// TestSATPopToRetainsTheoryLemmas exercises Mark/PopTo directly: originals
// past the mark disappear, theory lemmas over still-live variables survive,
// CDCL-learned clauses past the mark are dropped.
func TestSATPopToRetainsTheoryLemmas(t *testing.T) {
	s := NewSAT(0)
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	m := s.Mark()

	c := s.NewVar()
	s.AddClause(MkLit(c, false), MkLit(a, true)) // frame-local original
	if !s.AddTheoryLemma(MkLit(a, true), MkLit(b, true)) {
		t.Fatal("lemma over live vars rejected")
	}
	if !s.AddTheoryLemma(MkLit(c, true), MkLit(b, true)) {
		t.Fatal("lemma over frame var rejected")
	}

	retained := s.PopTo(m)
	if retained != 1 {
		t.Fatalf("retained %d lemmas, want 1 (the a∨b lemma)", retained)
	}
	if s.NumVars() != 2 {
		t.Fatalf("NumVars=%d after pop, want 2", s.NumVars())
	}
	if s.NumClauses() != 2 { // original + retained lemma
		t.Fatalf("NumClauses=%d after pop, want 2", s.NumClauses())
	}
	// The surviving formula is (a∨b) ∧ (¬a∨¬b): still satisfiable.
	if res := s.Solve(); res != SATSat {
		t.Fatalf("post-pop solve: %v", res)
	}
	if s.Value(a) == s.Value(b) {
		t.Fatalf("model violates retained lemma: a=%v b=%v", s.Value(a), s.Value(b))
	}
}
