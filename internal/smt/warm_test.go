package smt

import (
	"math/rand"
	"testing"

	"hotg/internal/sym"
)

// genCases builds a random refutation query over vars: a base of one to three
// apply-free linear constraints and one to five cases of one to three each.
func genCases(rng *rand.Rand, vars []*sym.Var) (sym.Expr, []sym.Expr) {
	conj := func() sym.Expr {
		xs := make([]sym.Expr, 1+rng.Intn(3))
		for i := range xs {
			xs[i] = genConstraint(rng, vars)
		}
		return sym.AndExpr(xs...)
	}
	base := conj()
	cases := make([]sym.Expr, 1+rng.Intn(5))
	for i := range cases {
		cases[i] = conj()
	}
	return base, cases
}

func genConstraint(rng *rand.Rand, vars []*sym.Var) sym.Expr {
	atom := func() sym.Expr {
		s := sym.Int(int64(rng.Intn(11) - 5))
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				s = sym.AddSum(s, sym.ScaleSum(int64(rng.Intn(7)-3), sym.VarTerm(v)))
			}
		}
		k := sym.Int(int64(rng.Intn(9) - 4))
		switch rng.Intn(3) {
		case 0:
			return sym.Eq(s, k)
		case 1:
			return sym.Ne(s, k)
		default:
			return sym.Le(s, k)
		}
	}
	if rng.Intn(4) == 0 {
		return sym.OrExpr(atom(), atom())
	}
	return atom()
}

// checkFirstUnsat compares FirstUnsat with a one-shot Solve of each
// base ∧ case. Every suffix of the cases is asked separately, so each case is
// decided after different warm histories: retained lemmas, activity and
// phases from the cases before it.
//
// A Sat vs Unsat disagreement is a bug in either path. Budgets are another
// matter: the warm solver may conclude where the one-shot solve runs out
// (a retained lemma can finish a check inside the same conflict and round
// caps), so a refuted case whose one-shot answer is Unknown or Timeout is
// allowed. At the default budgets these small queries are always decided.
func checkFirstUnsat(t *testing.T, seed int64, base sym.Expr, cases []sym.Expr, opts Options) {
	t.Helper()
	want := make([]Status, len(cases))
	for i, c := range cases {
		want[i], _ = Solve(sym.AndExpr(base, c), opts)
	}
	for j := range cases {
		got := FirstUnsat(base, cases[j:], opts)
		end := len(cases)
		if got >= 0 {
			end = j + got
			if want[end] == StatusSat {
				t.Fatalf("seed %d: warm refuted case %d, one-shot Solve says sat: %v ∧ %v", seed, end, base, cases[end])
			}
		}
		for i := j; i < end; i++ {
			if want[i] == StatusUnsat {
				t.Fatalf("seed %d: from case %d, warm missed unsat case %d (returned %d): %v ∧ %v", seed, j, i, got, base, cases[i])
			}
		}
	}
}

// TestIncrementalEquivalence checks the warm refuter against one-shot solves
// on 1k seeded random queries.
func TestIncrementalEquivalence(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts, vars := boundedVars(10)
		base, cases := genCases(rng, vars)
		checkFirstUnsat(t, seed, base, cases, opts)
	}
}

// boundedVars returns options with three variables x, y, z bounded to
// [-n, n].
func boundedVars(n int64) (Options, []*sym.Var) {
	p := &sym.Pool{}
	vars := []*sym.Var{p.NewVar("x"), p.NewVar("y"), p.NewVar("z")}
	bounds := map[int]Bound{}
	for _, v := range vars {
		bounds[v.ID] = Bound{Lo: -n, Hi: n, HasLo: true, HasHi: true}
	}
	return Options{Pool: p, VarBounds: bounds}, vars
}

// FuzzIncrementalSolve drives TestIncrementalEquivalence's property from
// fuzzed seeds. Wired into `make fuzz-smoke`.
func FuzzIncrementalSolve(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(424242))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		opts, vars := boundedVars(10)
		base, cases := genCases(rng, vars)
		checkFirstUnsat(t, seed, base, cases, opts)
	})
}

// TestFirstUnsatApplyFallback covers queries with uninterpreted
// applications, which the warm solver cannot compile: an applied base sends
// every case, and an applied case sends itself, to a one-shot Solve, while
// the apply-free cases around it stay on the warm solver.
func TestFirstUnsatApplyFallback(t *testing.T) {
	opts, vars := boundedVars(16)
	x, y := sym.VarTerm(vars[0]), sym.VarTerm(vars[1])
	h := opts.Pool.FuncSym("h", 1)
	hx, hy := sym.ApplyTerm(h, x), sym.ApplyTerm(h, y)

	for _, c := range []struct {
		name  string
		base  sym.Expr
		cases []sym.Expr
		want  int
	}{
		{"applied base", sym.Eq(hx, sym.Int(7)), []sym.Expr{
			sym.Eq(hy, sym.Int(7)),
			sym.AndExpr(sym.Eq(x, y), sym.Ne(hy, sym.Int(7))), // violates congruence
			sym.Le(x, sym.Int(0)),
		}, 1},
		{"applied case refuted", sym.Eq(x, y), []sym.Expr{sym.Ne(hx, hy)}, 0},
		{"warm case after applied case", sym.Eq(x, y), []sym.Expr{
			sym.Eq(hx, hy),
			sym.Ge(x, sym.Int(3)),
			sym.Le(y, sym.Int(-17)), // outside y's bounds
		}, 2},
		{"applied case after warm case", sym.Eq(x, y), []sym.Expr{
			sym.Ge(x, sym.Int(3)),
			sym.AndExpr(sym.Ge(y, sym.Int(3)), sym.Ne(hx, hy)),
		}, 1},
		{"none refuted", sym.Eq(x, y), []sym.Expr{sym.Eq(hx, hy), sym.Ge(x, sym.Int(3))}, -1},
	} {
		if got := FirstUnsat(c.base, c.cases, opts); got != c.want {
			t.Errorf("%s: FirstUnsat = %d, want %d", c.name, got, c.want)
		}
		checkFirstUnsat(t, 0, c.base, c.cases, opts)
	}
}

// BenchmarkSolveIncrementalWarmRefute measures the warm refuter on the shape
// Refute gives it: a shared base with a theory conflict over base atoms,
// which the first case minimizes into a lemma and every later case reuses,
// then a run of satisfiable sibling cases and a refuted last one. CI runs it
// with -benchtime=1x (bench-smoke) so it cannot bit-rot.
func BenchmarkSolveIncrementalWarmRefute(b *testing.B) {
	const siblings = 12
	p := &sym.Pool{}
	vars := make([]*sym.Var, 10)
	for i := range vars {
		vars[i] = p.NewVar("x")
	}
	bounds := map[int]Bound{}
	for _, v := range vars {
		bounds[v.ID] = Bound{Lo: -1000, Hi: 1000, HasLo: true, HasHi: true}
	}
	first, last := sym.VarTerm(vars[0]), sym.VarTerm(vars[len(vars)-1])
	// The chain x_{i+1} = x_i + i makes x_k = x_0 + k(k-1)/2, so last < first
	// is a theory conflict the boolean skeleton cannot see.
	var conjs []sym.Expr
	for i := 0; i+1 < len(vars); i++ {
		conjs = append(conjs, sym.Eq(sym.VarTerm(vars[i+1]), sym.AddSum(sym.VarTerm(vars[i]), sym.Int(int64(i)))))
	}
	conjs = append(conjs, sym.Le(first, sym.Int(100)), sym.OrExpr(sym.Lt(last, first), sym.Ge(first, sym.Int(0))))
	base := sym.AndExpr(conjs...)
	cases := make([]sym.Expr, siblings)
	for t := 0; t+1 < siblings; t++ {
		k := t % len(vars)
		cases[t] = sym.Eq(sym.VarTerm(vars[k]), sym.Int(int64(k*(k-1)/2+t))) // x_0 = t
	}
	cases[siblings-1] = sym.Lt(first, sym.Int(0))
	opts := Options{Pool: p, VarBounds: bounds}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := FirstUnsat(base, cases, opts); got != siblings-1 {
			b.Fatalf("FirstUnsat = %d, want %d", got, siblings-1)
		}
	}
}
