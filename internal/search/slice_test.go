package search

import (
	"math/rand"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// sliceAlt slices prefix ∧ ¬c against negated the way expand does, with
// each prefix conjunct's variables as its dependencies.
func sliceAlt(prefix []sym.Expr, negated sym.Expr) sym.Expr {
	sl := newSlicer()
	for _, e := range prefix {
		sl.add(e, varIDs(e))
	}
	return sl.slice(negated)
}

// targetKey is the dedup key expand computes for a target whose predicted
// trace is expected (the last event being the flipped one).
func targetKey(expected []mini.BranchEvent, negated sym.Expr) string {
	branches := append([]mini.BranchEvent(nil), expected...)
	last := len(branches) - 1
	branches[last].Taken = !branches[last].Taken
	kb := keyPacker{branches: branches}
	return string(kb.key(last, negated))
}

func TestSliceAltKeepsRelated(t *testing.T) {
	var p sym.Pool
	x, y, z := p.NewVar("x"), p.NewVar("y"), p.NewVar("z")
	prefix := []sym.Expr{
		sym.Eq(sym.VarTerm(x), sym.Int(1)),     // touches x
		sym.Eq(sym.VarTerm(z), sym.Int(9)),     // unrelated
		sym.Lt(sym.VarTerm(x), sym.VarTerm(y)), // links x↔y
	}
	negated := sym.Gt(sym.VarTerm(y), sym.Int(5)) // touches y
	sliced := sliceAlt(prefix, negated)
	cs := sym.Conjuncts(sliced)
	// Expect: x=1 and x<y retained (transitively via y), z=9 dropped.
	if len(cs) != 3 {
		t.Fatalf("sliced = %v", cs)
	}
	for _, c := range cs {
		for _, v := range sym.Vars(c) {
			if v == z {
				t.Fatalf("unrelated conjunct retained: %v", sliced)
			}
		}
	}
}

func TestSliceAltTransitiveClosure(t *testing.T) {
	var p sym.Pool
	a, b, c, d := p.NewVar("a"), p.NewVar("b"), p.NewVar("c"), p.NewVar("d")
	prefix := []sym.Expr{
		sym.Eq(sym.VarTerm(a), sym.VarTerm(b)),
		sym.Eq(sym.VarTerm(b), sym.VarTerm(c)),
		sym.Eq(sym.VarTerm(d), sym.Int(7)),
	}
	negated := sym.Ne(sym.VarTerm(a), sym.Int(0))
	cs := sym.Conjuncts(sliceAlt(prefix, negated))
	if len(cs) != 3 { // a=b, b=c chained in; d=7 out
		t.Fatalf("sliced = %v", cs)
	}
}

// TestSliceSoundnessProperty: on real executions, any model of the sliced
// alternate constraint, extended with the parent input for untouched
// variables, satisfies the full alternate constraint.
func TestSliceSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	ns := mini.Natives{}
	ns.Register("hash", 1, lexapp.ScrambledHash)
	for iter := 0; iter < 30; iter++ {
		src := mini.GenProgram(r, mini.GenConfig{Natives: []string{"hash"}})
		p := mini.MustCheck(mini.MustParse(src), ns)
		in := []int64{int64(r.Intn(21) - 10), int64(r.Intn(21) - 10), int64(r.Intn(21) - 10)}
		eng := concolic.New(p, concolic.ModeSound)
		ex := eng.Run(in)

		prefix := []sym.Expr{}
		for k, c := range ex.PC {
			if c.IsConcretization {
				prefix = append(prefix, c.Expr)
				continue
			}
			negated := sym.NotExpr(c.Expr)
			sliced := sliceAlt(prefix, negated)
			full := ex.Alt(k)
			st, m := smt.Solve(sliced, smt.Options{Pool: eng.Pool})
			if st == smt.StatusSat {
				env := sym.Env{Vars: map[int]int64{}}
				for i, v := range eng.InputVars {
					env.Vars[v.ID] = in[i]
					if val, ok := m.Vars[v.ID]; ok {
						env.Vars[v.ID] = val
					}
				}
				holds, err := sym.EvalBool(full, env)
				if err != nil || !holds {
					t.Fatalf("iter %d k=%d: sliced model does not satisfy full ALT\nsliced: %v\nfull: %v\nmodel: %v\nerr: %v",
						iter, k, sliced, full, env.Vars, err)
				}
			} else {
				// Slicing must not make unsatisfiable targets satisfiable or
				// vice versa: the full ALT must agree.
				stFull, _ := smt.Solve(full, smt.Options{Pool: eng.Pool})
				if stFull == smt.StatusSat {
					t.Fatalf("iter %d k=%d: full ALT sat but slice unsat", iter, k)
				}
			}
			prefix = append(prefix, c.Expr)
		}
	}
}

func TestTargetKeyDistinguishes(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	c1 := sym.Eq(sym.VarTerm(x), sym.Int(1))
	c2 := sym.Eq(sym.VarTerm(x), sym.Int(2))
	tr1 := []mini.BranchEvent{{ID: 0, Taken: true}}
	tr2 := []mini.BranchEvent{{ID: 0, Taken: false}}
	tr3 := []mini.BranchEvent{{ID: 1, Taken: true}}
	if targetKey(tr1, c1) == targetKey(tr1, c2) {
		t.Fatal("different constraints must differ")
	}
	if targetKey(tr1, c1) == targetKey(tr2, c1) {
		t.Fatal("different polarities must differ")
	}
	if targetKey(tr1, c1) == targetKey(tr3, c1) {
		t.Fatal("different branch IDs must differ")
	}
	if targetKey(tr1, c1) != targetKey(tr1, c1) {
		t.Fatal("identical targets must collide")
	}
}

// TestTargetKeyExactBranchIDs: branch IDs that agree in their low bits
// still give distinct keys (a byte-folded encoding made 5 and 133 collide).
func TestTargetKeyExactBranchIDs(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	c := sym.Eq(sym.VarTerm(x), sym.Int(1))
	k5 := targetKey([]mini.BranchEvent{{ID: 5, Taken: true}}, c)
	k133 := targetKey([]mini.BranchEvent{{ID: 133, Taken: true}}, c)
	if k5 == k133 {
		t.Fatalf("branch IDs 5 and 133 share the key %q", k5)
	}
}

// TestKeyPackerIncremental: one packer answering targets in any order
// returns the same keys as a fresh packer per target.
func TestKeyPackerIncremental(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	r := rand.New(rand.NewSource(5))
	branches := make([]mini.BranchEvent, 300)
	for i := range branches {
		branches[i] = mini.BranchEvent{ID: r.Intn(400), Taken: r.Intn(2) == 1}
	}
	shared := keyPacker{branches: branches}
	for _, idx := range r.Perm(len(branches)) {
		c := sym.Le(sym.VarTerm(x), sym.Int(int64(idx)))
		fresh := keyPacker{branches: branches}
		if got, want := string(shared.key(idx, c)), string(fresh.key(idx, c)); got != want {
			t.Fatalf("idx %d: incremental key %q, fresh key %q", idx, got, want)
		}
	}
}

// TestSlicerMatchesFixpoint: the union-find slicer keeps exactly the
// conjuncts a per-target reachability fixpoint keeps, on random prefixes
// with pseudo-IDs (negative, as depIDs gives function inputs) mixed in.
func TestSlicerMatchesFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 200; iter++ {
		sl := newSlicer()
		var exprs []sym.Expr
		var deps [][]int
		for k := 0; k < 30; k++ {
			ids := make([]int, r.Intn(3))
			for i := range ids {
				ids[i] = r.Intn(12) - 2
			}
			// The negated constraint's seeds are variable IDs only.
			var seeds []int
			negated := sym.Expr(sym.True)
			for i := r.Intn(3); i > 0; i-- {
				v := &sym.Var{ID: r.Intn(10), Name: "v"}
				seeds = append(seeds, v.ID)
				negated = sym.AndExpr(negated, sym.Eq(sym.VarTerm(v), sym.Int(int64(k))))
			}
			want := fixpointSlice(exprs, deps, seeds, negated)
			if got := sl.slice(negated); got.Key() != want.Key() {
				t.Fatalf("iter %d k=%d: slicer %v, fixpoint %v", iter, k, got, want)
			}
			e := sym.Eq(sym.VarTerm(&sym.Var{ID: 100 + k, Name: "e"}), sym.Int(int64(k)))
			exprs, deps = append(exprs, e), append(deps, ids)
			sl.add(e, ids)
		}
	}
}

// fixpointSlice is the reference slice: grow the set of reached IDs from
// seeds until no further prefix conjunct shares one.
func fixpointSlice(exprs []sym.Expr, deps [][]int, seeds []int, negated sym.Expr) sym.Expr {
	used := make([]bool, len(exprs))
	reach := map[int]bool{}
	for _, id := range seeds {
		reach[id] = true
	}
	for changed := true; changed; {
		changed = false
		for i, ids := range deps {
			if used[i] {
				continue
			}
			for _, id := range ids {
				if reach[id] {
					used[i], changed = true, true
					break
				}
			}
			if used[i] {
				for _, id := range ids {
					reach[id] = true
				}
			}
		}
	}
	var parts []sym.Expr
	for i, e := range exprs {
		if used[i] {
			parts = append(parts, e)
		}
	}
	return sym.AndExpr(append(parts, negated)...)
}

func TestExhaustedFlag(t *testing.T) {
	src := `fn main(x int) { if (x > 0) { error("pos"); } }`
	ns := mini.Natives{}
	ns.Register("hash", 1, lexapp.ScrambledHash)
	p := mini.MustCheck(mini.MustParse(src), ns)
	eng := concolic.New(p, concolic.ModeSound)
	st := Run(eng, Options{MaxRuns: 100, Seeds: [][]int64{{0}}})
	if !st.Exhausted {
		t.Fatalf("two-path program must exhaust: %s", st.Summary())
	}
	if st.Runs != 2 || st.Paths() != 2 {
		t.Fatalf("expected exactly 2 runs = 2 paths: %s", st.Summary())
	}
	// With a budget of 1 the search cannot exhaust.
	eng2 := concolic.New(p, concolic.ModeSound)
	st2 := Run(eng2, Options{MaxRuns: 1, Seeds: [][]int64{{0}}})
	if st2.Exhausted {
		t.Fatal("budget-limited search must not claim exhaustion")
	}
}
