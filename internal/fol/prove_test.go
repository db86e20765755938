package fol

import (
	"fmt"
	"math/rand"
	"testing"

	"hotg/internal/smt"
	"hotg/internal/sym"
)

// TestBudgetExhaustion: a contrived instance with a huge sample space and an
// unprovable goal must come back unknown (with refutation disabled) instead
// of hanging.
func TestBudgetExhaustion(t *testing.T) {
	var p sym.Pool
	h := p.FuncSym("h", 1)
	samples := sym.NewSampleStore()
	for i := int64(0); i < 60; i++ {
		samples.Add(h, []int64{i}, i*i%101)
	}
	// h(x)+h(y)+h(z) = 1000 has no solution among the samples (max sum far
	// below) but forces the prover through the sample-binding lattice.
	x, y, z := p.NewVar("x"), p.NewVar("y"), p.NewVar("z")
	pc := sym.Eq(
		sym.AddSum(sym.AddSum(
			sym.ApplyTerm(h, sym.VarTerm(x)),
			sym.ApplyTerm(h, sym.VarTerm(y))),
			sym.ApplyTerm(h, sym.VarTerm(z))),
		sym.Int(1000000),
	)
	_, out := Prove(pc, samples, Options{Pool: &p, MaxNodes: 500, NoRefute: true})
	if out != OutcomeUnknown {
		t.Fatalf("outcome = %v, want unknown under a tiny budget", out)
	}
}

// TestProveTrueAndFalse: degenerate goals.
func TestProveTrueAndFalse(t *testing.T) {
	var p sym.Pool
	st, out := Prove(sym.True, sym.NewSampleStore(), Options{Pool: &p})
	if out != OutcomeProved || len(st.Defs) != 0 {
		t.Fatalf("true: %v %v", out, st)
	}
	if _, out := Prove(sym.False, sym.NewSampleStore(), Options{Pool: &p}); out != OutcomeInvalid {
		t.Fatalf("false: %v", out)
	}
}

// TestMultiArgEUF: functionality over two-argument symbols.
func TestMultiArgEUF(t *testing.T) {
	var p sym.Pool
	x, y, u, v := p.NewVar("x"), p.NewVar("y"), p.NewVar("u"), p.NewVar("v")
	g := p.FuncSym("g", 2)
	// g(x,y) = g(u,v) ∧ x = 3 ∧ v = 8 → strategy u:=3, y:=8 (or x:=u etc.)
	pc := sym.AndExpr(
		sym.Eq(sym.ApplyTerm(g, sym.VarTerm(x), sym.VarTerm(y)), sym.ApplyTerm(g, sym.VarTerm(u), sym.VarTerm(v))),
		sym.Eq(sym.VarTerm(x), sym.Int(3)),
		sym.Eq(sym.VarTerm(v), sym.Int(8)),
	)
	st, out := Prove(pc, sym.NewSampleStore(), Options{Pool: &p})
	if out != OutcomeProved {
		t.Fatalf("outcome = %v", out)
	}
	res := st.Resolve(sym.NewSampleStore())
	if !res.Complete {
		t.Fatalf("resolution: %+v (%v)", res, st)
	}
	if res.Values[x.ID] != res.Values[u.ID] || res.Values[y.ID] != res.Values[v.ID] {
		t.Fatalf("EUF witness must unify argument-wise: %v", res.Values)
	}
}

// TestSampleBindingAcrossConjuncts: one binding must satisfy several
// constraints at once.
func TestSampleBindingAcrossConjuncts(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	h := p.FuncSym("h", 1)
	samples := sym.NewSampleStore()
	samples.Add(h, []int64{2}, 50)
	samples.Add(h, []int64{4}, 70)
	samples.Add(h, []int64{6}, 70)
	// h(x) = 70 ∧ x ≥ 5: only the (6,70) sample fits.
	pc := sym.AndExpr(
		sym.Eq(sym.ApplyTerm(h, sym.VarTerm(x)), sym.Int(70)),
		sym.Ge(sym.VarTerm(x), sym.Int(5)),
	)
	st, out := Prove(pc, samples, Options{Pool: &p})
	if out != OutcomeProved {
		t.Fatalf("outcome = %v", out)
	}
	res := st.Resolve(samples)
	if !res.Complete || res.Values[x.ID] != 6 {
		t.Fatalf("witness = %+v, want x=6", res)
	}
}

// TestStrategySoundnessProperty: every strategy returned as a proof, when
// resolution completes, must actually satisfy the goal under the samples.
func TestStrategySoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for iter := 0; iter < 300; iter++ {
		var p sym.Pool
		vars := []*sym.Var{p.NewVar("x"), p.NewVar("y")}
		h := p.FuncSym("h", 1)
		samples := sym.NewSampleStore()
		for i := 0; i < 4; i++ {
			arg, out := int64(r.Intn(10)), int64(r.Intn(10))
			if _, dup := samples.Lookup(h, []int64{arg}); !dup {
				samples.Add(h, []int64{arg}, out)
			}
		}
		pc := randomPC(r, vars, h, true)
		fb := map[int]int64{vars[0].ID: int64(r.Intn(10)), vars[1].ID: int64(r.Intn(10))}
		st, out := Prove(pc, samples, Options{Pool: &p, Fallback: fb, NoRefute: true})
		if out != OutcomeProved {
			continue
		}
		res := st.Resolve(samples)
		if !res.Complete {
			continue // multi-step: would need new samples, nothing to check yet
		}
		holds, probes := Holds(pc, res.Values, samples)
		if len(probes) > 0 {
			continue // EUF-style proof evaluated outside the sampled domain
		}
		if !holds {
			t.Fatalf("iter %d: proved strategy %v yields a non-witness %v for %v",
				iter, st, res.Values, pc)
		}
	}
}

// randomPC draws a conjunction of one to three comparisons between small
// constants, variables of vars and, if applies is set, applications of h to
// them; without applies, a variable is drawn where an application would be.
func randomPC(r *rand.Rand, vars []*sym.Var, h *sym.Func, applies bool) sym.Expr {
	term := func() *sym.Sum {
		switch r.Intn(4) {
		case 0:
			return sym.Int(int64(r.Intn(11) - 5))
		case 1, 2:
			return sym.VarTerm(vars[r.Intn(len(vars))])
		default:
			v := sym.VarTerm(vars[r.Intn(len(vars))])
			if !applies {
				return v
			}
			return sym.ApplyTerm(h, v)
		}
	}
	n := 1 + r.Intn(3)
	parts := make([]sym.Expr, 0, n)
	for i := 0; i < n; i++ {
		a, b := term(), term()
		switch r.Intn(3) {
		case 0:
			parts = append(parts, sym.Eq(a, b))
		case 1:
			parts = append(parts, sym.Ne(a, b))
		default:
			parts = append(parts, sym.Le(a, b))
		}
	}
	return sym.AndExpr(parts...)
}

// TestApplyFreeVerdictIgnoresSamples: ProveCore gives a formula without
// applications the same outcome, strategy and proof whatever the sample
// store holds, with the refutation pass on and off. The search's proof cache
// relies on this to keep every verdict of such a formula across sample-store
// versions.
func TestApplyFreeVerdictIgnoresSamples(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	seen := map[Outcome]int{}
	for iter := 0; iter < 300; iter++ {
		var p sym.Pool
		vars := []*sym.Var{p.NewVar("x"), p.NewVar("y")}
		h := p.FuncSym("h", 1)
		full := sym.NewSampleStore()
		for i := int64(0); i < 6; i++ {
			full.Add(h, []int64{i}, int64(r.Intn(10)))
		}
		pc := randomPC(r, vars, h, false)
		if sym.HasApply(pc) {
			t.Fatalf("iter %d: apply-free draw %v has an application", iter, pc)
		}
		for _, noRefute := range []bool{true, false} {
			opts := Options{Pool: &p, NoRefute: noRefute}
			st0, out0 := ProveCore(pc, sym.NewSampleStore(), opts)
			st1, out1 := ProveCore(pc, full, opts)
			if out0 != out1 {
				t.Fatalf("iter %d, NoRefute=%v: %v is %v with no samples, %v with %d",
					iter, noRefute, pc, out0, out1, full.Len())
			}
			seen[out0]++
			if (st0 == nil) != (st1 == nil) {
				t.Fatalf("iter %d, NoRefute=%v: %v: strategy %v with no samples, %v with samples", iter, noRefute, pc, st0, st1)
			}
			if st0 == nil {
				continue
			}
			if st0.String() != st1.String() || fmt.Sprint(st0.Proof) != fmt.Sprint(st1.Proof) {
				t.Fatalf("iter %d, NoRefute=%v: %v: strategy %q (proof %v) with no samples, %q (proof %v) with samples",
					iter, noRefute, pc, st0, st0.Proof, st1, st1.Proof)
			}
		}
	}
	for _, out := range []Outcome{OutcomeProved, OutcomeUnknown, OutcomeInvalid} {
		if seen[out] == 0 {
			t.Errorf("no draw came out %v (outcomes %v); the property is not exercised", out, seen)
		}
	}
}

// TestRefuteOnConsistentCompletions: Refute must never call a satisfiable
// pure formula invalid, and must respect samples when refuting.
func TestRefuteOnConsistentCompletions(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	h := p.FuncSym("h", 1)
	samples := sym.NewSampleStore()
	samples.Add(h, []int64{3}, 41)

	// h(x) = 41 is satisfiable under every completion consistent with the
	// sample (x := 3 always works): must NOT be refuted.
	pc := sym.Eq(sym.ApplyTerm(h, sym.VarTerm(x)), sym.Int(41))
	if Refute(pc, samples, Options{Pool: &p}) {
		t.Fatal("refuted a formula witnessed by a recorded sample")
	}

	// h(x) = 41 ∧ x ≠ 3: the "samples, else 0" completion kills it.
	pc2 := sym.AndExpr(pc, sym.Ne(sym.VarTerm(x), sym.Int(3)))
	if !Refute(pc2, samples, Options{Pool: &p}) {
		t.Fatal("expected refutation via the default-0 completion")
	}
}

// TestProverDeterminism: identical inputs give identical strategies.
func TestProverDeterminism(t *testing.T) {
	mk := func() (string, Outcome) {
		var p sym.Pool
		x, y := p.NewVar("x"), p.NewVar("y")
		h := p.FuncSym("h", 1)
		samples := sym.NewSampleStore()
		samples.Add(h, []int64{42}, 567)
		pc := sym.AndExpr(
			sym.Eq(sym.VarTerm(x), sym.ApplyTerm(h, sym.VarTerm(y))),
			sym.Eq(sym.VarTerm(y), sym.Int(42)),
		)
		st, out := Prove(pc, samples, Options{Pool: &p})
		if st == nil {
			return "", out
		}
		return fmt.Sprint(st), out
	}
	s1, o1 := mk()
	s2, o2 := mk()
	if s1 != s2 || o1 != o2 {
		t.Fatalf("nondeterministic prover: %q/%v vs %q/%v", s1, o1, s2, o2)
	}
}

// TestOutcomeString covers diagnostics.
func TestOutcomeString(t *testing.T) {
	if OutcomeProved.String() != "proved" || OutcomeInvalid.String() != "invalid" ||
		OutcomeUnknown.String() != "unknown" {
		t.Fatal("bad outcome strings")
	}
}

// TestProveWithBoundsOnDefinedVars: resolved strategy values violating the
// caller's domain are the caller's job to filter (search.inBounds); Prove
// itself must still produce the proof.
func TestProveWithBoundsOnDefinedVars(t *testing.T) {
	var p sym.Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	h := p.FuncSym("h", 1)
	samples := sym.NewSampleStore()
	samples.Add(h, []int64{1}, 900)
	pc := sym.Eq(sym.VarTerm(x), sym.ApplyTerm(h, sym.VarTerm(y)))
	st, out := Prove(pc, samples, Options{
		Pool:      &p,
		Fallback:  map[int]int64{y.ID: 1},
		VarBounds: map[int]smt.Bound{x.ID: {Lo: 0, Hi: 255, HasLo: true, HasHi: true}},
	})
	if out != OutcomeProved {
		t.Fatalf("outcome = %v", out)
	}
	res := st.Resolve(samples)
	if !res.Complete || res.Values[x.ID] != 900 {
		t.Fatalf("resolution = %+v", res)
	}
}

// TestProofTrace: strategies carry their derivation steps.
func TestProofTrace(t *testing.T) {
	var p sym.Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	h := p.FuncSym("h", 1)
	samples := sym.NewSampleStore()
	samples.Add(h, []int64{42}, 567)
	pc := sym.AndExpr(
		sym.Eq(sym.VarTerm(x), sym.ApplyTerm(h, sym.VarTerm(y))),
		sym.Eq(sym.VarTerm(y), sym.Int(10)),
	)
	st, out := Prove(pc, samples, Options{Pool: &p})
	if out != OutcomeProved {
		t.Fatalf("outcome = %v", out)
	}
	if len(st.Proof) == 0 {
		t.Fatal("empty proof trace")
	}
	joined := ""
	for _, step := range st.Proof {
		joined += step + "\n"
	}
	for _, want := range []string{"unit: y := 10", "definitional: x := h(10)"} {
		found := false
		for _, step := range st.Proof {
			if step == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("proof missing step %q:\n%s", want, joined)
		}
	}
}

// TestBindingRefutedIsSound: every sample binding the allocation-free check
// rejects really yields a goal that simplify fails on, so skipping its
// construction cannot lose a proof. Goals are hash-style: sampled functions
// under Eq/Ne/Le comparisons, with constant, variable and nested arguments,
// and with or without other terms beside the application.
func TestBindingRefutedIsSound(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var p sym.Pool
	h, g := p.FuncSym("h", 1), p.FuncSym("g", 2)
	x, y := p.NewVar("x"), p.NewVar("y")
	samples := sym.NewSampleStore()
	for i := 0; i < 12; i++ {
		a, b, c := int64(r.Intn(10)), int64(r.Intn(4)), int64(r.Intn(4))
		samples.Add(h, []int64{a}, (7*a+3)%6)
		samples.Add(g, []int64{b, c}, (b+2*c)%6)
	}
	arg := func() *sym.Sum {
		switch r.Intn(4) {
		case 0:
			return sym.Int(int64(r.Intn(10)))
		case 1:
			return sym.VarTerm(x)
		case 2:
			return sym.AddSum(sym.VarTerm(y), sym.Int(int64(r.Intn(3))))
		}
		return sym.ApplyTerm(h, sym.VarTerm(x))
	}
	app := func() *sym.Sum {
		if r.Intn(3) == 0 {
			return sym.ApplyTerm(g, arg(), arg())
		}
		return sym.ApplyTerm(h, arg())
	}
	ops := []func(a, b *sym.Sum) sym.Expr{sym.Eq, sym.Ne, sym.Le}
	rejected, kept := 0, 0
	for iter := 0; iter < 400; iter++ {
		var cs []sym.Expr
		for n := 1 + r.Intn(3); n > 0; n-- {
			lhs := sym.ScaleSum(int64(1+r.Intn(2)), app())
			if r.Intn(4) == 0 {
				lhs = sym.AddSum(lhs, sym.VarTerm(y))
			}
			c := ops[r.Intn(len(ops))](lhs, sym.Int(int64(r.Intn(8))))
			if _, isCmp := c.(*sym.Cmp); isCmp {
				cs = append(cs, c)
			}
		}
		pr := &prover{samples: samples}
		for target, c := range cs {
			for _, a := range sym.Applies(c) {
				for _, s := range samples.ForFunc(a.Fn) {
					if !bindingRefuted(cs, a, a.Key(), s) {
						kept++
						continue
					}
					rejected++
					next, defs, ok := pr.apply(cs, nil, choice{kind: 2, sampApp: a, sampVal: s, dropIdx: target})
					if !ok {
						continue
					}
					if _, _, ok := pr.simplify(next, defs); ok {
						t.Fatalf("binding %v to %v was refuted, but the goal %v simplifies", a, s, next)
					}
				}
			}
		}
	}
	t.Logf("%d bindings refuted, %d kept", rejected, kept)
	if rejected == 0 || kept == 0 {
		t.Fatalf("rejected %d and kept %d bindings: the goals do not exercise both sides", rejected, kept)
	}
}
