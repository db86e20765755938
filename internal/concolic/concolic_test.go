package concolic

import (
	"math/rand"
	"strings"
	"testing"

	"hotg/internal/mini"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// testHash is a deterministic, hard-to-invert function used as the "unknown"
// hash of the paper's examples.
func testHash(a []int64) int64 {
	x := uint64(a[0]) * 2654435761
	x ^= x >> 13
	x *= 2246822519
	x ^= x >> 16
	return int64(x % 1000)
}

func natives() mini.Natives {
	ns := mini.Natives{}
	ns.Register("hash", 1, testHash)
	return ns
}

func prog(t testing.TB, src string) *mini.Program {
	t.Helper()
	p, err := mini.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := mini.Check(p, natives()); err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

const fooSrc = `
fn main(x int, y int) {
	if (x == hash(y)) {
		if (y == 10) {
			error("deep");
		}
	}
}`

const obscureSrc = `
fn main(x int, y int) int {
	if (x == hash(y)) {
		error("obscure");
	}
	return 0;
}`

// TestUnsoundFooPC reproduces Section 3.2: with unsound concretization the
// path constraint of foo on (hash(42), 42) is x = 567 ∧ y ≠ 10 — no record
// of the concretization, hence unsound.
func TestUnsoundFooPC(t *testing.T) {
	p := prog(t, fooSrc)
	e := New(p, ModeUnsound)
	h42 := testHash([]int64{42})
	ex := e.Run([]int64{h42, 42})

	if len(ex.PC) != 2 {
		t.Fatalf("pc = %v", ex.PC)
	}
	x, y := e.InputVars[0], e.InputVars[1]
	wantFirst := sym.Eq(sym.VarTerm(x), sym.Int(h42))
	if ex.PC[0].Expr.Key() != wantFirst.Key() {
		t.Fatalf("pc[0] = %v, want %v", ex.PC[0].Expr, wantFirst)
	}
	wantSecond := sym.Ne(sym.VarTerm(y), sym.Int(10))
	if ex.PC[1].Expr.Key() != wantSecond.Key() {
		t.Fatalf("pc[1] = %v, want %v", ex.PC[1].Expr, wantSecond)
	}
	if ex.PC[0].IsConcretization || ex.PC[1].IsConcretization {
		t.Fatal("unsound mode must not emit concretization constraints")
	}
	if ex.Concretizations != 1 {
		t.Fatalf("Concretizations = %d", ex.Concretizations)
	}
	if ex.Incomplete {
		t.Fatal("unsound mode should not set Incomplete")
	}

	// The unsoundness in action: (x=567, y=7) satisfies the pc but follows a
	// different path (hash(7) ≠ 567): a potential divergence.
	env := sym.Env{Vars: map[int]int64{x.ID: h42, y.ID: 7}}
	ok, err := sym.EvalBool(ex.Formula(), env)
	if err != nil || !ok {
		t.Fatalf("pc should be satisfied by the divergent input: %v %v", ok, err)
	}
	div := e.Run([]int64{h42, 7})
	if div.Result.Path() == ex.Result.Path() {
		t.Fatal("expected a divergence (different path)")
	}
}

// TestSoundFooPC reproduces Example 1: sound concretization produces
// y = 42 ∧ x = 567 ∧ y ≠ 10, whose ALT is unsatisfiable.
func TestSoundFooPC(t *testing.T) {
	p := prog(t, fooSrc)
	e := New(p, ModeSound)
	h42 := testHash([]int64{42})
	ex := e.Run([]int64{h42, 42})

	if len(ex.PC) != 3 {
		t.Fatalf("pc = %v", ex.PC)
	}
	if !ex.PC[0].IsConcretization {
		t.Fatalf("pc[0] should be the concretization constraint, got %v", ex.PC[0])
	}
	y := e.InputVars[1]
	wantPin := sym.Eq(sym.VarTerm(y), sym.Int(42))
	if ex.PC[0].Expr.Key() != wantPin.Key() {
		t.Fatalf("pc[0] = %v, want %v", ex.PC[0].Expr, wantPin)
	}

	// ALT of the last constraint: y=42 ∧ x=567 ∧ y=10 is unsatisfiable.
	alt := ex.Alt(2)
	st, _ := smt.Solve(alt, smt.Options{})
	if st != smt.StatusUnsat {
		t.Fatalf("ALT should be unsat, got %v", st)
	}
}

// TestHigherOrderFooPC reproduces Section 4.1: the path constraint is
// x = h(y) ∧ y ≠ 10 and the sample (567, h(42)) is recorded.
func TestHigherOrderFooPC(t *testing.T) {
	p := prog(t, fooSrc)
	e := New(p, ModeHigherOrder)
	h42 := testHash([]int64{42})
	ex := e.Run([]int64{h42, 42})

	if len(ex.PC) != 2 {
		t.Fatalf("pc = %v", ex.PC)
	}
	x, y := e.InputVars[0], e.InputVars[1]
	h := e.FuncFor("hash")
	want := sym.Eq(sym.VarTerm(x), sym.ApplyTerm(h, sym.VarTerm(y)))
	if ex.PC[0].Expr.Key() != want.Key() {
		t.Fatalf("pc[0] = %v, want %v", ex.PC[0].Expr, want)
	}
	if ex.UFApps != 1 {
		t.Fatalf("UFApps = %d", ex.UFApps)
	}
	out, ok := e.Samples.Lookup(h, []int64{42})
	if !ok || out != h42 {
		t.Fatalf("sample h(42): %d %v", out, ok)
	}
	if ex.NewSamples != 1 {
		t.Fatalf("NewSamples = %d", ex.NewSamples)
	}
	_ = y
}

// TestStaticObscure reproduces the introduction: static test generation is
// helpless on obscure() — no constraint can be generated for either branch.
func TestStaticObscure(t *testing.T) {
	p := prog(t, obscureSrc)
	e := New(p, ModeStatic)
	ex := e.Run([]int64{33, 42})
	if !ex.Incomplete {
		t.Fatal("static mode should flag incompleteness")
	}
	if len(ex.PC) != 0 {
		t.Fatalf("static pc should be empty, got %v", ex.PC)
	}
}

// TestDelayedConcretization reproduces the final remark of Section 3.3:
// for `x := hash(y); if (y == 10) ...`, delayed injection leaves y free.
func TestDelayedConcretization(t *testing.T) {
	src := `
fn main(y int) {
	var x = hash(y);
	if (y == 10) {
		error("e");
	}
}`
	p := prog(t, src)

	// Plain sound concretization pins y at the hash call.
	eSound := New(p, ModeSound)
	exS := eSound.Run([]int64{42})
	if len(exS.PC) != 2 || !exS.PC[0].IsConcretization {
		t.Fatalf("sound pc = %v", exS.PC)
	}
	if st, _ := smt.Solve(exS.Alt(1), smt.Options{}); st != smt.StatusUnsat {
		t.Fatal("sound mode should not be able to flip y==10")
	}

	// Delayed concretization: x is never used, so no pin is injected.
	eDel := New(p, ModeSoundDelayed)
	exD := eDel.Run([]int64{42})
	if len(exD.PC) != 1 || exD.PC[0].IsConcretization {
		t.Fatalf("delayed pc = %v", exD.PC)
	}
	st, m := smt.Solve(exD.Alt(0), smt.Options{})
	if st != smt.StatusSat {
		t.Fatal("delayed mode should be able to flip y==10")
	}
	if m.Vars[eDel.InputVars[0].ID] != 10 {
		t.Fatalf("model = %v", m)
	}
}

// TestDelayedPinOnUse checks that the delayed pin does fire once the
// concretized value reaches a branch.
func TestDelayedPinOnUse(t *testing.T) {
	src := `
fn main(y int) {
	var x = hash(y);
	if (x > 0) {
		error("e");
	}
}`
	p := prog(t, src)
	e := New(p, ModeSoundDelayed)
	ex := e.Run([]int64{42})
	// The pin y=42 is injected when hash(y)'s value reaches the branch; the
	// residual constraint (a comparison between constants) folds away.
	if len(ex.PC) != 1 || !ex.PC[0].IsConcretization {
		t.Fatalf("pc = %v", ex.PC)
	}
	y := e.InputVars[0]
	want := sym.Eq(sym.VarTerm(y), sym.Int(42))
	if ex.PC[0].Expr.Key() != want.Key() {
		t.Fatalf("pc[0] = %v, want %v", ex.PC[0].Expr, want)
	}
}

// TestMulDivUF checks that nonlinear operations become uninterpreted
// functions with samples in higher-order mode (footnote 3).
func TestMulDivUF(t *testing.T) {
	src := `
fn main(x int, y int) {
	if (x * y == 12) {
		error("e");
	}
	if (x / 2 == 3) {
		error("f");
	}
}`
	p := prog(t, src)
	e := New(p, ModeHigherOrder)
	ex := e.Run([]int64{3, 4})
	if ex.Result.Kind != mini.StopError || ex.Result.ErrorMsg != "e" {
		t.Fatalf("result = %+v", ex.Result)
	}
	if len(ex.PC) != 1 {
		t.Fatalf("pc = %v", ex.PC)
	}
	mul := e.opFunc("$mul", 2)
	if v, ok := e.Samples.Lookup(mul, []int64{3, 4}); !ok || v != 12 {
		t.Fatalf("$mul sample: %d %v", v, ok)
	}

	ex2 := e.Run([]int64{7, 1})
	if len(ex2.PC) != 2 {
		t.Fatalf("pc = %v", ex2.PC)
	}
	div := e.opFunc("$div", 2)
	if v, ok := e.Samples.Lookup(div, []int64{7, 2}); !ok || v != 3 {
		t.Fatalf("$div sample: %d %v", v, ok)
	}
	if ex2.Result.Kind != mini.StopError || ex2.Result.ErrorMsg != "f" {
		t.Fatalf("result = %+v", ex2.Result)
	}
}

// TestSymbolicArrayIndex checks sound index concretization.
func TestSymbolicArrayIndex(t *testing.T) {
	src := `
fn main(i int, v int) {
	var a [4];
	a[1] = v;
	if (a[i] == 5) {
		error("e");
	}
}`
	p := prog(t, src)

	e := New(p, ModeSound)
	ex := e.Run([]int64{1, 5})
	// Expect: pin i=1 (symbolic index), then constraint v = 5.
	if len(ex.PC) != 2 || !ex.PC[0].IsConcretization {
		t.Fatalf("pc = %v", ex.PC)
	}
	vVar := e.InputVars[1]
	want := sym.Eq(sym.VarTerm(vVar), sym.Int(5))
	if ex.PC[1].Expr.Key() != want.Key() {
		t.Fatalf("pc[1] = %v, want %v", ex.PC[1].Expr, want)
	}

	// Unsound mode skips the pin: flipping i is then possible but divergent.
	eU := New(p, ModeUnsound)
	exU := eU.Run([]int64{1, 5})
	if len(exU.PC) != 1 || exU.PC[0].IsConcretization {
		t.Fatalf("unsound pc = %v", exU.PC)
	}
}

// TestShortCircuitConstraints checks that && and || contribute their own
// branch events and per-operand constraints.
func TestShortCircuitConstraints(t *testing.T) {
	src := `
fn main(x int, y int) {
	if (x > 0 && y > 0) {
		error("both");
	}
}`
	p := prog(t, fooSrc)
	_ = p
	p = prog(t, src)
	e := New(p, ModeSound)

	// Left decides: only the constraint on x is recorded.
	ex := e.Run([]int64{-1, 5})
	if len(ex.PC) != 1 {
		t.Fatalf("pc = %v", ex.PC)
	}
	if len(ex.Result.Branches) != 2 { // && event + if event
		t.Fatalf("branches = %v", ex.Result.Branches)
	}

	// Both evaluated: constraints on x and y, and the if-event constraint
	// folds away (the condition value equals the right operand).
	ex = e.Run([]int64{1, 5})
	if len(ex.PC) != 2 {
		t.Fatalf("pc = %v", ex.PC)
	}
	if ex.Result.Kind != mini.StopError {
		t.Fatalf("result = %+v", ex.Result)
	}
}

// TestEngineAgreesWithInterp is the semantic-equivalence property test: on
// random programs and inputs, the concolic engine's concrete half must agree
// exactly with the plain and the optimized VM (result kind, return value,
// error site, runtime-fault class, and full branch trace), in every mode.
func TestEngineAgreesWithInterp(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	modes := []Mode{ModeStatic, ModeUnsound, ModeSound, ModeSoundDelayed, ModeHigherOrder}
	for iter := 0; iter < 120; iter++ {
		src := mini.GenProgram(r, mini.GenConfig{Natives: []string{"hash"}})
		p, err := mini.Parse(src)
		if err != nil {
			t.Fatalf("generated program failed to parse: %v\n%s", err, src)
		}
		if err := mini.Check(p, natives()); err != nil {
			t.Fatalf("generated program failed to check: %v\n%s", err, src)
		}
		input := []int64{int64(r.Intn(41) - 20), int64(r.Intn(41) - 20), int64(r.Intn(41) - 20)}
		refs := map[string]*mini.Result{
			"vm":           mini.RunVM(mini.CompileVM(p), input, mini.RunOptions{}),
			"optimized vm": mini.RunVM(mini.CompileVM(p).Optimize(), input, mini.RunOptions{}),
		}
		for _, mode := range modes {
			got := New(p, mode).Run(input).Result
			for name, ref := range refs {
				if got.Kind != ref.Kind || got.Return != ref.Return || got.ErrorSite != ref.ErrorSite ||
					faultClass(got.RuntimeMsg) != faultClass(ref.RuntimeMsg) || got.Path() != ref.Path() {
					t.Fatalf("iter %d mode %v: engine %+v vs %s %+v\ninput %v\n%s",
						iter, mode, got, name, ref, input, src)
				}
			}
		}
	}
}

// faultClass maps a runtime-fault message to its class: the engine's messages
// carry source positions and the VM's do not.
func faultClass(msg string) string {
	for _, c := range []struct{ key, class string }{
		{"division by zero", "div0"}, {"modulo by zero", "mod0"}, {"out of bounds", "oob"},
		{"step budget", "steps"}, {"recursion", "recursion"},
	} {
		if strings.Contains(msg, c.key) {
			return c.class
		}
	}
	return msg
}

// TestTheorem2Soundness checks Theorem 2 (and Theorem 3 for higher-order
// mode): every input assignment satisfying a sound path constraint follows
// the same execution path. Models of the pc are found by the SMT solver
// (sound/delayed modes) and by evaluation-filtered random mutation
// (higher-order mode, where the real native interpretation must be used).
func TestTheorem2Soundness(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 60; iter++ {
		src := mini.GenProgram(r, mini.GenConfig{Natives: []string{"hash"}})
		p, err := mini.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := mini.Check(p, natives()); err != nil {
			t.Fatal(err)
		}
		input := []int64{int64(r.Intn(21) - 10), int64(r.Intn(21) - 10), int64(r.Intn(21) - 10)}

		for _, mode := range []Mode{ModeSound, ModeSoundDelayed} {
			e := New(p, mode)
			ex := e.Run(input)
			if ex.Result.Kind == mini.StopRuntime {
				continue
			}
			// Ask the solver for a model of the full pc different from the
			// original input if possible.
			st, m := smt.Solve(ex.Formula(), smt.Options{Pool: e.Pool})
			if st != smt.StatusSat {
				t.Fatalf("iter %d mode %v: pc of the executed path must be satisfiable\npc=%v", iter, mode, ex.PC)
			}
			in2 := modelInput(e, m, input)
			ex2 := e.Run(in2)
			if ex2.Result.Path() != ex.Result.Path() {
				t.Fatalf("iter %d mode %v: unsound pc!\ninput=%v model=%v\npc=%v\npath %q vs %q\n%s",
					iter, mode, input, in2, ex.PC, ex.Result.Path(), ex2.Result.Path(), src)
			}
		}

		// Higher-order mode: filter random mutations through the pc
		// evaluated with the real native interpretation.
		e := New(p, ModeHigherOrder)
		ex := e.Run(input)
		if ex.Result.Kind == mini.StopRuntime {
			continue
		}
		f := ex.Formula()
		for trial := 0; trial < 30; trial++ {
			in2 := make([]int64, len(input))
			copy(in2, input)
			for k := range in2 {
				if r.Intn(2) == 0 {
					in2[k] = int64(r.Intn(21) - 10)
				}
			}
			env := sym.Env{Vars: map[int]int64{}, Fn: func(fn *sym.Func, args []int64) (int64, bool) {
				return e.NativeEval(fn.Name, args)
			}}
			for i, v := range e.InputVars {
				env.Vars[v.ID] = in2[i]
			}
			holds, err := sym.EvalBool(f, env)
			if err != nil || !holds {
				continue
			}
			ex2 := e.Run(in2)
			if ex2.Result.Path() != ex.Result.Path() {
				t.Fatalf("iter %d higher-order: unsound pc!\ninput=%v mutant=%v\npc=%v\n%s",
					iter, input, in2, ex.PC, src)
			}
		}
	}
}

func modelInput(e *Engine, m *smt.Model, fallback []int64) []int64 {
	out := make([]int64, len(e.InputVars))
	for i, v := range e.InputVars {
		if val, ok := m.Vars[v.ID]; ok {
			out[i] = val
		} else {
			out[i] = fallback[i]
		}
	}
	return out
}

// TestAltAndExpectedTrace checks the ALT construction and trace prediction.
func TestAltAndExpectedTrace(t *testing.T) {
	src := `
fn main(x int) {
	if (x > 0) {
		if (x > 10) {
			error("big");
		}
	}
}`
	p := prog(t, src)
	e := New(p, ModeSound)
	ex := e.Run([]int64{5}) // path: taken, not-taken

	alt := ex.Alt(1) // flip x>10
	st, m := smt.Solve(alt, smt.Options{})
	if st != smt.StatusSat {
		t.Fatalf("alt: %v", st)
	}
	in2 := modelInput(e, m, []int64{5})
	ex2 := e.Run(in2)
	if ex2.Result.Kind != mini.StopError {
		t.Fatalf("flipping should reach the bug, got %+v", ex2.Result)
	}
	exp := ex.Prediction(1)
	if exp.Len() != 2 || !exp.At(0).Taken || !exp.At(1).Taken {
		t.Fatalf("expected trace = %v", exp.Executed())
	}
	got := ex2.Result.Branches[:exp.Len()]
	for i := range got {
		if got[i] != exp.At(i) {
			t.Fatalf("trace mismatch at %d: %v vs %v", i, got[i], exp.At(i))
		}
	}
	// The prediction is a capped view of the parent's trace: it copies
	// nothing, and an append through it cannot reach the parent's array.
	if &exp.Executed()[0] != &ex.Result.Branches[0] {
		t.Fatal("prediction copied the parent's trace")
	}
	if cap(exp.Executed()) != exp.Len() {
		t.Fatalf("prediction capacity %d, want %d", cap(exp.Executed()), exp.Len())
	}
	if ex.Result.Branches[1].Taken {
		t.Fatal("building the prediction flipped the parent's event")
	}
}

func TestAltPanicsOnConcretization(t *testing.T) {
	p := prog(t, fooSrc)
	e := New(p, ModeSound)
	ex := e.Run([]int64{testHash([]int64{42}), 42})
	defer func() {
		if recover() == nil {
			t.Fatal("Alt on a concretization constraint should panic")
		}
	}()
	ex.Alt(0)
}

// TestSamplePersistence checks that the IOF store accumulates across runs.
func TestSamplePersistence(t *testing.T) {
	p := prog(t, obscureSrc)
	e := New(p, ModeHigherOrder)
	e.Run([]int64{1, 10})
	e.Run([]int64{1, 20})
	e.Run([]int64{1, 10}) // duplicate: no new sample
	h := e.FuncFor("hash")
	if got := len(e.Samples.ForFunc(h)); got != 2 {
		t.Fatalf("samples = %d, want 2", got)
	}
}

// TestModeString covers diagnostics.
func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeStatic: "static", ModeUnsound: "dart-unsound", ModeSound: "dart-sound",
		ModeSoundDelayed: "dart-sound-delayed", ModeHigherOrder: "higher-order",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%v", m)
		}
	}
}

// TestParseMode: ParseMode inverts Mode.String for every mode and rejects
// every name that is not a mode, including the CLI-only pseudo-modes.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeStatic, ModeUnsound, ModeSound, ModeSoundDelayed, ModeHigherOrder} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, s := range []string{"", "random", "all", "warp-speed"} {
		if m, err := ParseMode(s); err == nil {
			t.Errorf("ParseMode(%q) = %v, want an error", s, m)
		}
	}
}
