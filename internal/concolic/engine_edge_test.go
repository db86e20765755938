package concolic

import (
	"fmt"
	"testing"

	"hotg/internal/mini"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// TestDelayedArrayFlow: a concretized value written through an array cell
// must keep its pending pins attached until a branch consumes it.
func TestDelayedArrayFlow(t *testing.T) {
	src := `
fn main(y int, z int) {
	var a [4];
	a[1] = hash(y);
	var v = a[1];
	if (z == 3) {
		error("independent");
	}
	if (v > 0) {
		error("dependent");
	}
}`
	p := prog(t, src)
	e := New(p, ModeSoundDelayed)
	ex := e.Run([]int64{42, 0})

	// First branch (z == 3) must not pin y; its flip must be satisfiable.
	var zIdx int
	for k, c := range ex.PC {
		if !c.IsConcretization {
			zIdx = k
			break
		}
	}
	st, m := smt.Solve(ex.Alt(zIdx), smt.Options{Pool: e.Pool})
	if st != smt.StatusSat {
		t.Fatalf("flipping z==3 should stay possible under delayed pins: %v", ex.PC)
	}
	if m.Vars[e.InputVars[1].ID] != 3 {
		t.Fatalf("model = %v", m)
	}
	// The second branch consumes hash(y)'s value: y must be pinned by then.
	pinned := false
	for _, c := range ex.PC {
		if c.IsConcretization {
			want := sym.Eq(sym.VarTerm(e.InputVars[0]), sym.Int(42))
			if c.Expr.Key() == want.Key() {
				pinned = true
			}
		}
	}
	if !pinned {
		t.Fatalf("y never pinned despite the dependent branch: %v", ex.PC)
	}
}

// TestStaticBottomPropagation: ⊥ flows through arithmetic, comparisons,
// arrays, and short-circuit operators without crashing and flags
// incompleteness exactly when a branch consumes it.
func TestStaticBottomPropagation(t *testing.T) {
	src := `
fn main(x int, i int) {
	var u = hash(x) + 1;
	var v = -u;
	var w = v * 2;
	var a [3];
	a[1] = w;
	var q = a[i];
	if (q > 0 && x > 0) {
		error("deep");
	}
}`
	p := prog(t, src)
	e := New(p, ModeStatic)
	ex := e.Run([]int64{5, 1})
	if !ex.Incomplete {
		t.Fatal("static execution must flag incompleteness")
	}
	if ex.Result.Kind == mini.StopRuntime {
		t.Fatalf("unexpected fault: %s", ex.Result.RuntimeMsg)
	}
}

// TestDivModBySymbolicZero: faults take precedence over imprecision handling.
func TestDivModBySymbolicZero(t *testing.T) {
	src := `fn main(x int, y int) int { return x / y; }`
	p := prog(t, src)
	for _, mode := range []Mode{ModeUnsound, ModeSound, ModeHigherOrder} {
		e := New(p, mode)
		ex := e.Run([]int64{10, 0})
		if ex.Result.Kind != mini.StopRuntime {
			t.Fatalf("mode %v: division by symbolic zero must fault, got %v", mode, ex.Result.Kind)
		}
	}
}

// TestOpUFConsistency: the same $mul symbol is shared across sites, so
// congruence holds between different products.
func TestOpUFConsistency(t *testing.T) {
	src := `
fn main(x int, y int) {
	var a = x * y;
	var b = y * x;
	if (a == b) {
		error("commutes-concretely");
	}
}`
	p := prog(t, src)
	e := New(p, ModeHigherOrder)
	ex := e.Run([]int64{3, 4})
	if ex.Result.Kind != mini.StopError {
		t.Fatalf("result = %+v", ex.Result)
	}
	// Constraint is $mul(x,y) = $mul(y,x): not syntactically trivial (we do
	// not assume commutativity of the unknown instruction) but present.
	if len(ex.PC) != 1 || !sym.HasApply(ex.PC[0].Expr) {
		t.Fatalf("pc = %v", ex.PC)
	}
	mul := e.opFunc("$mul", 2)
	if v, ok := e.Samples.Lookup(mul, []int64{3, 4}); !ok || v != 12 {
		t.Fatalf("missing $mul(3,4) sample: %d %v", v, ok)
	}
	if v, ok := e.Samples.Lookup(mul, []int64{4, 3}); !ok || v != 12 {
		t.Fatalf("missing $mul(4,3) sample: %d %v", v, ok)
	}
}

// TestWhileLoopConstraintPerIteration: each loop-condition evaluation
// produces its own constraint and branch event.
func TestWhileLoopConstraintPerIteration(t *testing.T) {
	src := `
fn main(n int) {
	var i = 0;
	while (i < n) {
		i = i + 1;
	}
}`
	p := prog(t, src)
	e := New(p, ModeSound)
	ex := e.Run([]int64{3})
	// i<n is evaluated 4 times: 0<3, 1<3, 2<3 (taken) and 3<3 (not taken).
	if len(ex.Result.Branches) != 4 {
		t.Fatalf("events = %v", ex.Result.Branches)
	}
	if len(ex.PC) != 4 {
		t.Fatalf("pc = %v", ex.PC)
	}
	// Flipping the exit condition extends the loop.
	st, m := smt.Solve(ex.Alt(3), smt.Options{Pool: e.Pool})
	if st != smt.StatusSat || m.Vars[e.InputVars[0].ID] < 4 {
		t.Fatalf("loop extension: %v %v", st, m)
	}
}

// TestEngineStepBudget: runaway loops stop deterministically in every mode.
func TestEngineStepBudget(t *testing.T) {
	src := `fn main(x int) { while (x == x) { x = x + 1; } }`
	p := prog(t, src)
	for _, mode := range []Mode{ModeStatic, ModeUnsound, ModeSound, ModeSoundDelayed, ModeHigherOrder} {
		e := New(p, mode)
		e.MaxSteps = 5000
		ex := e.Run([]int64{0})
		if ex.Result.Kind != mini.StopRuntime {
			t.Fatalf("mode %v: expected budget fault", mode)
		}
	}
}

// TestNegativeArrayIndexSymbolic: an out-of-bounds symbolic index faults and
// the pc stays consistent (no constraint for the faulting access).
func TestNegativeArrayIndexSymbolic(t *testing.T) {
	src := `
fn main(i int) int {
	var a [4];
	return a[i];
}`
	p := prog(t, src)
	e := New(p, ModeSound)
	ex := e.Run([]int64{-2})
	if ex.Result.Kind != mini.StopRuntime {
		t.Fatalf("result = %+v", ex.Result)
	}
	if len(ex.PC) != 0 {
		t.Fatalf("pc = %v", ex.PC)
	}
}

// TestBoolVariablesThroughBranches: boolean locals hold symbolic formulas.
func TestBoolVariablesThroughBranches(t *testing.T) {
	src := `
fn main(x int) {
	var c = x > 10;
	var d = !c;
	if (d) {
		error("small");
	}
}`
	p := prog(t, src)
	e := New(p, ModeSound)
	ex := e.Run([]int64{3})
	if ex.Result.Kind != mini.StopError {
		t.Fatalf("result = %+v", ex.Result)
	}
	if len(ex.PC) != 1 {
		t.Fatalf("pc = %v", ex.PC)
	}
	// Flip: x > 10.
	st, m := smt.Solve(ex.Alt(0), smt.Options{Pool: e.Pool})
	if st != smt.StatusSat || m.Vars[e.InputVars[0].ID] <= 10 {
		t.Fatalf("flip: %v %v", st, m)
	}
}

// TestSamplesSharedAcrossEngines is a non-goal guard: engines do NOT share
// stores unless explicitly merged; cross-engine pollution would break
// experiment isolation.
func TestSamplesSharedAcrossEngines(t *testing.T) {
	p := prog(t, obscureSrc)
	e1 := New(p, ModeHigherOrder)
	e2 := New(p, ModeHigherOrder)
	e1.Run([]int64{1, 5})
	if e2.Samples.Len() != 0 {
		t.Fatal("engines must not share sample stores implicitly")
	}
}

// TestExecutionInputCopied: mutating the caller's input slice after Run must
// not corrupt the recorded execution.
func TestExecutionInputCopied(t *testing.T) {
	p := prog(t, obscureSrc)
	e := New(p, ModeSound)
	in := []int64{33, 42}
	ex := e.Run(in)
	in[0] = 999
	if ex.Input[0] != 33 {
		t.Fatal("execution input aliased caller slice")
	}
}

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// TestConcreteLoopAllocs checks that input-independent work costs no
// allocation: a loop that only counts and moves array elements at constant
// indices allocates as much at 4N iterations as at N.
func TestConcreteLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled trace buffers at random")
	}
	const src = `
fn main(x int) int {
	var buf [4];
	var i = 0;
	while (i < %d) {
		buf[1] = buf[2] + i;
		buf[2] = buf[1] - 1;
		i = i + 1;
	}
	return x + buf[2];
}`
	for _, mode := range []Mode{ModeHigherOrder, ModeUnsound} {
		allocs := func(n int) float64 {
			e := New(prog(t, fmt.Sprintf(src, n)), mode)
			return testing.AllocsPerRun(50, func() { e.Run([]int64{3}) })
		}
		small, large := allocs(100), allocs(400)
		if large > small {
			t.Errorf("%v: %.0f allocs per run at 100 iterations, %.0f at 400", mode, small, large)
		}
	}
}

// TestMixedCompareAllocs pins what a comparison of a symbolic value with a
// concrete one costs: the difference term and the comparison, two objects.
// The concrete operand enters as its value; materializing it as a constant
// term first would cost a third.
func TestMixedCompareAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled trace buffers at random")
	}
	const src = `
fn main(x int) int {
	var i = 1;
	var b = x == 0;
	while (i <= %d) {
		b = x == i;
		i = i + 1;
	}
	return i;
}`
	for _, mode := range []Mode{ModeHigherOrder, ModeUnsound} {
		allocs := func(n int) float64 {
			e := New(prog(t, fmt.Sprintf(src, n)), mode)
			return testing.AllocsPerRun(50, func() { e.Run([]int64{3}) })
		}
		if perCompare := (allocs(300) - allocs(100)) / 200; perCompare != 2 {
			t.Errorf("%v: %.2f allocs per mixed comparison, want 2", mode, perCompare)
		}
	}
}
