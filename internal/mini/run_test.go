package mini_test

import (
	"math/rand"
	"strings"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/mini"
)

// walk runs p on the concolic engine's tree walker. Package mini's only
// evaluator is the VM, so the walker is the independent reference these tests
// check it against.
func walk(p *mini.Program, input []int64, opts mini.RunOptions) *mini.Result {
	e := concolic.New(p, concolic.ModeUnsound)
	e.MaxSteps, e.MaxDepth = opts.MaxSteps, opts.MaxDepth
	return e.RunWith(input, opts.Funcs).Result
}

// evaluate runs p on both evaluators of mini, keyed by name.
func evaluate(p *mini.Program, input []int64, opts mini.RunOptions) map[string]*mini.Result {
	return map[string]*mini.Result{
		"walker": walk(p, input, opts),
		"vm":     mini.RunVM(mini.CompileVM(p), input, opts),
	}
}

func TestRunArithmetic(t *testing.T) {
	p, _ := vmProg(t, `
fn main(x int, y int) int {
	var s = x + y * 2 - 3;
	var q = x / y;
	var r = x % y;
	return s * 10 + q * 100 + r;
}`)
	want := int64((7+2*2-3)*10 + (7/2)*100 + 7%2)
	for name, res := range evaluate(p, []int64{7, 2}, mini.RunOptions{}) {
		if res.Kind != mini.StopReturn {
			t.Fatalf("%s: kind = %v (%s)", name, res.Kind, res.RuntimeMsg)
		}
		if res.Return != want {
			t.Fatalf("%s: return = %d, want %d", name, res.Return, want)
		}
	}
}

func TestRunBranchTrace(t *testing.T) {
	p, _ := vmProg(t, `
fn main(x int) {
	if (x > 0) { x = 1; }
	if (x == 1) { x = 2; }
}`)
	for name, res := range evaluate(p, []int64{5}, mini.RunOptions{}) {
		if res.Path() != "11" {
			t.Fatalf("%s: path = %q", name, res.Path())
		}
	}
	for name, res := range evaluate(p, []int64{-1}, mini.RunOptions{}) {
		if res.Path() != "00" {
			t.Fatalf("%s: path = %q", name, res.Path())
		}
	}
}

func TestRunWhileAndArrays(t *testing.T) {
	p, _ := vmProg(t, `
fn main(n int) int {
	var a [10];
	var i = 0;
	while (i < n) {
		a[i] = i * i;
		i = i + 1;
	}
	var s = 0;
	i = 0;
	while (i < n) {
		s = s + a[i];
		i = i + 1;
	}
	return s;
}`)
	for name, res := range evaluate(p, []int64{5}, mini.RunOptions{}) {
		if res.Kind != mini.StopReturn || res.Return != 0+1+4+9+16 {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
}

func TestRunErrorSite(t *testing.T) {
	p, _ := vmProg(t, `
fn main(x int) {
	if (x == hash(7)) { error("gotcha"); }
}`)
	h := vmNatives()["hash"].Fn([]int64{7})
	for name, res := range evaluate(p, []int64{h}, mini.RunOptions{}) {
		if res.Kind != mini.StopError || res.ErrorMsg != "gotcha" || res.ErrorSite != 0 {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
	for name, res := range evaluate(p, []int64{h + 1}, mini.RunOptions{}) {
		if res.Kind != mini.StopReturn {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
}

func TestRunRuntimeFaults(t *testing.T) {
	cases := []struct {
		src   string
		input []int64
		want  string
	}{
		{`fn main(x int) int { return 1 / x; }`, []int64{0}, "division by zero"},
		{`fn main(x int) int { return 1 % x; }`, []int64{0}, "modulo by zero"},
		{`fn main(x int) int { var a [3]; return a[x]; }`, []int64{5}, "out of bounds"},
		{`fn main(x int) { var a [3]; a[x] = 1; }`, []int64{-1}, "out of bounds"},
		{`fn main(x int) { while (x == x) { } }`, []int64{1}, "step budget"},
	}
	for _, c := range cases {
		p, _ := vmProg(t, c.src)
		for name, res := range evaluate(p, c.input, mini.RunOptions{MaxSteps: 10000}) {
			if res.Kind != mini.StopRuntime || !strings.Contains(res.RuntimeMsg, c.want) {
				t.Fatalf("%s: src %q: res = %+v", name, c.src, res)
			}
		}
	}
}

func TestRunRecursion(t *testing.T) {
	p, _ := vmProg(t, `
fn fib(n int) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
fn main(n int) int { return fib(n); }`)
	for name, res := range evaluate(p, []int64{10}, mini.RunOptions{}) {
		if res.Kind != mini.StopReturn || res.Return != 55 {
			t.Fatalf("%s: fib(10) = %+v", name, res)
		}
	}
	p, _ = vmProg(t, `
fn loop(n int) int { return loop(n); }
fn main(n int) int { return loop(n); }`)
	for name, res := range evaluate(p, []int64{1}, mini.RunOptions{MaxDepth: 32}) {
		if res.Kind != mini.StopRuntime || !strings.Contains(res.RuntimeMsg, "recursion") {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
}

func TestRunArrayByReference(t *testing.T) {
	p, _ := vmProg(t, `
fn fill(a [4]int, v int) {
	var i = 0;
	while (i < 4) { a[i] = v; i = i + 1; }
}
fn main(v int) int {
	var a [4];
	fill(a, v);
	return a[0] + a[3];
}`)
	for name, res := range evaluate(p, []int64{21}, mini.RunOptions{}) {
		if res.Kind != mini.StopReturn || res.Return != 42 {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
}

func TestRunShortCircuit(t *testing.T) {
	p, _ := vmProg(t, `
fn main(i int) int {
	var a [3];
	a[0] = 7;
	// Without short-circuit &&, i==5 would fault on a[i].
	if (i < 3 && a[i] > 0) { return 1; }
	if (i >= 3 || a[i] == 0) { return 2; }
	return 3;
}`)
	for name, res := range evaluate(p, []int64{5}, mini.RunOptions{}) {
		if res.Kind != mini.StopReturn || res.Return != 2 {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
	for name, res := range evaluate(p, []int64{0}, mini.RunOptions{}) {
		if res.Kind != mini.StopReturn || res.Return != 1 {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
}

// TestRunNativeObserver runs on the VM only: the native-call hook is a VM
// option (the summary probe's sample hook).
func TestRunNativeObserver(t *testing.T) {
	_, c := vmProg(t, `fn main(x int) int { return hash(x) + hash(3); }`)
	var calls []string
	res := mini.RunVM(c, []int64{2}, mini.RunOptions{
		OnNativeCall: func(name string, args []int64, result int64) {
			calls = append(calls, name)
			if len(args) != 1 {
				t.Fatalf("args = %v", args)
			}
		},
	})
	if res.Kind != mini.StopReturn {
		t.Fatalf("res = %+v", res)
	}
	if len(calls) != 2 {
		t.Fatalf("calls = %v", calls)
	}
}

func TestRunFallOffEndReturnsZero(t *testing.T) {
	p, _ := vmProg(t, `
fn f(x int) int { if (x > 0) { return 1; } }
fn main(x int) int { return f(x); }`)
	for name, res := range evaluate(p, []int64{-1}, mini.RunOptions{}) {
		if res.Kind != mini.StopReturn || res.Return != 0 {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
}

// TestRunOverflowingComparison: arithmetic wraps at int64 and comparisons see
// the wrapped value, in both evaluators.
func TestRunOverflowingComparison(t *testing.T) {
	p, _ := vmProg(t, `
fn main(x int) int {
	if (9223372036854775807 + 1 > 0) { return 1; }
	if (x + 1 > x) { return 2; }
	return 3;
}`)
	for name, res := range evaluate(p, []int64{9223372036854775807}, mini.RunOptions{}) {
		if res.Kind != mini.StopReturn || res.Return != 3 || res.Path() != "00" {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
}

// TestFormattedSemantics: the formatted program behaves identically.
func TestFormattedSemantics(t *testing.T) {
	ns := mini.Natives{}
	ns.Register("hash", 1, func(a []int64) int64 { return a[0]*7%13 + 1 })
	r := rand.New(rand.NewSource(59))
	for iter := 0; iter < 40; iter++ {
		src := mini.GenProgram(r, mini.GenConfig{Natives: []string{"hash"}})
		p1 := mini.MustCheck(mini.MustParse(src), ns)
		p2 := mini.MustCheck(mini.MustParse(mini.Format(mini.MustParse(src))), ns)
		in := []int64{int64(r.Intn(21) - 10), int64(r.Intn(21) - 10), int64(r.Intn(21) - 10)}
		r1 := walk(p1, in, mini.RunOptions{})
		r2 := walk(p2, in, mini.RunOptions{})
		if r1.Kind != r2.Kind || r1.Return != r2.Return || r1.Path() != r2.Path() {
			t.Fatalf("iter %d: semantics changed by formatting\n%+v\n%+v", iter, r1, r2)
		}
	}
}

// FuzzParser: arbitrary input must never panic the lexer/parser/checker, and
// anything that parses must survive the format/parse round trip.
func FuzzParser(f *testing.F) {
	f.Add(`fn main(x int) { if (x > 0) { error("p"); } }`)
	f.Add(`fn f(a [3]int) int { return a[0]; } fn main(y int) int { var a [3]; a[0] = y; return f(a); }`)
	f.Add(`fn main() { while (true) { } }`)
	f.Add("fn main(\x00")
	f.Add(`fn main() { var x = "unterminated`)
	f.Add(`fn main() { var x = 9223372036854775807 + 1; }`)
	ns := mini.Natives{}
	ns.Register("hash", 1, func(a []int64) int64 { return a[0] })
	f.Fuzz(func(t *testing.T, src string) {
		p, err := mini.Parse(src)
		if err != nil {
			return
		}
		text := mini.Format(p)
		p2, err := mini.Parse(text)
		if err != nil {
			t.Fatalf("formatted output failed to parse: %v\n%s", err, text)
		}
		if !mini.EqualAST(p, p2) {
			t.Fatalf("round trip changed AST:\n%s", text)
		}
		// If it also checks, it must compile and run without panicking.
		if err := mini.Check(p, ns); err != nil {
			return
		}
		sh := p.Shape()
		input := make([]int64, len(sh.Names))
		opts := mini.RunOptions{MaxSteps: 20000, MaxDepth: 64}
		res := walk(p, input, opts)
		resVM := mini.RunVM(mini.CompileVM(p), input, opts)
		// Budget faults may trigger at different instruction counts; all
		// other outcomes must agree.
		if res.Kind != mini.StopRuntime && resVM.Kind != mini.StopRuntime {
			if res.Kind != resVM.Kind || res.Return != resVM.Return || res.Path() != resVM.Path() {
				t.Fatalf("walker/vm disagree on %q: %+v vs %+v", src, res, resVM)
			}
		}
	})
}
