package mini_test

import (
	"math/rand"
	"strings"
	"testing"

	"hotg/internal/mini"
)

func vmNatives() mini.Natives {
	ns := mini.Natives{}
	ns.Register("hash", 1, func(a []int64) int64 { return (a[0]*a[0]*7 + 13) % 1000 })
	return ns
}

func vmProg(t testing.TB, src string) (*mini.Program, *mini.Compiled) {
	t.Helper()
	p, err := mini.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := mini.Check(p, vmNatives()); err != nil {
		t.Fatalf("check: %v", err)
	}
	return p, mini.CompileVM(p)
}

// sameResult compares everything except Steps (instruction counts differ
// from AST-visit counts) and fault wording (no positions in bytecode).
func sameResult(a, b *mini.Result) bool {
	return a.Kind == b.Kind && a.Return == b.Return &&
		a.ErrorSite == b.ErrorSite && a.ErrorMsg == b.ErrorMsg &&
		a.Path() == b.Path() && len(a.Branches) == len(b.Branches)
}

func TestVMBasics(t *testing.T) {
	p, c := vmProg(t, `
fn main(x int, y int) int {
	var s = x + y * 2 - 3;
	var q = x / y;
	return s * 10 + q * 100 + x % y;
}`)
	for _, in := range [][]int64{{7, 2}, {-9, 4}, {0, 1}} {
		rw := walk(p, in, mini.RunOptions{})
		rv := mini.RunVM(c, in, mini.RunOptions{})
		if !sameResult(rw, rv) {
			t.Fatalf("input %v: walker %+v vs vm %+v", in, rw, rv)
		}
	}
}

func TestVMBranchEvents(t *testing.T) {
	p, c := vmProg(t, `
fn main(x int) {
	if (x > 0 && x < 10) {
		error("in-range");
	}
	if (x == -1 || x == -2) {
		error("neg");
	}
}`)
	for _, in := range [][]int64{{5}, {0}, {20}, {-1}, {-2}, {-3}} {
		rw := walk(p, in, mini.RunOptions{})
		rv := mini.RunVM(c, in, mini.RunOptions{})
		if !sameResult(rw, rv) {
			t.Fatalf("input %v: walker %+v (%s) vs vm %+v (%s)", in, rw, rw.Path(), rv, rv.Path())
		}
		for i := range rw.Branches {
			if rw.Branches[i] != rv.Branches[i] {
				t.Fatalf("input %v: event %d: %v vs %v", in, i, rw.Branches[i], rv.Branches[i])
			}
		}
	}
}

func TestVMArraysAndCalls(t *testing.T) {
	p, c := vmProg(t, `
fn fill(a [4]int, v int) {
	var i = 0;
	while (i < 4) { a[i] = v + i; i = i + 1; }
}
fn sum(a [4]int) int {
	var s = 0;
	var i = 0;
	while (i < 4) { s = s + a[i]; i = i + 1; }
	return s;
}
fn main(v int) int {
	var a [4];
	fill(a, v);
	return sum(a);
}`)
	for _, in := range [][]int64{{0}, {10}, {-3}} {
		rw := walk(p, in, mini.RunOptions{})
		rv := mini.RunVM(c, in, mini.RunOptions{})
		if !sameResult(rw, rv) {
			t.Fatalf("input %v: %+v vs %+v", in, rw, rv)
		}
	}
}

func TestVMFaults(t *testing.T) {
	cases := []struct {
		src   string
		input []int64
	}{
		{`fn main(x int) int { return 1 / x; }`, []int64{0}},
		{`fn main(x int) int { return 1 % x; }`, []int64{0}},
		{`fn main(x int) int { var a [3]; return a[x]; }`, []int64{7}},
		{`fn main(x int) { var a [3]; a[x] = 1; }`, []int64{-1}},
		{`fn main(x int) { while (x == x) { } }`, []int64{1}},
		{`fn f(n int) int { return f(n); } fn main(n int) int { return f(n); }`, []int64{1}},
	}
	for _, cse := range cases {
		p, c := vmProg(t, cse.src)
		rw := walk(p, cse.input, mini.RunOptions{MaxSteps: 5000, MaxDepth: 32})
		rv := mini.RunVM(c, cse.input, mini.RunOptions{MaxSteps: 5000, MaxDepth: 32})
		if rw.Kind != mini.StopRuntime || rv.Kind != mini.StopRuntime {
			t.Fatalf("src %q: walker %v vm %v", cse.src, rw.Kind, rv.Kind)
		}
	}
}

func TestVMRecursion(t *testing.T) {
	p, c := vmProg(t, `
fn fib(n int) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
fn main(n int) int { return fib(n); }`)
	rv := mini.RunVM(c, []int64{12}, mini.RunOptions{})
	if rv.Kind != mini.StopReturn || rv.Return != 144 {
		t.Fatalf("fib(12) = %+v", rv)
	}
	rw := walk(p, []int64{12}, mini.RunOptions{})
	if !sameResult(rw, rv) {
		t.Fatalf("walker %+v vs vm %+v", rw, rv)
	}
}

func TestVMNativeHook(t *testing.T) {
	_, c := vmProg(t, `fn main(x int) int { return hash(x) + hash(3); }`)
	calls := 0
	rv := mini.RunVM(c, []int64{2}, mini.RunOptions{
		OnNativeCall: func(name string, args []int64, out int64) {
			calls++
			if name != "hash" || len(args) != 1 {
				t.Fatalf("hook: %s %v", name, args)
			}
		},
	})
	if rv.Kind != mini.StopReturn || calls != 2 {
		t.Fatalf("rv=%+v calls=%d", rv, calls)
	}
}

func TestVMVoidCallDiscard(t *testing.T) {
	p, c := vmProg(t, `
fn poke(a [2]int, v int) { a[0] = v; }
fn main(v int) int {
	var a [2];
	poke(a, v);
	poke(a, v + 1);
	return a[0];
}`)
	rw := walk(p, []int64{5}, mini.RunOptions{})
	rv := mini.RunVM(c, []int64{5}, mini.RunOptions{})
	if !sameResult(rw, rv) || rv.Return != 6 {
		t.Fatalf("walker %+v vs vm %+v", rw, rv)
	}
}

// TestVMAgreesWithInterpProperty is the headline equivalence test: on random
// programs (with helper functions) and random inputs, the VM and the concolic
// tree walker agree on everything observable.
func TestVMAgreesWithInterpProperty(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	ns := vmNatives()
	for iter := 0; iter < 200; iter++ {
		src := mini.GenProgram(r, mini.GenConfig{Natives: []string{"hash"}, NumHelpers: 2})
		p := mini.MustCheck(mini.MustParse(src), ns)
		c := mini.CompileVM(p)
		for rep := 0; rep < 3; rep++ {
			in := []int64{int64(r.Intn(41) - 20), int64(r.Intn(41) - 20), int64(r.Intn(41) - 20)}
			rw := walk(p, in, mini.RunOptions{})
			rv := mini.RunVM(c, in, mini.RunOptions{})
			if !sameResult(rw, rv) {
				t.Fatalf("iter %d input %v:\nwalker %+v\nvm     %+v\n%s", iter, in, rw, rv, src)
			}
		}
	}
}

func TestVMDisasm(t *testing.T) {
	_, c := vmProg(t, `fn main(x int) { if (x > 0) { error("p"); } }`)
	d := c.Disasm("main")
	for _, want := range []string{"load", "push", "gt", "brf", "error"} {
		if !strings.Contains(d, want) {
			t.Fatalf("disasm missing %q:\n%s", want, d)
		}
	}
	if !strings.Contains(c.Disasm("nope"), "no function") {
		t.Fatal("missing-function disasm")
	}
}
