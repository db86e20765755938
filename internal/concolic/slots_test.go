package concolic

import (
	"testing"

	"hotg/internal/mini"
)

// TestFrameSlots runs programs whose variables stress the checker's frame
// slots (mini.Check) on the concolic runner and on the VM, which resolves
// names on its own. Both must agree on the return value and the branch
// trace, and the runner's path constraint must be the expected one.
func TestFrameSlots(t *testing.T) {
	double := &mini.FuncValue{Arity: 1, Rows: []mini.FuncRow{{Args: []int64{7}, Out: 14}}, Default: 3}
	cases := []struct {
		name  string
		src   string
		input []int64
		funcs []*mini.FuncValue
		ret   int64
		pc    []string
	}{
		{
			// The two blocks reuse x's slot for an int and an array.
			name: "sibling-int", src: siblingSrc, input: []int64{5}, ret: 6,
			pc: []string{"(1+-1*a#1 <= 0)"},
		},
		{
			name: "sibling-array", src: siblingSrc, input: []int64{-5}, ret: -10,
			pc: []string{"(0+1*a#1 <= 0)"},
		},
		{
			// A stale chunk would make chunk[0] != 0 symbolic and reach
			// the error site.
			name: "loop-fresh-array", src: loopArraySrc, input: []int64{7}, ret: 24,
			pc: []string{"(-27+3*n#1 <= 0)"},
		},
		{
			// outer passes s and f on to inner, which updates s in place.
			name: "by-reference", src: byRefSrc, input: []int64{0, 7, 7, 0}, funcs: []*mini.FuncValue{double},
			ret: 1,
			pc:  []string{"(0+1*@f(0+1*s[1]#2)+-1*@f(0+1*s[2]#3) = 0)"},
		},
		{
			// Every activation of sum has its own n and m.
			name: "recursion", src: recursionSrc, input: []int64{3}, ret: 6,
			pc: []string{
				"(1+-1*x#1 <= 0)", "(2+-1*x#1 <= 0)", "(3+-1*x#1 <= 0)", "(-3+1*x#1 <= 0)",
				"(-9+3*x#1 = 0)",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := prog(t, tc.src)
			ex := New(p, ModeHigherOrder).RunWith(tc.input, tc.funcs)
			vm := mini.RunVM(mini.CompileVM(p), tc.input, mini.RunOptions{Funcs: tc.funcs})
			got := ex.Result
			if got.Kind != mini.StopReturn || got.Return != tc.ret {
				t.Fatalf("runner: %v return %d (%s %s), want return %d", got.Kind, got.Return, got.ErrorMsg, got.RuntimeMsg, tc.ret)
			}
			if vm.Kind != got.Kind || vm.Return != got.Return || vm.Path() != got.Path() {
				t.Fatalf("runner %v/%d/%s, vm %v/%d/%s", got.Kind, got.Return, got.Path(), vm.Kind, vm.Return, vm.Path())
			}
			if len(ex.PC) != len(tc.pc) {
				t.Fatalf("pc = %v, want %d conjuncts", ex.PC, len(tc.pc))
			}
			for i, c := range ex.PC {
				if c.Expr.Key() != tc.pc[i] {
					t.Errorf("pc[%d] = %s, want %s", i, c.Expr.Key(), tc.pc[i])
				}
			}
		})
	}
}

const siblingSrc = `
fn main(a int) int {
	var r = 0;
	if (a > 0) {
		var x = a + 1;
		r = x;
	} else {
		var x [3];
		x[2] = a;
		r = x[2] * 2;
	}
	return r;
}`

const loopArraySrc = `
fn main(n int) int {
	var i = 0;
	var total = 0;
	while (i < 3) {
		var chunk [6];
		if (chunk[0] != 0) {
			error("stale chunk");
		}
		chunk[0] = n + i;
		total = total + chunk[0];
		i = i + 1;
	}
	if (total > 30) {
		return 0;
	}
	return total;
}`

const byRefSrc = `
fn inner(buf [4]int, g fn(int) int, k int) {
	buf[k] = g(buf[k]) + 1;
}
fn outer(buf [4]int, g fn(int) int) {
	inner(buf, g, 1);
	inner(buf, g, 2);
}
fn main(s [4]int, f fn(int) int) int {
	outer(s, f);
	if (s[1] == s[2]) {
		return 1;
	}
	return s[1] + s[2];
}`

const recursionSrc = `
fn sum(n int) int {
	if (n <= 0) {
		return 0;
	}
	var m = n - 1;
	return n + sum(m);
}
fn main(x int) int {
	var y = sum(x);
	if (y == 6) {
		return y;
	}
	return 0;
}`
