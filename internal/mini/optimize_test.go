package mini_test

import (
	"math/rand"
	"strings"
	"testing"

	"hotg/internal/mini"
)

func TestOptimizeFoldsConstants(t *testing.T) {
	_, c := vmProg(t, `fn main(x int) int { return x + (2 + 3) * 4; }`)
	before := c.InstrCount()
	c.Optimize()
	after := c.InstrCount()
	if after >= before {
		t.Fatalf("no shrinkage: %d → %d\n%s", before, after, c.Disasm("main"))
	}
	// (2+3)*4 must have been folded to a single push of 20.
	if !strings.Contains(c.Disasm("main"), "push     20") {
		t.Fatalf("folded constant missing:\n%s", c.Disasm("main"))
	}
	rv := mini.RunVM(c, []int64{1}, mini.RunOptions{})
	if rv.Kind != mini.StopReturn || rv.Return != 21 {
		t.Fatalf("rv = %+v", rv)
	}
}

func TestOptimizeKeepsRuntimeFaults(t *testing.T) {
	// 1/0 is a constant expression but must still fault at run time.
	_, c := vmProg(t, `fn main() int { return 1 / 0; }`)
	c.Optimize()
	rv := mini.RunVM(c, nil, mini.RunOptions{})
	if rv.Kind != mini.StopRuntime {
		t.Fatalf("constant division by zero must fault: %+v", rv)
	}
}

func TestOptimizeKeepsBranchEvents(t *testing.T) {
	// Constant conditions still record events (trace equivalence with the
	// tree walker).
	p, c := vmProg(t, `
fn main(x int) {
	if (1 < 2) {
		if (x > 0) { error("e"); }
	}
	if (true && x > 5) { error("f"); }
}`)
	c.Optimize()
	for _, in := range [][]int64{{0}, {3}, {9}} {
		rw := walk(p, in, mini.RunOptions{})
		rv := mini.RunVM(c, in, mini.RunOptions{})
		if !sameResult(rw, rv) {
			t.Fatalf("input %v: walker %+v (%s) vs optimized vm %+v (%s)",
				in, rw, rw.Path(), rv, rv.Path())
		}
	}
}

func TestOptimizeJumpThreading(t *testing.T) {
	// Nested if/else produces jump-to-jump chains; threading must preserve
	// semantics.
	p, c := vmProg(t, `
fn main(x int) int {
	var r = 0;
	if (x > 0) {
		if (x > 10) { r = 2; } else { r = 1; }
	} else {
		if (x < -10) { r = -2; } else { r = -1; }
	}
	return r;
}`)
	c.Optimize()
	for _, in := range [][]int64{{20}, {5}, {0}, {-5}, {-20}} {
		rw := walk(p, in, mini.RunOptions{})
		rv := mini.RunVM(c, in, mini.RunOptions{})
		if !sameResult(rw, rv) {
			t.Fatalf("input %v: %+v vs %+v", in, rw, rv)
		}
	}
}

// TestOptimizeEquivalenceProperty: optimized bytecode is observationally
// identical to the concolic tree walker on random programs.
func TestOptimizeEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	ns := vmNatives()
	shrunk := 0
	for iter := 0; iter < 150; iter++ {
		src := mini.GenProgram(r, mini.GenConfig{Natives: []string{"hash"}, NumHelpers: 1})
		p := mini.MustCheck(mini.MustParse(src), ns)
		c := mini.CompileVM(p)
		before := c.InstrCount()
		c.Optimize()
		if c.InstrCount() < before {
			shrunk++
		}
		for rep := 0; rep < 3; rep++ {
			in := []int64{int64(r.Intn(41) - 20), int64(r.Intn(41) - 20), int64(r.Intn(41) - 20)}
			rw := walk(p, in, mini.RunOptions{})
			rv := mini.RunVM(c, in, mini.RunOptions{})
			if !sameResult(rw, rv) {
				t.Fatalf("iter %d input %v:\nwalker %+v\nopt-vm %+v\n%s", iter, in, rw, rv, src)
			}
		}
	}
	if shrunk == 0 {
		t.Fatal("the optimizer never shrank anything across 150 random programs")
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	_, c := vmProg(t, `fn main(x int) int { return (1 + 2) * (3 - x) / 2; }`)
	c.Optimize()
	d1 := c.Disasm("main")
	c.Optimize()
	if d2 := c.Disasm("main"); d1 != d2 {
		t.Fatalf("optimize not idempotent:\n%s\nvs\n%s", d1, d2)
	}
}
