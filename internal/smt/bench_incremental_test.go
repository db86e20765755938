package smt

import (
	"testing"

	"hotg/internal/sym"
)

// The SolveIncremental benchmark family measures the win of incremental
// sessions on the workload shape the search coordinator produces: one shared
// path prefix and a batch of sibling ALT(pc) targets, each differing from its
// siblings only in the negated branch constraint. CI runs these with
// -benchtime=1x (bench-smoke) so they cannot bit-rot.

const benchSiblings = 12

// benchPrefix builds a chained prefix x_{i+1} = x_i + i with a few
// inequalities thrown in, returning the pool, variables, bounds and conjuncts.
func benchPrefix() (*sym.Pool, []*sym.Var, map[int]Bound, []sym.Expr) {
	p := &sym.Pool{}
	n := 10
	vars := make([]*sym.Var, n)
	for i := range vars {
		vars[i] = p.NewVar("x")
	}
	bounds := map[int]Bound{}
	for _, v := range vars {
		bounds[v.ID] = Bound{Lo: -1000, Hi: 1000, HasLo: true, HasHi: true}
	}
	var conjs []sym.Expr
	for i := 0; i+1 < n; i++ {
		conjs = append(conjs, sym.Eq(sym.VarTerm(vars[i+1]),
			sym.AddSum(sym.VarTerm(vars[i]), sym.Int(int64(i)))))
	}
	conjs = append(conjs, sym.Le(sym.VarTerm(vars[0]), sym.Int(100)))
	conjs = append(conjs, sym.Ge(sym.VarTerm(vars[0]), sym.Int(-100)))
	return p, vars, bounds, conjs
}

// benchTarget returns the i-th sibling constraint: alternately satisfiable
// and arithmetically conflicting, so the theory loop and core minimizer run.
func benchTarget(vars []*sym.Var, i int) sym.Expr {
	last := sym.VarTerm(vars[len(vars)-1])
	first := sym.VarTerm(vars[0])
	if i%2 == 0 {
		return sym.Eq(last, sym.Int(int64(36+i)))
	}
	// x_last = x_0 + 36 by the chain; demanding x_last < x_0 + i conflicts in
	// the theory, not in the boolean skeleton.
	return sym.Lt(last, sym.AddSum(first, sym.Int(int64(i%5))))
}

func BenchmarkSolveIncrementalOneShot(b *testing.B) {
	p, vars, bounds, conjs := benchPrefix()
	opts := Options{Pool: p, VarBounds: bounds}
	prefix := sym.AndExpr(conjs...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < benchSiblings; t++ {
			Solve(sym.AndExpr(prefix, benchTarget(vars, t)), opts)
		}
	}
}

func BenchmarkSolveIncrementalExact(b *testing.B) {
	p, vars, bounds, conjs := benchPrefix()
	ctx := NewContext(ContextOptions{Options: Options{Pool: p, VarBounds: bounds}})
	ctx.Assert(sym.AndExpr(conjs...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < benchSiblings; t++ {
			ctx.Push()
			ctx.Assert(benchTarget(vars, t))
			ctx.Check()
			ctx.Pop()
		}
	}
}

func BenchmarkSolveIncrementalWarm(b *testing.B) {
	p, vars, bounds, conjs := benchPrefix()
	ctx := NewContext(ContextOptions{Options: Options{Pool: p, VarBounds: bounds}, Retain: true})
	ctx.Assert(sym.AndExpr(conjs...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < benchSiblings; t++ {
			ctx.Push()
			ctx.Assert(benchTarget(vars, t))
			ctx.Check()
			ctx.Pop()
		}
	}
}

// BenchmarkSolveIncrementalWarmRefute mirrors the Refute shape: a shared base
// with the same theory conflict recurring across sibling checks, where
// retained lemmas pay off most.
func BenchmarkSolveIncrementalWarmRefute(b *testing.B) {
	p, vars, bounds, conjs := benchPrefix()
	ctx := NewContext(ContextOptions{Options: Options{Pool: p, VarBounds: bounds}, Retain: true})
	ctx.Assert(sym.AndExpr(conjs...))
	last := sym.VarTerm(vars[len(vars)-1])
	first := sym.VarTerm(vars[0])
	ctx.Assert(sym.Lt(last, first)) // unsat against the chain, found via theory cores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < benchSiblings; t++ {
			ctx.Push()
			ctx.Assert(sym.Eq(sym.VarTerm(vars[t%len(vars)]), sym.Int(int64(t))))
			ctx.Check()
			ctx.Pop()
		}
	}
}
