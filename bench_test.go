// Benchmarks: one per reproduced table/figure (see DESIGN.md §4 and
// EXPERIMENTS.md), each running the corresponding experiment at a CI-sized
// budget and reporting its headline metrics, plus micro-benchmarks for the
// substrates (VM, concolic engine, SMT solver, validity prover).
//
// Regenerate the full-size tables with:  go run ./cmd/benchtab
package hotg_test

import (
	"math/rand"
	"testing"

	"hotg"
	"hotg/internal/concolic"
	"hotg/internal/fol"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/search"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

func benchConfig() hotg.ExperimentConfig {
	return hotg.ExperimentConfig{Quick: true, Budget: 150, Seed: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := hotg.GetExperiment(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	var failed int
	for i := 0; i < b.N; i++ {
		tab := e.Run(benchConfig())
		failed = len(tab.Failed())
	}
	if failed > 0 {
		b.Fatalf("%s: %d claim(s) failed", id, failed)
	}
}

// One benchmark per table/figure of EXPERIMENTS.md.

func BenchmarkE1Obscure(b *testing.B)            { runExperiment(b, "E1") }
func BenchmarkE2UnsoundDivergence(b *testing.B)  { runExperiment(b, "E2") }
func BenchmarkE4GoodDivergence(b *testing.B)     { runExperiment(b, "E4") }
func BenchmarkE5Incomparable(b *testing.B)       { runExperiment(b, "E5") }
func BenchmarkE6SamplesNeeded(b *testing.B)      { runExperiment(b, "E6") }
func BenchmarkE7EUFEquality(b *testing.B)        { runExperiment(b, "E7") }
func BenchmarkE8SamplePairs(b *testing.B)        { runExperiment(b, "E8") }
func BenchmarkE9MultiStep(b *testing.B)          { runExperiment(b, "E9") }
func BenchmarkE10Soundness(b *testing.B)         { runExperiment(b, "E10") }
func BenchmarkE11Simulation(b *testing.B)        { runExperiment(b, "E11") }
func BenchmarkE12LexerStudy(b *testing.B)        { runExperiment(b, "E12") }
func BenchmarkE13SamplePersistence(b *testing.B) { runExperiment(b, "E13") }
func BenchmarkE14PacketParser(b *testing.B)      { runExperiment(b, "E14") }
func BenchmarkE15GrammarBaseline(b *testing.B)   { runExperiment(b, "E15") }
func BenchmarkE16Callbacks(b *testing.B)         { runExperiment(b, "E16") }
func BenchmarkE17Verification(b *testing.B)      { runExperiment(b, "E17") }
func BenchmarkA1DelayedConc(b *testing.B)        { runExperiment(b, "A1") }
func BenchmarkA2DivergenceRates(b *testing.B)    { runExperiment(b, "A2") }
func BenchmarkA3Summaries(b *testing.B)          { runExperiment(b, "A3") }

// BenchmarkScannerInlining vs BenchmarkScannerSummaries: the raw engine cost
// of one call-heavy execution without and with the summary cache warm.
func BenchmarkScannerInlining(b *testing.B) {
	w := lexapp.Scanner()
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	in := w.Seeds[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(in)
	}
}

func BenchmarkScannerSummaries(b *testing.B) {
	w := lexapp.Scanner()
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	eng.Summaries = concolic.NewSummaryCache()
	eng.Run(w.Seeds[0]) // warm the cache
	in := w.Seeds[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(in)
	}
}

// Micro-benchmarks for the substrates.

// BenchmarkVMLexer measures the optimized bytecode VM on one lexer execution.
func BenchmarkVMLexer(b *testing.B) {
	w := lexapp.Lexer()
	c := mini.CompileVM(w.Build()).Optimize()
	in := lexapp.EncodeInput("while 1 do end")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mini.RunVM(c, in, mini.RunOptions{})
		if res.Kind != mini.StopError {
			b.Fatal("unexpected result")
		}
	}
}

// BenchmarkConcolicRunLexer measures one higher-order concolic execution of
// the lexer (concrete + symbolic + sampling). Input-independent values build
// no terms, so its allocs/op count only the input-dependent work (the
// symbolic terms, samples and the run's result) and stay flat in the length
// of the concrete loops.
func BenchmarkConcolicRunLexer(b *testing.B) {
	w := lexapp.Lexer()
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	in := lexapp.JunkSeed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := eng.Run(in)
		if len(ex.PC) == 0 {
			b.Fatal("empty pc")
		}
	}
}

// BenchmarkSMTConjunction measures the solver on a typical sliced alternate
// path constraint (a dozen linear constraints over byte variables).
func BenchmarkSMTConjunction(b *testing.B) {
	var p sym.Pool
	vars := make([]*sym.Var, 8)
	bounds := map[int]smt.Bound{}
	for i := range vars {
		vars[i] = p.NewVar("b")
		bounds[vars[i].ID] = smt.Bound{Lo: 0, Hi: 127, HasLo: true, HasHi: true}
	}
	parts := []sym.Expr{}
	for i, v := range vars {
		parts = append(parts, sym.Ne(sym.VarTerm(v), sym.Int(32)))
		parts = append(parts, sym.Ge(sym.VarTerm(v), sym.Int(int64(i))))
	}
	parts = append(parts, sym.Eq(
		sym.AddSum(sym.VarTerm(vars[0]), sym.VarTerm(vars[7])), sym.Int(150)))
	f := sym.AndExpr(parts...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := smt.Solve(f, smt.Options{VarBounds: bounds})
		if st != smt.StatusSat {
			b.Fatal(st)
		}
	}
}

// BenchmarkSMTUFLIA measures the solver with Ackermann-reduced uninterpreted
// functions (congruence reasoning).
func BenchmarkSMTUFLIA(b *testing.B) {
	var p sym.Pool
	x, y, z := p.NewVar("x"), p.NewVar("y"), p.NewVar("z")
	h := p.FuncSym("h", 1)
	f := sym.AndExpr(
		sym.Eq(sym.VarTerm(x), sym.VarTerm(y)),
		sym.Eq(sym.ApplyTerm(h, sym.VarTerm(y)), sym.VarTerm(z)),
		sym.Ne(sym.ApplyTerm(h, sym.VarTerm(x)), sym.AddSum(sym.VarTerm(z), sym.Int(1))),
		sym.Le(sym.VarTerm(z), sym.Int(100)),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := smt.Solve(f, smt.Options{Pool: &p})
		if st != smt.StatusSat {
			b.Fatal(st)
		}
	}
}

// BenchmarkProverHashInversion measures the validity prover on the Section 7
// core move: inverting a keyword hash through its samples.
func BenchmarkProverHashInversion(b *testing.B) {
	var p sym.Pool
	vars := make([]*sym.Sum, lexapp.ChunkLen)
	for i := range vars {
		vars[i] = sym.VarTerm(p.NewVar("c"))
	}
	h := p.FuncSym("hashstr", lexapp.ChunkLen)
	samples := sym.NewSampleStore()
	for _, kw := range lexapp.Keywords {
		args := make([]int64, lexapp.ChunkLen)
		copy(args, lexapp.EncodeInput(kw.Word)[:lexapp.ChunkLen])
		samples.Add(h, args, lexapp.KeywordHash(kw.Word))
	}
	pc := sym.Eq(sym.ApplyTerm(h, vars...), sym.Int(lexapp.KeywordHash("while")))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out := fol.Prove(pc, samples, fol.Options{Pool: &p, NoRefute: true})
		if out != fol.OutcomeProved {
			b.Fatal(out)
		}
	}
}

// BenchmarkSearchFoo measures a complete two-step higher-order search on the
// paper's foo example.
func BenchmarkSearchFoo(b *testing.B) {
	w := lexapp.Foo()
	for i := 0; i < b.N; i++ {
		eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
		st := search.Run(eng, search.Options{MaxRuns: 20, Seeds: w.Seeds})
		if len(st.ErrorSitesFound()) != 1 {
			b.Fatal("bug not found")
		}
	}
}

// BenchmarkSearchParallel compares wall-clock time of the E12 lexer search
// at different worker counts. The search trajectory is bit-identical across
// the variants (see TestSearchDeterministicAcrossWorkers); only elapsed time
// differs. On the lexer a second worker buys about nothing: a 300-run search
// measured 1.0x at 2 workers against 1 on a 2-CPU machine, because the
// serial coordinator work, executions and GC outweigh the proofs that fan
// out. The proofs/op metric reports the proof-cache misses, the proofs the
// search actually ran.
func benchSearchParallel(b *testing.B, workers int) {
	w := lexapp.Lexer()
	prog := w.Build()
	var st *search.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := concolic.New(prog, concolic.ModeHigherOrder)
		st = search.Run(eng, search.Options{
			MaxRuns: 150, Seeds: w.Seeds, Bounds: w.Bounds, Workers: workers,
		})
		if st.Runs == 0 || st.ProverCalls == 0 {
			b.Fatal("search did no proving work")
		}
	}
	b.ReportMetric(float64(st.ProofCacheMisses), "proofs/op")
}

func BenchmarkSearchParallel1(b *testing.B) { benchSearchParallel(b, 1) }
func BenchmarkSearchParallel4(b *testing.B) { benchSearchParallel(b, 4) }
func BenchmarkSearchParallel8(b *testing.B) { benchSearchParallel(b, 8) }

// BenchmarkFuzzLexer measures the blackbox baseline for comparison.
func BenchmarkFuzzLexer(b *testing.B) {
	w := lexapp.Lexer()
	p := w.Build()
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hotg.Fuzz(p, hotg.FuzzOptions{MaxRuns: 50, Seeds: w.Seeds, Bounds: w.Bounds, Rand: r})
	}
}
