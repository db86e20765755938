package search_test

import (
	"fmt"
	"strings"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/search"
)

// fingerprint renders every deterministic observable of a search outcome —
// the whole trajectory, not just the headline numbers. Two searches with
// equal fingerprints executed the same runs in the same order and drew the
// same conclusions from them.
func fingerprint(st *search.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "runs=%d tests=%d inter=%d div=%d\n",
		st.Runs, st.TestsGenerated, st.IntermediateTests, st.Divergences)
	fmt.Fprintf(&b, "solver=%d/%d prover=%d proved=%d inv=%d unk=%d\n",
		st.SolverSat, st.SolverCalls, st.ProverCalls, st.ProverProved,
		st.ProverInvalid, st.ProverUnknown)
	fmt.Fprintf(&b, "multi=%d samples=%d incomplete=%v exhausted=%v\n",
		st.MultiStepChains, st.SamplesLearned, st.Incomplete, st.Exhausted)
	fmt.Fprintf(&b, "cache=%d/%d\n", st.ProofCacheHits, st.ProofCacheHits+st.ProofCacheMisses)
	fmt.Fprintf(&b, "cov=%d/%d paths=%d covtrace=%v\n",
		st.BranchSidesCovered(), st.BranchSidesTotal(), st.Paths(), st.CovTrace)
	fmt.Fprintf(&b, "sites=%v\n", st.ErrorSitesFound())
	for _, bug := range st.Bugs {
		fmt.Fprintf(&b, "bug: %v\n", bug)
	}
	return b.String()
}

// runWorkers performs one search of the workload at the given worker count.
func runWorkers(w *lexapp.Workload, mode concolic.Mode, opts search.Options, workers int, summaries bool) *search.Stats {
	prog := w.Build()
	eng := concolic.New(prog, mode)
	if summaries {
		eng.Summaries = concolic.NewSummaryCache()
	}
	if len(opts.Seeds) == 0 {
		opts.Seeds = w.Seeds
	}
	if opts.Bounds == nil {
		opts.Bounds = w.Bounds
	}
	opts.Workers = workers
	return search.Run(eng, opts)
}

// assertSameAcrossWorkers checks that the search trajectory is bit-identical
// at every worker count — the central exactness guarantee of the parallel
// coordinator (tests run on the coordinator; proof results apply in
// constraint order).
func assertSameAcrossWorkers(t *testing.T, name string, w *lexapp.Workload, mode concolic.Mode, opts search.Options, summaries bool) {
	t.Helper()
	base := fingerprint(runWorkers(w, mode, opts, 1, summaries))
	for _, workers := range []int{2, 8} {
		got := fingerprint(runWorkers(w, mode, opts, workers, summaries))
		if got != base {
			t.Errorf("%s: workers=%d fingerprint differs from workers=1\n--- workers=1:\n%s--- workers=%d:\n%s",
				name, workers, base, workers, got)
		}
	}
}

// TestSearchDeterministicAcrossWorkers is the headline determinism check on
// the E12 lexer case study: the multi-worker search finds the same bugs with
// the same coverage, the same generated tests, and the same per-run coverage
// trace as the sequential one.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	w := lexapp.Lexer()
	opts := search.Options{MaxRuns: 120}
	base := runWorkers(w, concolic.ModeHigherOrder, opts, 1, false)
	if len(base.Bugs) == 0 {
		t.Fatal("sequential lexer search found no bugs; workload regressed")
	}
	if base.ProverCalls == 0 {
		t.Fatal("sequential lexer search made no prover calls")
	}
	fp := fingerprint(base)
	for _, workers := range []int{2, 4, 8} {
		got := fingerprint(runWorkers(w, concolic.ModeHigherOrder, opts, workers, false))
		if got != fp {
			t.Errorf("workers=%d fingerprint differs from workers=1\n--- workers=1:\n%s--- workers=%d:\n%s",
				workers, fp, workers, got)
		}
	}
}

// TestSearchDeterministicWorkloads sweeps the remaining search flavors:
// multi-step continuations, the invalidity prover, summaries, and the
// satisfiability (non-higher-order) path with its own solve cache.
func TestSearchDeterministicWorkloads(t *testing.T) {
	t.Run("foo", func(t *testing.T) {
		assertSameAcrossWorkers(t, "foo", lexapp.Foo(), concolic.ModeHigherOrder,
			search.Options{MaxRuns: 30}, false)
	})
	t.Run("bar-refute", func(t *testing.T) {
		assertSameAcrossWorkers(t, "bar-refute", lexapp.Bar(), concolic.ModeHigherOrder,
			search.Options{MaxRuns: 40, Refute: true}, false)
	})
	t.Run("kstep3", func(t *testing.T) {
		assertSameAcrossWorkers(t, "kstep3", lexapp.KStep(3), concolic.ModeHigherOrder,
			search.Options{MaxRuns: 60, MaxMultiStep: 4}, false)
	})
	t.Run("scanner-summaries", func(t *testing.T) {
		assertSameAcrossWorkers(t, "scanner-summaries", lexapp.Scanner(), concolic.ModeHigherOrder,
			search.Options{MaxRuns: 60}, true)
	})
	t.Run("tokenparser-refute", func(t *testing.T) {
		assertSameAcrossWorkers(t, "tokenparser-refute", lexapp.TokenParser(), concolic.ModeHigherOrder,
			search.Options{MaxRuns: 60, Refute: true}, false)
	})
	t.Run("scanner-refute", func(t *testing.T) {
		assertSameAcrossWorkers(t, "scanner-refute", lexapp.Scanner(), concolic.ModeHigherOrder,
			search.Options{MaxRuns: 60, Refute: true}, false)
	})
	t.Run("lexer-dart-sound", func(t *testing.T) {
		assertSameAcrossWorkers(t, "lexer-dart-sound", lexapp.Lexer(), concolic.ModeSound,
			search.Options{MaxRuns: 60}, false)
	})
}

// TestProofCacheHitsOnLexer asserts the cache actually fires on the lexer
// workload — re-derived targets and shared formulas must not re-run the
// prover.
func TestProofCacheHitsOnLexer(t *testing.T) {
	st := runWorkers(lexapp.Lexer(), concolic.ModeHigherOrder, search.Options{MaxRuns: 120}, 1, false)
	if st.ProofCacheMisses == 0 {
		t.Fatal("no proof-cache misses recorded; cache accounting broken")
	}
	if st.ProofCacheHits+st.ProofCacheMisses != st.ProverCalls {
		t.Fatalf("cache accounting mismatch: hits=%d misses=%d prover calls=%d",
			st.ProofCacheHits, st.ProofCacheMisses, st.ProverCalls)
	}
}

// TestWorkersDefault checks the zero value resolves to a positive count and
// is reported in Stats.
func TestWorkersDefault(t *testing.T) {
	st := runWorkers(lexapp.Foo(), concolic.ModeHigherOrder, search.Options{MaxRuns: 5}, 0, false)
	if st.Workers < 1 {
		t.Fatalf("Workers not resolved: %d", st.Workers)
	}
	if len(st.ProofsPerWorker) != st.Workers {
		t.Fatalf("ProofsPerWorker has %d slots for %d workers", len(st.ProofsPerWorker), st.Workers)
	}
}
