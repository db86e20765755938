package search_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"hotg/internal/concolic"
	"hotg/internal/faults"
	"hotg/internal/lexapp"
	"hotg/internal/search"
)

// budgetLine renders the deterministic budget observables (everything except
// wall-clock-dependent splits, which the callers below keep deterministic by
// construction: injected faults fire on every call, so no outcome depends on
// how fast the host is).
func budgetLine(st *search.Stats) string {
	bs := st.Budget
	return fmt.Sprintf("timeouts=%d panics=%d execfail=%d degraded=%d/%d rungs=%v timedout=%v cancelled=%v",
		bs.ProofTimeouts, bs.ProverPanics, bs.ExecFailures, bs.DegradedQF, bs.DegradedConc,
		bs.TestsByRung, bs.TimedOut, bs.Cancelled)
}

// TestGenerousBudgetBitIdentical checks the pay-when-fired contract: a
// per-proof ceiling and a search deadline that never fire must leave the whole
// search trajectory — runs, tests, coverage, bugs, prover verdicts, cache
// traffic — bit-identical to an unbudgeted search, at one worker and at many.
func TestGenerousBudgetBitIdentical(t *testing.T) {
	w := lexapp.Lexer()
	base := fingerprint(runWorkers(w, concolic.ModeHigherOrder, search.Options{MaxRuns: 80}, 1, false))
	generous := search.Budget{ProofTimeout: time.Hour}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		st := runWorkers(lexapp.Lexer(), concolic.ModeHigherOrder,
			search.Options{MaxRuns: 80, Budget: generous, Ctx: ctx}, workers, false)
		if got := fingerprint(st); got != base {
			t.Errorf("workers=%d: generous budget changed the trajectory\n--- unbudgeted:\n%s--- budgeted:\n%s",
				workers, base, got)
		}
		if st.Budget.ProofTimeouts != 0 || st.Budget.Degraded() != 0 || st.Budget.TimedOut {
			t.Errorf("workers=%d: generous ceilings fired: %s", workers, budgetLine(st))
		}
		if !st.Budget.Configured {
			t.Errorf("workers=%d: Budget.Configured not set despite ceilings", workers)
		}
	}
}

// TestDegradeDeterministicAcrossWorkers checks that the degradation ladder
// preserves the parallel-exactness guarantee when nothing wall-clock-dependent
// fires: with every proof cut by an injected (deterministic) timeout, the
// degraded trajectory and the budget section are bit-identical at every
// worker count.
func TestDegradeDeterministicAcrossWorkers(t *testing.T) {
	defer faults.Set(&faults.Plan{ProveTimeout: true})()
	run := func(workers int) *search.Stats {
		return runWorkers(lexapp.Lexer(), concolic.ModeHigherOrder,
			search.Options{MaxRuns: 80, Budget: search.Budget{Degrade: true}}, workers, false)
	}
	ref := run(1)
	base := fingerprint(ref) + budgetLine(ref)
	if ref.Budget.ProofTimeouts == 0 {
		t.Fatal("injected prover timeouts never fired")
	}
	for _, workers := range []int{2, 8} {
		st := run(workers)
		if got := fingerprint(st) + budgetLine(st); got != base {
			t.Errorf("workers=%d: degraded trajectory differs\n--- workers=1:\n%s\n--- workers=%d:\n%s",
				workers, base, workers, got)
		}
	}
}

// TestDegradedLadderKeepsDARTFloor is the graceful-degradation acceptance
// check: with every validity proof cut short, the higher-order search must
// fall to the lower rungs and still generate at least as many tests — and
// cover at least as many branch sides — as plain DART, because rung 2 still
// reasons over recorded samples and rung 1 replicates DART's concretization.
func TestDegradedLadderKeepsDARTFloor(t *testing.T) {
	dart := runWorkers(lexapp.Lexer(), concolic.ModeUnsound, search.Options{MaxRuns: 120}, 1, false)
	restore := faults.Set(&faults.Plan{ProveTimeout: true})
	ladder := runWorkers(lexapp.Lexer(), concolic.ModeHigherOrder,
		search.Options{MaxRuns: 120, Budget: search.Budget{Degrade: true}}, 1, false)
	restore()
	if ladder.ProverProved != 0 {
		t.Fatalf("expected every proof cut short, got %d proved", ladder.ProverProved)
	}
	if ladder.Budget.Degraded() == 0 || ladder.Budget.TestsByRung[search.RungProof] != 0 {
		t.Fatalf("expected a fully degraded run, got %s", budgetLine(ladder))
	}
	if ladder.TestsGenerated < dart.TestsGenerated {
		t.Errorf("degraded ladder generated %d tests, below plain DART's %d",
			ladder.TestsGenerated, dart.TestsGenerated)
	}
	if ladder.BranchSidesCovered() < dart.BranchSidesCovered() {
		t.Errorf("degraded ladder covered %d branch sides, below plain DART's %d",
			ladder.BranchSidesCovered(), dart.BranchSidesCovered())
	}
	if !strings.Contains(ladder.Summary(), "rungs=") {
		t.Errorf("Summary misses the budget section: %s", ladder.Summary())
	}
	if ladder.BudgetSummary() == "" {
		t.Error("BudgetSummary empty for a degraded run")
	}
}

// TestTightWallClockBudgetCompletes exercises a real (machine-dependent)
// per-proof deadline: the search must complete within its run budget and
// report its budget activity, whatever the host speed makes of 1ms.
func TestTightWallClockBudgetCompletes(t *testing.T) {
	st := runWorkers(lexapp.Lexer(), concolic.ModeHigherOrder,
		search.Options{MaxRuns: 60, Budget: search.Budget{ProofTimeout: time.Millisecond, Degrade: true}},
		4, false)
	if st.Runs > 60 {
		t.Errorf("run budget overrun: %d runs", st.Runs)
	}
	if !st.Budget.Configured {
		t.Error("budget not reported as configured")
	}
}

// TestSearchTimeoutReturnsPartialResults checks the search-wide ceiling: a
// context deadline far below the workload's natural runtime stops all workers
// promptly and returns well-formed partial statistics flagged TimedOut.
func TestSearchTimeoutReturnsPartialResults(t *testing.T) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	st := runWorkers(lexapp.Lexer(), concolic.ModeHigherOrder,
		search.Options{MaxRuns: 100000, Ctx: ctx}, 4, false)
	elapsed := time.Since(start)
	if !st.Budget.TimedOut {
		t.Fatalf("expected TimedOut, got %s", budgetLine(st))
	}
	if st.Runs >= 100000 {
		t.Errorf("expected partial results, got %d runs", st.Runs)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation was not prompt: search took %v after a 50ms deadline", elapsed)
	}
	if !strings.Contains(st.Summary(), "(timed out)") {
		t.Errorf("Summary misses the timeout marker: %s", st.Summary())
	}
	// Partial stats must still be internally consistent.
	if st.Runs != len(st.CovTrace) {
		t.Errorf("CovTrace length %d does not match %d runs", len(st.CovTrace), st.Runs)
	}
	if st.Exhausted {
		t.Error("a timed-out search must not report exhaustion")
	}
}

// TestExternalCancellation checks cooperative cancellation through a caller
// context: cancel mid-search (from OnRun, after the 30th applied run), get
// partial results flagged Cancelled.
func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 30
	applied := 0
	start := time.Now()
	st := runWorkers(lexapp.Lexer(), concolic.ModeHigherOrder,
		search.Options{MaxRuns: 100000, Ctx: ctx, OnRun: func(search.RunRecord) {
			if applied++; applied == cancelAt {
				cancel()
			}
		}}, 4, false)
	if !st.Budget.Cancelled {
		t.Fatalf("expected Cancelled, got %s", budgetLine(st))
	}
	if st.Runs < cancelAt || st.Runs >= 100000 {
		t.Errorf("cancelled after run %d, but the search applied %d runs", cancelAt, st.Runs)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation was not prompt: %v", elapsed)
	}
	if !strings.Contains(st.Summary(), "(cancelled)") {
		t.Errorf("Summary misses the cancel marker: %s", st.Summary())
	}
}

// TestZeroBudgetIsInert pins the zero-value contract at the Options level:
// constructing the search with an explicit zero Budget must not print a
// budget section anywhere.
func TestZeroBudgetIsInert(t *testing.T) {
	st := runWorkers(lexapp.Lexer(), concolic.ModeHigherOrder,
		search.Options{MaxRuns: 20, Budget: search.Budget{}}, 1, false)
	if st.Budget.Configured {
		t.Error("zero Budget reported as configured")
	}
	if strings.Contains(st.Summary(), "rungs=") {
		t.Errorf("zero Budget leaked into Summary: %s", st.Summary())
	}
	if st.BudgetSummary() != "" {
		t.Errorf("zero Budget produced a BudgetSummary: %s", st.BudgetSummary())
	}
}
