package search

import (
	"math/rand"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/smt"
)

// expectedTrace is the prediction as a full copy, the reference the view is
// checked against: the executed prefix through event flip, with that event
// flipped.
func expectedTrace(branches []mini.BranchEvent, flip int) []mini.BranchEvent {
	out := make([]mini.BranchEvent, flip+1)
	copy(out, branches[:flip])
	ev := branches[flip]
	ev.Taken = !ev.Taken
	out[flip] = ev
	return out
}

// divergedFromCopy is diverged over a copied prediction.
func divergedFromCopy(actual, expected []mini.BranchEvent) bool {
	if len(actual) < len(expected) {
		return true
	}
	for i := range expected {
		if actual[i] != expected[i] {
			return true
		}
	}
	return false
}

func randomTrace(rng *rand.Rand, n int) []mini.BranchEvent {
	out := make([]mini.BranchEvent, n)
	for i := range out {
		// A small alphabet, so random actual traces often agree with a
		// prediction for a while.
		out[i] = mini.BranchEvent{ID: rng.Intn(3), Taken: rng.Intn(2) == 1}
	}
	return out
}

// TestDivergedViewMatchesCopy: on random parent traces and every flip index —
// the first event and the last included — divergence from the view equals
// divergence from the copied prediction, for actual traces that realize the
// prediction, extend it, stop short of it, follow the parent instead, differ
// in one event, or are unrelated.
func TestDivergedViewMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var outcomes [2]int
	check := func(actual []mini.BranchEvent, view concolic.Prediction, want []mini.BranchEvent) {
		t.Helper()
		got, ref := diverged(actual, view), divergedFromCopy(actual, want)
		if got != ref {
			t.Fatalf("actual %v, prediction %v: diverged = %v, copy says %v", actual, want, got, ref)
		}
		if got {
			outcomes[1]++
		} else {
			outcomes[0]++
		}
	}
	for n := 0; n < 300; n++ {
		parent := randomTrace(rng, 1+rng.Intn(30))
		for k := range parent {
			view := concolic.Predict(parent[:k+1])
			want := expectedTrace(parent, k)
			if view.Len() != len(want) {
				t.Fatalf("view has %d events, copy %d", view.Len(), len(want))
			}
			for i := range want {
				if view.At(i) != want[i] {
					t.Fatalf("event %d: view %v, copy %v", i, view.At(i), want[i])
				}
			}
			mutated := append([]mini.BranchEvent(nil), want...)
			i := rng.Intn(len(mutated))
			if rng.Intn(2) == 0 {
				mutated[i].Taken = !mutated[i].Taken
			} else {
				mutated[i].ID++
			}
			for _, actual := range [][]mini.BranchEvent{
				want,
				append(append([]mini.BranchEvent(nil), want...), randomTrace(rng, 1+rng.Intn(5))...),
				want[:rng.Intn(len(want))],
				want[:len(want)-1],
				nil,
				parent,
				mutated,
				randomTrace(rng, rng.Intn(2*len(parent))),
			} {
				check(actual, view, want)
			}
		}
	}
	// An empty prediction (only a decoded checkpoint can hold one) is
	// realized by every trace.
	empty := concolic.Predict([]mini.BranchEvent{})
	if empty.IsZero() {
		t.Fatal("an empty prediction reads as no prediction")
	}
	check(nil, empty, []mini.BranchEvent{})
	check(randomTrace(rng, 4), empty, []mini.BranchEvent{})
	if outcomes[0] == 0 || outcomes[1] == 0 {
		t.Fatalf("outcomes (realized, diverged) = %v; want both", outcomes)
	}
}

// expandOnce runs the lexer's first seed and expands it the way the search
// loop does, returning the execution and every item the expansion queued.
func expandOnce(t *testing.T, mode concolic.Mode) (*concolic.Execution, []item) {
	t.Helper()
	w, _ := lexapp.Get("lexer")
	eng := concolic.New(w.Build(), mode)
	s := &searcher{
		eng:       eng,
		opts:      Options{MaxRuns: 100, MaxMultiStep: 3, ProverNodes: 4000, Workers: 1},
		stats:     newStats(mode.String(), eng.Prog.NumBranches),
		cache:     newProofCache(),
		forms:     newFormulas(len(eng.FuncShape()) > 0),
		varBounds: map[int]smt.Bound{},
	}
	s.prefix = newSlicer(s.forms)
	s.stats.ProofsPerWorker = make([]int64, 1)
	ex := eng.Run(w.Seeds[0])
	s.expand(ex, 0, true)
	return ex, append(s.hot, s.cold...)
}

// TestQueuedTestsShareParentTrace: the tests one expansion queues predict
// their traces with views of the parent execution's branch trace; none holds
// a copy of it.
func TestQueuedTestsShareParentTrace(t *testing.T) {
	for _, mode := range []concolic.Mode{concolic.ModeHigherOrder, concolic.ModeSound} {
		ex, items := expandOnce(t, mode)
		parent := &ex.Result.Branches[0]
		shared := 0
		for i, it := range items {
			p := it.expected
			if it.pending != nil {
				p = it.pending.expected
			}
			if p.IsZero() {
				continue // a multi-step sample-collection run predicts nothing
			}
			if &p.Executed()[0] != parent {
				t.Fatalf("%v: item %d holds a copy of its parent's trace", mode, i)
			}
			shared++
		}
		if shared < 2 {
			t.Fatalf("%v: %d of %d queued items predict a trace; want at least 2", mode, shared, len(items))
		}
	}
}
