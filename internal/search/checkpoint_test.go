package search_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/obs"
	"hotg/internal/search"
)

// boundaryKinds are session markers, not search events: they appear at
// different positions (or not at all) depending on where a session starts and
// stops, so cross-session stream comparisons filter them (DESIGN.md §9).
var boundaryKinds = map[string]bool{
	"run_start": true, "run_end": true, "resume": true,
	"cancel": true, "checkpoint": true, "checkpoint_error": true,
}

// canonicalLine renders one event for cross-session comparison: the canonical
// projection (no timestamps/durations/worker IDs) with the sequence number
// also stripped, since a resumed session restarts its tracer at zero.
func canonicalLine(ev obs.Event) string {
	ev.Seq, ev.TS, ev.Dur, ev.Worker = 0, 0, 0, 0
	b, err := json.Marshal(ev)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// filteredStream returns the comparable event lines of a whole session.
func filteredStream(o *obs.Obs) []string {
	var out []string
	for _, ev := range o.Trace.Events() {
		if boundaryKinds[ev.Kind] {
			continue
		}
		out = append(out, canonicalLine(ev))
	}
	return out
}

// streamAfterCheckpoint returns the comparable event lines that follow the
// n-th (1-based) checkpoint event of a session.
func streamAfterCheckpoint(o *obs.Obs, n int) []string {
	seen := 0
	var out []string
	for _, ev := range o.Trace.Events() {
		if ev.Kind == "checkpoint" {
			seen++
			continue
		}
		if boundaryKinds[ev.Kind] || seen < n {
			continue
		}
		out = append(out, canonicalLine(ev))
	}
	return out
}

func diffLines(t *testing.T, label string, want, got []string) {
	t.Helper()
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: streams diverge at event %d:\nuninterrupted: %s\nresumed:       %s",
				label, i+1, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: stream length differs: uninterrupted %d events, resumed %d", label, len(want), len(got))
	}
}

// checkpointedRun performs one traced search that snapshots every `every`
// runs, returning the observer, stats, and collected snapshots (re-decoded
// from JSON, as a campaign store would hand them back).
func checkpointedRun(t *testing.T, w *lexapp.Workload, mode concolic.Mode, opts search.Options, workers, every int) (*obs.Obs, *search.Stats, []*search.Snapshot) {
	t.Helper()
	eng := concolic.New(w.Build(), mode)
	o := obs.New()
	o.Trace = obs.NewTracer(nil).Keep()
	if opts.Seeds == nil {
		opts.Seeds = w.Seeds
	}
	if opts.Bounds == nil {
		opts.Bounds = w.Bounds
	}
	opts.Workers = workers
	opts.Obs = o
	var snaps []*search.Snapshot
	opts.Checkpoint = search.CheckpointOptions{
		Every: every,
		Sink: func(s *search.Snapshot) error {
			// Round-trip through JSON: resumption in production reads bytes
			// from disk, and the round trip catches any field the codec
			// misses.
			raw, err := json.Marshal(s)
			if err != nil {
				return err
			}
			var cp search.Snapshot
			if err := json.Unmarshal(raw, &cp); err != nil {
				return err
			}
			snaps = append(snaps, &cp)
			return nil
		},
	}
	st := search.Run(eng, opts)
	return o, st, snaps
}

// resumeRun restores a snapshot into a fresh engine and runs to completion
// with the same search configuration.
func resumeRun(t *testing.T, w *lexapp.Workload, mode concolic.Mode, opts search.Options, workers int, snap *search.Snapshot) (*obs.Obs, *search.Stats) {
	t.Helper()
	eng := concolic.New(w.Build(), mode)
	if err := snap.Validate(eng); err != nil {
		t.Fatalf("snapshot failed validation: %v", err)
	}
	o := obs.New()
	o.Trace = obs.NewTracer(nil).Keep()
	if opts.Seeds == nil {
		opts.Seeds = w.Seeds
	}
	if opts.Bounds == nil {
		opts.Bounds = w.Bounds
	}
	opts.Workers = workers
	opts.Obs = o
	opts.Restore = snap
	st := search.Run(eng, opts)
	if !st.Resumed {
		t.Fatal("restored run did not set Stats.Resumed")
	}
	return o, st
}

func mustCanonical(t *testing.T, st *search.Stats) string {
	t.Helper()
	b, err := st.Canonical()
	if err != nil {
		t.Fatalf("Stats.Canonical: %v", err)
	}
	return string(b)
}

// TestCheckpointResumeDeterminism is the campaign acceptance test: for the
// lexer/foo/bar/kstep workloads, kill a search at an arbitrary checkpoint and
// resume it in a fresh process (fresh engine, snapshot round-tripped through
// JSON) — the final Stats, TestsByRung, and the canonical trace stream are
// identical to the uninterrupted run, at workers 1 and 4.
func TestCheckpointResumeDeterminism(t *testing.T) {
	cases := []struct {
		workload string
		opts     search.Options
		every    int
	}{
		{"lexer", search.Options{MaxRuns: 120}, 10},
		{"foo", search.Options{MaxRuns: 60}, 2},
		{"bar", search.Options{MaxRuns: 60}, 2},
		{"kstep-2", search.Options{MaxRuns: 60, MaxMultiStep: 4}, 2},
	}
	for _, tc := range cases {
		w, ok := lexapp.Get(tc.workload)
		if !ok {
			t.Fatalf("workload %q not registered", tc.workload)
		}
		for _, workers := range []int{1, 4} {
			base, baseStats, snaps := checkpointedRun(t, w, concolic.ModeHigherOrder, tc.opts, workers, tc.every)
			if len(snaps) == 0 {
				t.Fatalf("%s workers=%d: no checkpoints taken (runs=%d, every=%d)",
					tc.workload, workers, baseStats.Runs, tc.every)
			}
			if baseStats.Checkpoints != len(snaps) {
				t.Errorf("%s workers=%d: Stats.Checkpoints=%d, sink saw %d",
					tc.workload, workers, baseStats.Checkpoints, len(snaps))
			}
			// "Arbitrary checkpoint": the middle one, plus the first to cover
			// the longest replay tail.
			for _, idx := range []int{0, len(snaps) / 2} {
				o, st := resumeRun(t, w, concolic.ModeHigherOrder, tc.opts, workers, snaps[idx])
				label := tc.workload
				if got, want := mustCanonical(t, st), mustCanonical(t, baseStats); got != want {
					t.Errorf("%s workers=%d resume@%d: final stats differ:\nuninterrupted: %s\nresumed:       %s",
						label, workers, idx, want, got)
				}
				if st.Budget.TestsByRung != baseStats.Budget.TestsByRung {
					t.Errorf("%s workers=%d resume@%d: TestsByRung %v != %v",
						label, workers, idx, st.Budget.TestsByRung, baseStats.Budget.TestsByRung)
				}
				diffLines(t, label, streamAfterCheckpoint(base, idx+1), filteredStream(o))
			}
		}
	}
}

// TestCheckpointResumeCallback extends the kill-and-resume drill to
// function-valued inputs: on every callback workload, a higher-order search
// killed at an arbitrary checkpoint and resumed in a fresh process (snapshot
// round-tripped through JSON) reproduces the uninterrupted run's canonical
// stats byte-for-byte, at workers 1 and 4 — so synthesized decision tables
// survive the snapshot codec in both the work queue and the bug reports.
func TestCheckpointResumeCallback(t *testing.T) {
	for _, wl := range lexapp.CallbackWorkloads() {
		opts := search.Options{MaxRuns: 60}
		for _, workers := range []int{1, 4} {
			base, baseStats, snaps := checkpointedRun(t, wl, concolic.ModeHigherOrder, opts, workers, 1)
			if len(snaps) == 0 {
				t.Fatalf("%s workers=%d: no checkpoints taken (runs=%d)", wl.Name, workers, baseStats.Runs)
			}
			if len(baseStats.ErrorSitesFound()) == 0 {
				t.Fatalf("%s workers=%d: baseline found no bug", wl.Name, workers)
			}
			for _, idx := range []int{0, len(snaps) / 2} {
				o, st := resumeRun(t, wl, concolic.ModeHigherOrder, opts, workers, snaps[idx])
				label := wl.Name
				if got, want := mustCanonical(t, st), mustCanonical(t, baseStats); got != want {
					t.Errorf("%s workers=%d resume@%d: final stats differ:\nuninterrupted: %s\nresumed:       %s",
						label, workers, idx, want, got)
				}
				for _, bug := range st.Bugs {
					if len(bug.Funcs) == 0 {
						t.Errorf("%s workers=%d resume@%d: resumed bug lost its function inputs: %v",
							label, workers, idx, bug)
					}
				}
				diffLines(t, label, streamAfterCheckpoint(base, idx+1), filteredStream(o))
			}
		}
	}
}

// TestCheckpointResumeAcrossWorkerCounts extends the PR 1 guarantee across
// the process boundary in the mixed case: a snapshot taken at workers=1,
// resumed at workers=4, still lands on the same final state.
func TestCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	opts := search.Options{MaxRuns: 120}
	_, baseStats, snaps := checkpointedRun(t, w, concolic.ModeHigherOrder, opts, 1, 10)
	if len(snaps) < 2 {
		t.Fatalf("want ≥2 checkpoints, got %d", len(snaps))
	}
	_, st := resumeRun(t, w, concolic.ModeHigherOrder, opts, 4, snaps[len(snaps)/2])
	if got, want := mustCanonical(t, st), mustCanonical(t, baseStats); got != want {
		t.Errorf("resume at workers=4 of a workers=1 snapshot diverged:\nuninterrupted: %s\nresumed:       %s", want, got)
	}
}

// TestCheckpointCadenceAcrossWorkerCounts pins the checkpoint cadence at every
// worker count: the coordinator executes one test per work-loop iteration, so
// a search checkpoints at exactly the same runs with 1, 2 or 4 workers. The
// snapshots are byte-identical after JSON encoding, and so is the whole trace
// stream, checkpoint events included (minus timestamps, durations and worker
// IDs).
func TestCheckpointCadenceAcrossWorkerCounts(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	opts := search.Options{MaxRuns: 200}
	const every = 7
	encode := func(snaps []*search.Snapshot) [][]byte {
		out := make([][]byte, len(snaps))
		for i, snap := range snaps {
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = raw
		}
		return out
	}
	stream := func(o *obs.Obs) []string {
		var out []string
		for _, ev := range o.Trace.Events() {
			out = append(out, canonicalLine(ev))
		}
		return out
	}
	baseObs, _, baseSnaps := checkpointedRun(t, w, concolic.ModeHigherOrder, opts, 1, every)
	if want := opts.MaxRuns / every; len(baseSnaps) != want {
		t.Fatalf("workers=1 took %d checkpoints, want %d", len(baseSnaps), want)
	}
	for i, snap := range baseSnaps {
		if want := (i + 1) * every; snap.Runs != want {
			t.Fatalf("workers=1 checkpoint %d at run %d, want %d", i+1, snap.Runs, want)
		}
	}
	want, wantStream := encode(baseSnaps), stream(baseObs)
	for _, workers := range []int{2, 4} {
		o, _, snaps := checkpointedRun(t, w, concolic.ModeHigherOrder, opts, workers, every)
		got := encode(snaps)
		if len(got) != len(want) {
			t.Fatalf("workers=%d took %d checkpoints, workers=1 took %d", workers, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d checkpoint %d differs from workers=1:\nworkers=1: %.300s\nworkers=%d: %.300s",
					workers, i+1, want[i], workers, got[i])
			}
		}
		diffLines(t, fmt.Sprintf("workers=%d", workers), wantStream, stream(o))
	}
}

// TestCheckpointResumeSatMode covers the satisfiability cache restore path
// (solve entries with models) on a non-higher-order mode.
func TestCheckpointResumeSatMode(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	opts := search.Options{MaxRuns: 60}
	_, baseStats, snaps := checkpointedRun(t, w, concolic.ModeSound, opts, 4, 5)
	if len(snaps) == 0 {
		t.Fatal("no checkpoints taken")
	}
	_, st := resumeRun(t, w, concolic.ModeSound, opts, 4, snaps[len(snaps)/2])
	if got, want := mustCanonical(t, st), mustCanonical(t, baseStats); got != want {
		t.Errorf("sat-mode resume diverged:\nuninterrupted: %s\nresumed:       %s", want, got)
	}
}

// TestSnapshotBytesStableAcrossResume: resuming from checkpoint i and
// checkpointing again reproduces the uninterrupted run's checkpoint i+1
// byte-for-byte — the durable artifacts themselves, not just the in-memory
// trajectory, are process-independent.
func TestSnapshotBytesStableAcrossResume(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	opts := search.Options{MaxRuns: 120}
	_, _, snaps := checkpointedRun(t, w, concolic.ModeHigherOrder, opts, 1, 10)
	if len(snaps) < 3 {
		t.Fatalf("want ≥3 checkpoints, got %d", len(snaps))
	}
	idx := len(snaps) / 2
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	var resumedSnaps []*search.Snapshot
	opts.Seeds, opts.Bounds, opts.Workers = w.Seeds, w.Bounds, 1
	opts.Restore = snaps[idx]
	opts.Checkpoint = search.CheckpointOptions{
		Every: 10,
		Sink:  func(s *search.Snapshot) error { resumedSnaps = append(resumedSnaps, s); return nil },
	}
	search.Run(eng, opts)
	if len(resumedSnaps) == 0 {
		t.Fatal("resumed session took no checkpoints")
	}
	want, err := json.Marshal(snaps[idx+1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(resumedSnaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("checkpoint %d differs between uninterrupted and resumed sessions:\nuninterrupted: %.400s\nresumed:       %.400s",
			idx+1, want, got)
	}
}

// TestSnapshotValidateRejects exercises the compatibility checks: version
// drift, mode and program mismatches, and non-fresh engines all fail loudly.
func TestSnapshotValidateRejects(t *testing.T) {
	w, _ := lexapp.Get("foo")
	_, _, snaps := checkpointedRun(t, w, concolic.ModeHigherOrder, search.Options{MaxRuns: 40}, 1, 2)
	if len(snaps) == 0 {
		t.Fatal("no checkpoints taken")
	}
	snap := snaps[0]

	bad := *snap
	bad.FormatVersion = search.SnapshotFormatVersion + 1
	if err := bad.Validate(concolic.New(w.Build(), concolic.ModeHigherOrder)); err == nil {
		t.Error("future format version accepted")
	}
	if err := snap.Validate(concolic.New(w.Build(), concolic.ModeSound)); err == nil {
		t.Error("mode mismatch accepted")
	}
	other, _ := lexapp.Get("lexer")
	if err := snap.Validate(concolic.New(other.Build(), concolic.ModeHigherOrder)); err == nil {
		t.Error("program mismatch accepted")
	}
	if err := snap.Validate(concolic.New(w.Build(), concolic.ModeHigherOrder)); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// TestSnapshotEncodingStable: a lexer snapshot — hundreds of queued items,
// each with a packed expected trace, and packed dedup sets — encodes,
// decodes and re-encodes to the same bytes, and the decoded copy validates.
func TestSnapshotEncodingStable(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	_, _, snaps := checkpointedRun(t, w, concolic.ModeHigherOrder, search.Options{MaxRuns: 120}, 1, 60)
	if len(snaps) == 0 {
		t.Fatal("no checkpoints taken")
	}
	snap := snaps[len(snaps)-1]
	if len(snap.Cold) == 0 || len(snap.Targeted) == 0 {
		t.Fatalf("snapshot has %d cold items and %d targeted keys; want both non-empty", len(snap.Cold), len(snap.Targeted))
	}
	first, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded search.Snapshot
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("snapshot re-encodes differently:\nfirst:  %.300s\nsecond: %.300s", first, second)
	}
	if err := decoded.Validate(concolic.New(w.Build(), concolic.ModeHigherOrder)); err != nil {
		t.Errorf("decoded snapshot fails validation: %v", err)
	}
}

// TestSnapshotRejectsForeignBranch: an expected trace naming a branch the
// program does not have fails validation instead of being resumed from.
func TestSnapshotRejectsForeignBranch(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	_, _, snaps := checkpointedRun(t, w, concolic.ModeHigherOrder, search.Options{MaxRuns: 60}, 1, 30)
	if len(snaps) == 0 || len(snaps[0].Cold) == 0 || len(snaps[0].Cold[0].Expected) == 0 {
		t.Fatal("no checkpoint with a queued expected trace")
	}
	raw, err := json.Marshal(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{snaps[0].Branches, -1} {
		var bad search.Snapshot
		if err := json.Unmarshal(raw, &bad); err != nil {
			t.Fatal(err)
		}
		bad.Cold[0].Expected[0].ID = id
		err := bad.Validate(concolic.New(w.Build(), concolic.ModeHigherOrder))
		if err == nil || !strings.Contains(err.Error(), "names branch") {
			t.Errorf("branch %d: Validate = %v, want a foreign-branch error", id, err)
		}
	}
}

// TestCheckpointSinkFailure: a failing sink is reported once, disables
// further checkpointing, and does not disturb the search.
func TestCheckpointSinkFailure(t *testing.T) {
	w, _ := lexapp.Get("foo")
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	calls := 0
	st := search.Run(eng, search.Options{
		MaxRuns: 40, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1,
		Checkpoint: search.CheckpointOptions{
			Every: 2,
			Sink:  func(*search.Snapshot) error { calls++; return errors.New("disk full") },
		},
	})
	if calls != 1 {
		t.Errorf("failing sink called %d times, want 1", calls)
	}
	if st.Checkpoints != 0 {
		t.Errorf("Stats.Checkpoints = %d after sink failure, want 0", st.Checkpoints)
	}
	if st.CheckpointError == "" {
		t.Error("Stats.CheckpointError empty after sink failure")
	}
	ref := search.Run(concolic.New(w.Build(), concolic.ModeHigherOrder),
		search.Options{MaxRuns: 40, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1})
	if got, want := mustCanonical(t, st), mustCanonical(t, ref); got != want {
		t.Errorf("sink failure changed the trajectory:\nplain:       %s\nfailing-sink: %s", want, got)
	}
}
