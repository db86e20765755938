package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/search"
	"hotg/internal/serve"
)

// waitState polls until the session reaches a terminal state (or interrupted)
// and returns it.
func waitState(t *testing.T, ses *serve.Session, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := ses.State()
		switch st {
		case serve.StateDone, serve.StateFailed, serve.StateCancelled,
			serve.StateEvicted, serve.StateInterrupted:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s did not settle within %v (state %s)", ses, timeout, ses.State())
	return ""
}

func newServer(t *testing.T, opts serve.Options) *serve.Server {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSubmitToDone runs one small campaign end to end and checks the result
// carries tests, canonical stats, and latency stamps.
func TestSubmitToDone(t *testing.T) {
	s := newServer(t, serve.Options{})
	defer s.Close()
	ses, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 30, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, ses, 30*time.Second); st != serve.StateDone {
		t.Fatalf("state = %s, want done", st)
	}
	res, ok := s.Result(ses.ID)
	if !ok {
		t.Fatal("no retained result")
	}
	if res.Runs == 0 || res.TestsGenerated == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if len(res.CanonicalStats) == 0 {
		t.Fatal("result has no canonical stats")
	}
	if len(res.Tests) == 0 {
		t.Fatal("result has no test cases")
	}
	if res.FirstTestMS < 0 || res.DoneMS < res.FirstTestMS {
		t.Fatalf("latency stamps out of order: first=%d done=%d", res.FirstTestMS, res.DoneMS)
	}
	if res.Mode != "higher-order" {
		t.Fatalf("mode = %q, want higher-order default", res.Mode)
	}
}

// TestInlineSource compiles and runs a submitted program rather than a
// registered workload.
func TestInlineSource(t *testing.T) {
	s := newServer(t, serve.Options{})
	defer s.Close()
	src := `
fn main(x int, y int) {
	if (x == hash(y)) {
		if (y == 7) {
			error("inline-bug");
		}
	}
}`
	ses, err := s.Submit(serve.Spec{Source: src, MaxRuns: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, ses, 30*time.Second); st != serve.StateDone {
		t.Fatalf("state = %s, want done", st)
	}
	res, _ := s.Result(ses.ID)
	if res == nil || res.TestsGenerated == 0 {
		t.Fatalf("inline source produced no tests: %+v", res)
	}
	if !strings.HasPrefix(res.Workload, "inline-") {
		t.Fatalf("workload = %q, want inline-<hash>", res.Workload)
	}
}

// TestSpecValidation rejects malformed submissions before admission.
func TestSpecValidation(t *testing.T) {
	s := newServer(t, serve.Options{})
	defer s.Close()
	for _, spec := range []serve.Spec{
		{},                                    // neither workload nor source
		{Workload: "foo", Source: "func m"},   // both
		{Workload: "no-such-workload"},        // unknown workload
		{Workload: "foo", Mode: "warp-speed"}, // unknown mode
		{Workload: "foo", CorpusID: "../out"}, // path escape
		{Workload: "foo", CorpusID: ".hide"},  // dotfile
		{Workload: "foo", MaxRuns: -1},        // negative budget
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted, want error", spec)
		}
	}
}

// TestBackpressure fills the running slots and the queue, then expects
// ErrQueueFull — the 429 path. The running session is held live until the
// bounce is checked, so it cannot finish early and free a queue slot.
func TestBackpressure(t *testing.T) {
	s := newServer(t, serve.Options{MaxConcurrent: 1, MaxQueue: 2})
	defer s.Close()
	release := serve.HoldRunning(t)
	var sessions []*serve.Session
	for i := 0; i < 3; i++ {
		ses, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 25, Workers: 1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		sessions = append(sessions, ses)
	}
	// Slots: 1 running + 2 queued. The next must bounce.
	if _, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 5}); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("4th submit: err = %v, want ErrQueueFull", err)
	}
	release()
	for _, ses := range sessions {
		if st := waitState(t, ses, 60*time.Second); st != serve.StateDone {
			t.Fatalf("%s: state %s, want done", ses, st)
		}
	}
}

// TestCorpusConflict: a corpus ID held by a live session is rejected (409),
// and two sessions on different corpus roots run concurrently without lock
// contention — the per-directory lock scope. Both sessions are held live
// until the conflict and the concurrency have been checked.
func TestCorpusConflict(t *testing.T) {
	s := newServer(t, serve.Options{MaxConcurrent: 2})
	defer s.Close()
	release := serve.HoldRunning(t)
	a, err := s.Submit(serve.Spec{Workload: "lexer", MaxRuns: 120, Workers: 1, CorpusID: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	// Same corpus while a is live: conflict.
	if _, err := s.Submit(serve.Spec{Workload: "lexer", CorpusID: "shared"}); !errors.Is(err, serve.ErrCorpusBusy) {
		t.Fatalf("same-corpus submit: err = %v, want ErrCorpusBusy", err)
	}
	// Different corpus root: admitted and runs concurrently.
	b, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 20, Workers: 1, CorpusID: "other"})
	if err != nil {
		t.Fatalf("different-corpus submit: %v", err)
	}
	if sa, sb := a.State(), b.State(); sa != serve.StateRunning || sb != serve.StateRunning {
		t.Fatalf("states a=%s b=%s, want both running", sa, sb)
	}
	release()
	if st := waitState(t, b, 30*time.Second); st != serve.StateDone {
		t.Fatalf("b: state %s, want done", st)
	}
	if st := waitState(t, a, 60*time.Second); st != serve.StateDone {
		t.Fatalf("a: state %s, want done", st)
	}
	// After a finishes, the corpus is free: resubmitting resumes it.
	c, err := s.Submit(serve.Spec{Workload: "lexer", MaxRuns: 10, Workers: 1, CorpusID: "shared"})
	if err != nil {
		t.Fatalf("resubmit after done: %v", err)
	}
	if st := waitState(t, c, 30*time.Second); st != serve.StateDone {
		t.Fatalf("c: state %s, want done", st)
	}
}

// TestExternalLockConflict: a corpus directory locked by another live
// process (simulated by holding the lock in-test) fails the session with
// the campaign lock error rather than corrupting the corpus.
func TestExternalLockConflict(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, serve.Options{Dir: dir})
	defer s.Close()
	lock, err := campaign.AcquireLock(filepath.Join(dir, "corpus", "held"))
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Release()
	ses, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 5, CorpusID: "held"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, ses, 30*time.Second); st != serve.StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if status := ses.Status(); !strings.Contains(status.Error, "locked by live session") {
		t.Fatalf("error = %q, want lock-held message", status.Error)
	}
}

// TestCancel cancels a running session; it finishes with partial, valid
// results in state cancelled.
func TestCancel(t *testing.T) {
	s := newServer(t, serve.Options{})
	defer s.Close()
	ses, err := s.Submit(serve.Spec{Workload: "lexer", MaxRuns: 5000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Let it get going, then cancel.
	deadline := time.Now().Add(20 * time.Second)
	for ses.Status().Runs < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !s.Cancel(ses.ID) {
		t.Fatalf("Cancel returned false in state %s", ses.State())
	}
	if st := waitState(t, ses, 30*time.Second); st != serve.StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	res, ok := s.Result(ses.ID)
	if !ok || res.Runs == 0 {
		t.Fatalf("cancelled session kept no partial result: %+v", res)
	}
	if res.Runs >= 5000 {
		t.Fatalf("session ran to completion (%d runs) despite cancel", res.Runs)
	}
}

// TestEvictionAndRecovery: a tiny memory budget evicts the oldest finished
// session; its result is gone from memory (410 path) but resubmitting with
// the same corpus ID recovers the campaign from disk.
func TestEvictionAndRecovery(t *testing.T) {
	s := newServer(t, serve.Options{MemoryBudget: 1, MaxConcurrent: 1})
	defer s.Close()
	first, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 25, Workers: 1, CorpusID: "evictme"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, first, 30*time.Second); st != serve.StateDone {
		t.Fatalf("first: state %s", st)
	}
	second, err := s.Submit(serve.Spec{Workload: "bar", MaxRuns: 25, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, second, 30*time.Second); st != serve.StateDone {
		t.Fatalf("second: state %s", st)
	}
	// Budget 1 byte: finishing the second evicts the first (LRU keeps the
	// newest).
	if st := first.State(); st != serve.StateEvicted {
		t.Fatalf("first: state %s, want evicted", st)
	}
	if _, ok := s.Result(first.ID); ok {
		t.Fatal("evicted session still served a result")
	}
	if msg := first.Status().Error; !strings.Contains(msg, "evictme") {
		t.Fatalf("eviction message %q does not name the corpus to resubmit", msg)
	}
	// Recovery: resubmit with the corpus ID; the corpus (and its result
	// history) is still on disk.
	again, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 10, Workers: 1, CorpusID: "evictme"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, again, 30*time.Second); st != serve.StateDone {
		t.Fatalf("recovered: state %s", st)
	}
	res, ok := s.Result(again.ID)
	if !ok {
		t.Fatal("recovered session has no result")
	}
	if !res.Resumed {
		t.Fatal("recovered session did not mark itself resumed")
	}
}

// TestDrainResumeDeterminism is the tentpole acceptance test: interrupt a
// running session with a drain, restart the server on the same directory,
// let the re-queued session finish, and compare its canonical stats to an
// uninterrupted reference run — they must be bit-identical.
func TestDrainResumeDeterminism(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	const maxRuns = 140

	// Reference: one uninterrupted run, same knobs as the server's —
	// including a cancellation context, which flags Budget.Configured.
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	ref := search.Run(eng, search.Options{
		MaxRuns: maxRuns, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1,
		Ctx: context.Background(),
	})
	refCanon, err := ref.Canonical()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := serve.Options{Dir: dir, CheckpointEvery: 10, DefaultWorkers: 1}
	s := newServer(t, opts)
	ses, err := s.Submit(serve.Spec{Workload: "lexer", MaxRuns: maxRuns, Workers: 1, CorpusID: "drainme"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is demonstrably past the first checkpoint, then drain.
	deadline := time.Now().Add(30 * time.Second)
	for ses.Status().Runs < 25 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	interrupted := ses.State() == serve.StateInterrupted
	if !interrupted && ses.State() != serve.StateDone {
		t.Fatalf("after drain: state %s", ses.State())
	}
	if !interrupted {
		t.Log("session finished before the drain landed; resume path not exercised")
	}

	// Restart on the same directory: the interrupted session is re-queued
	// and resumes from its last checkpoint.
	s2 := newServer(t, opts)
	defer s2.Close()
	resumed, ok := s2.Get(ses.ID)
	if !ok {
		t.Fatalf("restarted server lost session %s", ses.ID)
	}
	if st := waitState(t, resumed, 60*time.Second); st != serve.StateDone {
		t.Fatalf("resumed session: state %s, want done", st)
	}
	res, ok := s2.Result(ses.ID)
	if !ok {
		t.Fatal("resumed session has no result")
	}
	if interrupted && !res.Resumed {
		t.Fatal("resumed session did not mark itself resumed")
	}
	if string(res.CanonicalStats) != string(refCanon) {
		t.Errorf("canonical stats diverge across drain/resume:\nref:     %s\nresumed: %s",
			refCanon, res.CanonicalStats)
	}
}

// TestRestartReloadsResults: finished sessions survive a restart — their
// results reload from result.json on disk.
func TestRestartReloadsResults(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, serve.Options{Dir: dir})
	ses, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, ses, 30*time.Second); st != serve.StateDone {
		t.Fatalf("state %s", st)
	}
	res1, _ := s.Result(ses.ID)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, serve.Options{Dir: dir})
	defer s2.Close()
	res2, ok := s2.Result(ses.ID)
	if !ok {
		t.Fatal("restarted server lost the finished result")
	}
	b1, _ := json.Marshal(res1)
	b2, _ := json.Marshal(res2)
	if string(b1) != string(b2) {
		t.Errorf("result changed across restart:\nbefore: %s\nafter:  %s", b1, b2)
	}
	// New IDs continue past recovered ones.
	ses2, err := s2.Submit(serve.Spec{Workload: "foo", MaxRuns: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ses2.ID == ses.ID {
		t.Fatalf("session ID %s reused after restart", ses2.ID)
	}
}

// TestGoroutineRelease: completed, cancelled, and evicted sessions release
// their workers, tracer, and recorder subscribers — the goroutine count
// returns to its baseline (with retry tolerance for runtime background
// goroutines).
func TestGoroutineRelease(t *testing.T) {
	s := newServer(t, serve.Options{MaxConcurrent: 2, MemoryBudget: 1})
	before := runtime.NumGoroutine()

	var sessions []*serve.Session
	for i := 0; i < 4; i++ {
		ses, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 20, Workers: 2,
			CorpusID: fmt.Sprintf("leak-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, ses)
	}
	// One long session cancelled mid-flight.
	long, err := s.Submit(serve.Spec{Workload: "lexer", MaxRuns: 5000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ses := range sessions {
		if st := waitState(t, ses, 60*time.Second); st != serve.StateDone && st != serve.StateEvicted {
			t.Fatalf("%s: state %s", ses, st)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for long.Status().Runs < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.Cancel(long.ID)
	if st := waitState(t, long, 30*time.Second); st != serve.StateCancelled {
		t.Fatalf("long: state %s, want cancelled", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The eviction drill must have fired (budget is 1 byte).
	evicted := 0
	for _, ses := range sessions {
		if ses.State() == serve.StateEvicted {
			evicted++
		}
	}
	if evicted == 0 {
		t.Error("memory budget of 1 byte evicted nothing")
	}

	// Goroutines drain asynchronously; retry with tolerance.
	tolerance := 3
	var after int
	for i := 0; i < 100; i++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+tolerance {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after sessions finished (tolerance %d)", before, after, tolerance)
}

// TestStatuszRows: every session reports a statusz row backed by its own
// registry.
func TestStatuszRows(t *testing.T) {
	s := newServer(t, serve.Options{})
	defer s.Close()
	ses, err := s.Submit(serve.Spec{Workload: "foo", MaxRuns: 15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ses, 30*time.Second)
	rows := s.SessionStatuses()
	if len(rows) != 1 || rows[0].ID != ses.ID {
		t.Fatalf("statusz rows = %+v", rows)
	}
	if rows[0].Headline["runs"] == 0 {
		t.Fatalf("session row has empty headline: %+v", rows[0])
	}
	info := s.Info()
	if info["sessions_total"] != 1 {
		t.Fatalf("Info() = %+v", info)
	}
}
