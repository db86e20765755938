package search_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/obs"
	"hotg/internal/obshttp"
	"hotg/internal/search"
)

// tracedRun performs one observed search and returns the observer (with the
// retained event stream) and the stats.
func tracedRun(w *lexapp.Workload, mode concolic.Mode, opts search.Options, workers int) (*obs.Obs, *search.Stats) {
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
	st := search.Run(eng, opts)
	return o, st
}

// TestTraceDeterministicAcrossWorkers is the observability counterpart of the
// PR-1 trajectory determinism test: the canonical event stream (every event,
// every attribute, minus timestamps/durations/worker IDs) of the lexer
// higher-order search is identical at workers=1 and workers=4.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	opts := search.Options{MaxRuns: 120}
	o1, st1 := tracedRun(lexapp.Lexer(), concolic.ModeHigherOrder, opts, 1)
	if st1.ProverCalls == 0 {
		t.Fatal("lexer search made no prover calls; trace test is vacuous")
	}
	base := o1.Trace.CanonicalStream()
	if base == "" {
		t.Fatal("no events emitted")
	}
	for _, workers := range []int{4} {
		o4, _ := tracedRun(lexapp.Lexer(), concolic.ModeHigherOrder, search.Options{MaxRuns: 120}, workers)
		got := o4.Trace.CanonicalStream()
		if got != base {
			reportStreamDiff(t, base, got, workers)
		}
	}
}

// TestTraceDeterministicSatMode covers the satisfiability (non-higher-order)
// solve path's event stream.
func TestTraceDeterministicSatMode(t *testing.T) {
	o1, _ := tracedRun(lexapp.Lexer(), concolic.ModeSound, search.Options{MaxRuns: 60}, 1)
	o4, _ := tracedRun(lexapp.Lexer(), concolic.ModeSound, search.Options{MaxRuns: 60}, 4)
	if got, want := o4.Trace.CanonicalStream(), o1.Trace.CanonicalStream(); got != want {
		reportStreamDiff(t, want, got, 4)
	}
}

// TestTraceDeterministicMultiStep covers multi-step continuations (multistep
// and samples_learned events).
func TestTraceDeterministicMultiStep(t *testing.T) {
	o1, _ := tracedRun(lexapp.KStep(3), concolic.ModeHigherOrder, search.Options{MaxRuns: 60, MaxMultiStep: 4}, 1)
	o4, _ := tracedRun(lexapp.KStep(3), concolic.ModeHigherOrder, search.Options{MaxRuns: 60, MaxMultiStep: 4}, 4)
	if got, want := o4.Trace.CanonicalStream(), o1.Trace.CanonicalStream(); got != want {
		reportStreamDiff(t, want, got, 4)
	}
}

func reportStreamDiff(t *testing.T, want, got string, workers int) {
	t.Helper()
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("canonical stream diverges at event %d (workers=%d):\nworkers=1: %s\nworkers=%d: %s",
				i+1, workers, wl[i], workers, gl[i])
		}
	}
	t.Fatalf("canonical stream length differs: workers=1 has %d events, workers=%d has %d",
		len(wl), workers, len(gl))
}

// TestTraceEventCoverage asserts the lexer trace contains every pipeline
// event kind the schema promises for a higher-order search.
func TestTraceEventCoverage(t *testing.T) {
	o, st := tracedRun(lexapp.Lexer(), concolic.ModeHigherOrder, search.Options{MaxRuns: 120}, 4)
	kinds := map[string]int{}
	for _, ev := range o.Trace.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"run_start", "run_end", "target", "prove", "cache", "exec_task", "test_generated", "samples_learned"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in lexer trace (kinds seen: %v)", want, kinds)
		}
	}
	if kinds["run_start"] != 1 || kinds["run_end"] != 1 {
		t.Errorf("want exactly one run_start and run_end, got %d and %d", kinds["run_start"], kinds["run_end"])
	}
	if kinds["exec_task"] != st.Runs {
		t.Errorf("exec_task events = %d, want one per run = %d", kinds["exec_task"], st.Runs)
	}
	if kinds["prove"] != st.ProverCalls {
		t.Errorf("prove events = %d, want one per prover call = %d", kinds["prove"], st.ProverCalls)
	}
	if kinds["bug_found"] != len(st.Bugs) {
		t.Errorf("bug_found events = %d, want %d", kinds["bug_found"], len(st.Bugs))
	}
}

// TestTraceMetricsPopulated asserts the registry ends up with the headline
// latency histograms and cache counters after an observed search.
func TestTraceMetricsPopulated(t *testing.T) {
	o, st := tracedRun(lexapp.Lexer(), concolic.ModeHigherOrder, search.Options{MaxRuns: 120}, 4)
	snap := o.Metrics.Snapshot()
	byName := map[string]obs.MetricValue{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	for _, name := range []string{"fol.prove.ns", "smt.solve.ns", "concolic.exec.ns", "concolic.path.len"} {
		h, ok := byName[name]
		if !ok || h.Value == 0 {
			t.Errorf("histogram %s missing or empty", name)
			continue
		}
		if h.P50 > h.P90 || h.P90 > h.P99 || h.P99 > h.Max {
			t.Errorf("%s percentiles not monotone: p50=%d p90=%d p99=%d max=%d", name, h.P50, h.P90, h.P99, h.Max)
		}
	}
	if got := o.Metrics.Get("search.proof_cache.hits"); got != int64(st.ProofCacheHits) {
		t.Errorf("search.proof_cache.hits = %d, want %d", got, st.ProofCacheHits)
	}
	if got := o.Metrics.Get("search.proof_cache.misses"); got != int64(st.ProofCacheMisses) {
		t.Errorf("search.proof_cache.misses = %d, want %d", got, st.ProofCacheMisses)
	}
	if got := o.Metrics.Get("concolic.runs"); got != int64(st.Runs) {
		t.Errorf("concolic.runs = %d, want %d", got, st.Runs)
	}
}

// TestChromeTraceValid checks the Chrome trace_event export is valid JSON in
// the shape Perfetto loads: a traceEvents array with ph/pid/tid on every
// entry and one named track per worker plus the coordinator, which draws
// every test execution.
func TestChromeTraceValid(t *testing.T) {
	o, _ := tracedRun(lexapp.Lexer(), concolic.ModeHigherOrder, search.Options{MaxRuns: 80}, 4)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, o.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	threadNames := map[float64]string{}
	phases := map[string]int{}
	execs := 0
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph == "M" {
			args := ev["args"].(map[string]interface{})
			threadNames[ev["tid"].(float64)] = args["name"].(string)
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatal("event missing pid")
		}
		// Every test runs on the coordinator, so its slice is on tid 0.
		if ev["name"] == "exec_task" {
			execs++
			if tid := ev["tid"].(float64); tid != 0 {
				t.Errorf("exec_task on tid %v, want the coordinator's tid 0", tid)
			}
		}
	}
	if execs == 0 {
		t.Error("no exec_task slices in the trace")
	}
	if phases["X"] == 0 || phases["i"] == 0 {
		t.Errorf("want both complete (X) and instant (i) events, got %v", phases)
	}
	// Coordinator + 4 workers that did work (worker 0..3 all show up on a
	// 120-run lexer search; tolerate ≥2 tracks to stay robust).
	if len(threadNames) < 2 {
		t.Errorf("want at least coordinator + one worker track, got %v", threadNames)
	}
	if threadNames[0] != "coordinator" {
		t.Errorf("tid 0 should be the coordinator, got %v", threadNames)
	}
}

// introspectedRun is tracedRun with the full live-introspection apparatus
// attached: a flight recorder on the tracer, the runtime sampler publishing
// gauges, and a goroutine hammering the introspection read paths (recorder
// snapshots and registry scrapes) for the whole search.
func introspectedRun(w *lexapp.Workload, mode concolic.Mode, opts search.Options, workers int) (*obs.Obs, *search.Stats) {
	eng := concolic.New(w.Build(), mode)
	o := obs.New()
	o.Trace = obs.NewTracer(nil).Keep().WithRecorder(obs.NewFlightRecorder(256))
	srv := obshttp.New(o)
	stopSampler := srv.StartSampler(time.Millisecond)
	defer stopSampler()
	done := make(chan struct{})
	reads := make(chan int, 1)
	go func() {
		defer close(done)
		n := 0
		for {
			select {
			case reads <- n:
				return
			default:
			}
			o.Trace.Recorder().Snapshot()
			obs.WriteOpenMetrics(io.Discard, o.Metrics)
			n++
		}
	}()
	if opts.Seeds == nil {
		opts.Seeds = w.Seeds
	}
	if opts.Bounds == nil {
		opts.Bounds = w.Bounds
	}
	opts.Workers = workers
	opts.Obs = o
	st := search.Run(eng, opts)
	<-reads
	<-done
	return o, st
}

// TestTraceDeterministicWithIntrospection is the acceptance check that live
// introspection is invisible to the determinism contract: with a flight
// recorder, the runtime sampler, and concurrent readers all active, the
// canonical stream at workers 1, 4, and 8 is bit-identical — and identical to
// the stream of a plain un-introspected run.
func TestTraceDeterministicWithIntrospection(t *testing.T) {
	opts := search.Options{MaxRuns: 120}
	plain, _ := tracedRun(lexapp.Lexer(), concolic.ModeHigherOrder, opts, 1)
	base := plain.Trace.CanonicalStream()
	if base == "" {
		t.Fatal("no events emitted")
	}
	for _, workers := range []int{1, 4, 8} {
		o, _ := introspectedRun(lexapp.Lexer(), concolic.ModeHigherOrder, search.Options{MaxRuns: 120}, workers)
		if got := o.Trace.CanonicalStream(); got != base {
			t.Errorf("introspected run at workers=%d diverges from plain run", workers)
			reportStreamDiff(t, base, got, workers)
		}
		if o.Trace.Recorder().Total() == 0 {
			t.Fatal("flight recorder saw no events")
		}
		// The sampler's gauges landed in the registry, not the trace.
		if o.Metrics.Get("runtime.goroutines") == 0 {
			t.Error("runtime sampler published no gauges")
		}
		for _, ev := range o.Trace.Events() {
			if strings.HasPrefix(ev.Kind, "runtime.") {
				t.Fatalf("sampler leaked event %q into the trace", ev.Kind)
			}
		}
	}
}

// TestProveTotalsPinned pins the prover's work on the lexer search at budget
// 300: the prover's own calls, nodes and proofs, which depend on what the
// proof cache keeps, and the per-target verdict counts in Stats, which must
// not. The verdict counts are part of the trajectory: they count targets,
// whether a verdict came from the cache or from a proof.
func TestProveTotalsPinned(t *testing.T) {
	o, st := tracedRun(lexapp.Lexer(), concolic.ModeHigherOrder, search.Options{MaxRuns: 300}, 1)
	verdicts := [4]int{st.ProverCalls, st.ProverProved, st.ProverUnknown, st.ProverInvalid}
	if want := [4]int{9228, 4094, 5134, 0}; verdicts != want {
		t.Errorf("Stats prover calls, proved, unknown, invalid = %v, want %v", verdicts, want)
	}
	var nodes int64
	for _, m := range o.Metrics.Snapshot() {
		if m.Name == "fol.prove.nodes" {
			nodes = m.Sum
		}
	}
	got := [3]int64{o.Metrics.Get("fol.prove.calls"), nodes, o.Metrics.Get("fol.prove.proved")}
	if want := [3]int64{1271, 30980, 122}; got != want {
		t.Fatalf("fol.prove calls, nodes, proved = %v, want %v", got, want)
	}
}

// TestPhaseTreeSMTIsSolveTime checks that the phase tree's smt row is the
// solver's own time: on a refuting search, where the prover's residual
// solves and the warm refuter's checks both run, the smt node's total is
// exactly the smt.solve.ns histogram's sum, with no check counted twice.
// The scanner's refuted formulas hold applications, so they reach the warm
// refuter (smt.FirstUnsat).
func TestPhaseTreeSMTIsSolveTime(t *testing.T) {
	o, _ := tracedRun(lexapp.Scanner(), concolic.ModeHigherOrder, search.Options{MaxRuns: 60, Refute: true}, 1)
	if o.Metrics.Get("fol.refute.calls") == 0 {
		t.Fatal("the search made no refutation attempt")
	}
	var solveSum int64
	for _, m := range o.Metrics.Snapshot() {
		if m.Name == "smt.solve.ns" {
			solveSum = m.Sum
		}
	}
	if solveSum == 0 {
		t.Fatal("smt.solve.ns is empty")
	}
	fol := obs.PhaseTree(o.Metrics).Children[1]
	if smt := fol.Children[0]; smt.Name != "smt" || smt.Total != time.Duration(solveSum) {
		t.Fatalf("smt node %s total %v, want smt.solve.ns sum %v", smt.Name, smt.Total, time.Duration(solveSum))
	}
}

// TestPhaseTreeFolIsProveTime checks that the phase tree counts a refutation
// once: Refute runs inside ProveCore's timed span, so the fol node is the
// fol.prove.ns histogram's sum, and a one-worker search, whose proofs run
// one at a time inside it, spends no more in fol than in search.
func TestPhaseTreeFolIsProveTime(t *testing.T) {
	o, _ := tracedRun(lexapp.Scanner(), concolic.ModeHigherOrder, search.Options{MaxRuns: 60, Refute: true}, 1)
	if o.Metrics.Get("fol.refute.calls") == 0 {
		t.Fatal("the search made no refutation attempt")
	}
	var proveSum int64
	for _, m := range o.Metrics.Snapshot() {
		if m.Name == "fol.prove.ns" {
			proveSum = m.Sum
		}
	}
	root := obs.PhaseTree(o.Metrics)
	fol := root.Children[1]
	if fol.Name != "fol" || fol.Total != time.Duration(proveSum) {
		t.Fatalf("fol node %s total %v, want fol.prove.ns sum %v", fol.Name, fol.Total, time.Duration(proveSum))
	}
	if fol.Total > root.Total {
		t.Fatalf("fol %v exceeds search %v", fol.Total, root.Total)
	}
}
