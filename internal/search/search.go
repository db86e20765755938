package search

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotg/internal/concolic"
	"hotg/internal/fol"
	"hotg/internal/mini"
	"hotg/internal/obs"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// Options configures a directed search.
type Options struct {
	// MaxRuns bounds the number of program executions (default 100).
	MaxRuns int
	// Seeds are the initial inputs; at least one is required.
	Seeds [][]int64
	// Bounds restricts each flat input's domain, aligned with the program
	// shape (nil entries or a nil slice mean the solver default domain).
	Bounds []smt.Bound
	// MaxMultiStep bounds the intermediate tests per target (default 3;
	// the paper bounds k by the number of program inputs).
	MaxMultiStep int
	// StopAtFirstBug ends the search as soon as any error site is reached.
	StopAtFirstBug bool
	// Refute enables the invalidity prover, which distinguishes provably
	// invalid targets from unknown ones. The distinction is reporting-only
	// (neither produces a test), so it is off by default for speed.
	Refute bool
	// ProverNodes caps the validity-proof search per target (default 4000).
	ProverNodes int
	// Workers sets how many goroutines execute tests and discharge
	// per-target proof obligations (default GOMAXPROCS). Workers=1 runs the
	// classic sequential algorithm on the calling goroutine. Any setting
	// produces identical results: the coordinator batches only independent
	// work and merges worker results in enqueue order, so the explored
	// trajectory — runs, tests, coverage, bugs, samples, prover verdicts —
	// is bit-for-bit the same at every worker count. Only the timing and
	// per-worker load figures in Stats depend on scheduling.
	Workers int
	// Obs, when non-nil, enables observability: metrics flow into its
	// registry from every layer (search, prover, solver, executor), and, when
	// Obs.Trace is also set, one structured event is emitted per pipeline
	// event. Events are emitted only by the coordinator in canonical apply
	// order, so the event stream — minus timestamps, durations, and worker
	// IDs — is identical at every worker count. A nil Obs costs one pointer
	// check per instrumentation site.
	Obs *obs.Obs
	// Budget sets wall-clock ceilings for proofs, targets, and the whole
	// search, and enables graceful degradation down the precision ladder. The
	// zero value means unlimited with no degradation — bit-identical to an
	// unbudgeted search at any worker count. See the Budget type and
	// DESIGN.md §8.
	Budget Budget
	// Ctx, when non-nil, cancels the search cooperatively: the coordinator
	// stops between work units, workers stop picking up tasks, in-flight
	// executions and proofs return early at their next poll point, and Run
	// returns partial (well-formed) Stats with Budget.Cancelled or
	// Budget.TimedOut set.
	Ctx context.Context
	// Checkpoint, when configured (Every > 0 and Sink non-nil), periodically
	// snapshots the full coordinator state — sample store, proof cache, work
	// queues, dedup sets, statistics — at work-loop boundaries. Restoring
	// any snapshot via Restore continues the search bit-identically to the
	// uninterrupted run, at any worker count. See DESIGN.md §9.
	Checkpoint CheckpointOptions
	// Restore, when non-nil, resumes the search from a snapshot instead of
	// the Seeds. The engine must be fresh (empty sample store) and built for
	// the same program and mode; validate with Snapshot.Validate first — Run
	// panics on a snapshot it cannot restore. For a bit-identical
	// continuation the session must use the same MaxRuns, Bounds, Budget,
	// Refute, and ProverNodes as the interrupted one (Workers may differ).
	Restore *Snapshot
	// OnRun, when non-nil, is called by the coordinator for every applied
	// execution, in canonical apply order — the stream the campaign corpus
	// is built from. The callback runs synchronously on the coordinator;
	// keep it cheap.
	OnRun func(RunRecord)
	// NoIncrementalSMT disables solver sessions everywhere in the pipeline:
	// the prover falls back to one-shot smt.Solve calls and the
	// satisfiability path drops its per-worker sessions. Results are
	// bit-identical either way (the equivalence gate in the tests depends on
	// it); the flag exists for ablations and for isolating solver regressions.
	NoIncrementalSMT bool
}

// item is one unit of search work: an input to execute, with the trace
// prediction used for divergence checking and the generational bound.
type item struct {
	input    []int64
	expected []mini.BranchEvent
	bound    int
	pending  *pendingTarget
	// funcs are the function-valued inputs the test runs under, aligned with
	// the program's FuncShape (nil, or nil entries, mean the default
	// function). Seeds run with nil funcs; generated tests inherit their
	// parent execution's funcs unless the callback synthesis invented new
	// ones.
	funcs []*mini.FuncValue
	// rung records which precision-ladder rung generated the input
	// (RungProof for seeds, which predate any solving); it rides along so
	// run records and checkpoints can report test provenance.
	rung Rung
	// noExpand marks sample-collection (intermediate) runs, which are not
	// expanded into new targets.
	noExpand bool
}

// pendingTarget is a multi-step continuation: a proved strategy whose
// resolution is blocked on unobserved samples.
type pendingTarget struct {
	strategy *fol.Strategy
	alt      sym.Expr
	expected []mini.BranchEvent
	fallback []int64
	funcs    []*mini.FuncValue
	bound    int
	retries  int
	hot      bool
}

// Run performs the directed search and returns its statistics.
func Run(eng *concolic.Engine, opts Options) *Stats {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 100
	}
	if opts.MaxMultiStep <= 0 {
		opts.MaxMultiStep = 3
	}
	if opts.ProverNodes <= 0 {
		opts.ProverNodes = 4000
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if len(opts.Seeds) == 0 && opts.Restore == nil {
		panic("search: at least one seed input is required")
	}
	s := &searcher{eng: eng, opts: opts, stats: newStats(eng.Mode.String(), eng.Prog.NumBranches)}
	s.cache = newProofCache()
	s.obs = opts.Obs
	s.live.init(s.obs)
	if s.obs.Enabled() && eng.Obs == nil {
		eng.Obs = s.obs
	}
	s.ctx = opts.Ctx
	if b := opts.Budget; b.SearchTimeout > 0 {
		base := s.ctx
		if base == nil {
			base = context.Background()
		}
		ctx, cancel := context.WithTimeout(base, b.SearchTimeout)
		defer cancel()
		s.ctx = ctx
	}
	if s.ctx != nil {
		if dl, ok := s.ctx.Deadline(); ok {
			s.deadline = dl
		}
		// Let in-flight executions notice cancellation too, not just the
		// coordinator between work units. Restored on return: the probe closes
		// over this search's context and must not outlive it on a shared engine.
		if eng.CheckCancel == nil {
			ctx := s.ctx
			eng.CheckCancel = func() bool { return ctx.Err() != nil }
			defer func() { eng.CheckCancel = nil }()
		}
	}
	s.stats.Budget.Configured = opts.Budget.Active() || opts.Ctx != nil
	s.stats.Workers = opts.Workers
	s.stats.ProofsPerWorker = make([]int64, opts.Workers)
	s.varBounds = make(map[int]smt.Bound)
	for i, v := range eng.InputVars {
		if i < len(opts.Bounds) {
			b := opts.Bounds[i]
			if b.HasLo || b.HasHi {
				s.varBounds[v.ID] = b
			}
		}
	}
	if !opts.NoIncrementalSMT {
		// Allocated here, on the coordinator, so workers only ever touch
		// their own slot (satSession's lazy per-slot creation is race-free).
		s.satSessions = make([]*smt.Context, opts.Workers)
	}
	if opts.Restore != nil {
		// Resume: the queues, dedup sets, cache, statistics, and sample
		// store all come from the snapshot; the seeds were consumed by the
		// interrupted session and must not be re-enqueued.
		if err := s.restoreSnapshot(opts.Restore); err != nil {
			panic("search: restoring snapshot: " + err.Error())
		}
		s.stats.Resumed = true
	} else {
		for _, seed := range opts.Seeds {
			s.hot = append(s.hot, item{input: seed})
		}
	}
	if s.tracing() {
		// The resolved worker count is deliberately absent: like worker IDs
		// and timestamps it is scheduling configuration, and the canonical
		// stream must be identical at every worker count. It is reported via
		// the search.workers gauge and Stats instead.
		kind := "run_start"
		num := map[string]int64{
			"max_runs": int64(opts.MaxRuns),
			"seeds":    int64(len(opts.Seeds)), "branches": int64(eng.Prog.NumBranches),
		}
		if opts.Restore != nil {
			// A resumed session opens with "resume" instead of "run_start";
			// both are session-boundary markers, filtered out of
			// cross-session stream comparisons (DESIGN.md §9).
			kind = "resume"
			num["runs"] = int64(s.stats.Runs)
			num["tests"] = int64(s.stats.TestsGenerated)
			num["samples"] = int64(eng.Samples.Len())
			num["frontier"] = int64(len(s.hot) + len(s.cold))
		}
		s.emit(obs.Event{Kind: kind, Worker: -1, Num: num,
			Str: map[string]string{"mode": eng.Mode.String()}})
	}
	start := time.Now()
	s.run()
	s.stats.WallTime = time.Since(start)
	s.stats.SolveTime = time.Duration(s.solveNanos)
	s.stats.SamplesLearned = eng.Samples.Len()
	s.flushObs()
	return s.stats
}

// tracing reports whether trace events should be built and emitted.
func (s *searcher) tracing() bool { return s.obs.Tracing() }

// emit forwards one coordinator-ordered event to the tracer.
func (s *searcher) emit(ev obs.Event) { s.obs.Emit(ev) }

// taskEvent emits a worker-task event whose timestamp is the recorded task
// start (trace-relative) rather than the emission time, so the worker-pool
// timeline renders faithfully in Chrome traces. start/dur/worker are
// scheduling facts, excluded from the canonical stream.
func (s *searcher) taskEvent(kind string, worker int, start time.Time, dur time.Duration, num map[string]int64, str map[string]string) {
	ev := obs.Event{Kind: kind, Worker: worker, Dur: int64(dur), Num: num, Str: str}
	if !start.IsZero() {
		ev.TS = int64(start.Sub(s.obs.Trace.Start()))
	}
	s.emit(ev)
}

// flushObs publishes the end-of-search statistics into the metrics registry
// and emits the run_end event. Counters accumulate across searches sharing a
// registry (the experiment harness runs several per experiment).
func (s *searcher) flushObs() {
	o := s.obs
	if !o.Enabled() {
		return
	}
	st := s.stats
	s.publishLive() // final values: post-run /statusz equals the final Stats
	o.Gauge("search.workers").Set(int64(st.Workers))
	o.Gauge("search.samples").Set(int64(st.SamplesLearned))
	o.Counter("search.runs").Add(int64(st.Runs))
	o.Counter("search.tests_generated").Add(int64(st.TestsGenerated))
	o.Counter("search.intermediate_tests").Add(int64(st.IntermediateTests))
	o.Counter("search.divergences").Add(int64(st.Divergences))
	o.Counter("search.bugs").Add(int64(len(st.Bugs)))
	o.Counter("search.multistep_chains").Add(int64(st.MultiStepChains))
	o.Counter("search.callback.targets").Add(int64(st.CallbackTargets))
	o.Counter("search.callback.funcs_synthesized").Add(int64(st.FuncsSynthesized))
	o.Counter("search.prover.calls").Add(int64(st.ProverCalls))
	o.Counter("search.prover.proved").Add(int64(st.ProverProved))
	o.Counter("search.prover.invalid").Add(int64(st.ProverInvalid))
	o.Counter("search.prover.unknown").Add(int64(st.ProverUnknown))
	o.Counter("search.solver.calls").Add(int64(st.SolverCalls))
	o.Counter("search.solver.sat").Add(int64(st.SolverSat))
	o.Counter("search.proof_cache.hits").Add(int64(st.ProofCacheHits))
	o.Counter("search.proof_cache.misses").Add(int64(st.ProofCacheMisses))
	o.Gauge("search.proof_cache.size").Set(int64(s.cache.size()))
	o.Counter("search.wall_ns").Add(int64(st.WallTime))
	o.Counter("search.solve_ns").Add(int64(st.SolveTime))
	if bs := st.Budget; bs.show() {
		o.Counter("search.budget.proof_timeouts").Add(int64(bs.ProofTimeouts))
		o.Counter("search.budget.prover_panics").Add(int64(bs.ProverPanics))
		o.Counter("search.budget.exec_failures").Add(int64(bs.ExecFailures))
		o.Counter("search.budget.degraded_qf").Add(int64(bs.DegradedQF))
		o.Counter("search.budget.degraded_concretize").Add(int64(bs.DegradedConc))
		for r := RungProof; r < NumRungs; r++ {
			o.Counter("search.budget.tests." + r.String()).Add(int64(bs.TestsByRung[r]))
		}
	}
	if c := s.eng.Summaries; c != nil {
		o.Gauge("concolic.summary.hits").Set(int64(c.Hits))
		o.Gauge("concolic.summary.misses").Set(int64(c.Misses))
		o.Gauge("concolic.summary.fallbacks").Set(int64(c.Fallbacks))
		o.Gauge("concolic.summary.cases").Set(int64(c.Cases()))
	}
	if s.tracing() {
		boolNum := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		num := map[string]int64{
			"runs": int64(st.Runs), "tests": int64(st.TestsGenerated),
			"covered": int64(st.BranchSidesCovered()), "cov_total": int64(st.BranchSidesTotal()),
			"paths": int64(st.Paths()), "bugs": int64(len(st.Bugs)),
			"divergences": int64(st.Divergences), "samples": int64(st.SamplesLearned),
			"exhausted": boolNum(st.Exhausted), "incomplete": boolNum(st.Incomplete),
		}
		if st.Budget.show() {
			num["degraded"] = int64(st.Budget.Degraded())
			num["proof_timeouts"] = int64(st.Budget.ProofTimeouts)
			num["timed_out"] = boolNum(st.Budget.TimedOut)
			num["cancelled"] = boolNum(st.Budget.Cancelled)
		}
		s.emit(obs.Event{Kind: "run_end", Worker: -1, Num: num})
	}
}

// searcher is the search coordinator. All queue, dedup-map, statistics, and
// shared-sample-store mutation happens on the coordinating goroutine; workers
// only execute tests against sample-store overlays and discharge proof
// obligations against the frozen shared store (see processBatch and the
// solveTargets functions for why the merge order makes every worker count
// produce identical results).
type searcher struct {
	eng   *concolic.Engine
	opts  Options
	stats *Stats
	// Two-tier work queue (SAGE-style generational scoring): children of
	// runs that covered new branch sides are processed before the rest, so
	// productive chains — extend a chunk, invert its hash, classify the next
	// chunk — stay hot instead of drowning in breadth-first noise.
	hot, cold []item
	varBounds map[int]smt.Bound
	tried     map[string]bool
	targeted  map[string]bool
	// cache memoizes per-target proof and satisfiability results; see
	// cache.go. Only the coordinator touches it.
	cache *proofCache
	// solveNanos aggregates the duration of individual prover/solver tasks
	// across workers (atomic).
	solveNanos int64
	// obs is the observability sink (nil = disabled). Metrics may be updated
	// from worker goroutines (atomics); trace events are emitted only from
	// the coordinator, in canonical apply order.
	obs *obs.Obs
	// ctx is the search's cancellation context (nil = not cancellable) and
	// deadline its absolute wall-clock cutoff (zero = none). Both are fixed
	// before the first work unit; workers only read them.
	ctx      context.Context
	deadline time.Time
	// lastCkpt is the Runs value at the most recent checkpoint (or restore),
	// driving the checkpoint cadence; ckptFailed latches after a sink error
	// so a broken sink is reported once, not once per cadence.
	lastCkpt   int
	ckptFailed bool
	// satSessions holds one exact-mode solver session per worker for the
	// satisfiability path (indexed by worker, created lazily, confined to
	// that worker's goroutine). Nil when Options.NoIncrementalSMT is set.
	satSessions []*smt.Context
	// live publishes in-flight progress gauges for /statusz; see live.go.
	live liveGauges
}

// satSession returns (creating on first use) the given worker's solver
// session, or nil when incremental solving is disabled.
func (s *searcher) satSession(worker int) *smt.Context {
	if s.satSessions == nil {
		return nil
	}
	if s.satSessions[worker] == nil {
		s.satSessions[worker] = smt.NewContext(smt.ContextOptions{
			Options: smt.Options{Pool: s.eng.Pool, VarBounds: s.varBounds, Obs: s.obs},
		})
	}
	return s.satSessions[worker]
}

// canceled reports whether the search context has fired. Safe from workers.
func (s *searcher) canceled() bool { return s.ctx != nil && s.ctx.Err() != nil }

// inputKey is the dedup key of an input vector: a length-prefixed varint
// encoding, one short allocation instead of fmt-formatting every element.
func inputKey(in []int64) string {
	var tmp [binary.MaxVarintLen64]byte
	buf := make([]byte, 0, 2*len(in)+1)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(in)))]...)
	for _, v := range in {
		buf = append(buf, tmp[:binary.PutVarint(tmp[:], v)]...)
	}
	return string(buf)
}

// runKey is the dedup key of one test: the scalar input vector plus, for
// programs with function-valued parameters, the canonical rendering of every
// function input. Two tests are the same run iff both agree — the same
// scalars under a different synthesized callback explore a different path.
// For programs without function parameters it is exactly inputKey, so
// checkpoints of first-order searches are unchanged.
func (s *searcher) runKey(input []int64, funcs []*mini.FuncValue) string {
	shape := s.eng.FuncShape()
	if len(shape) == 0 {
		return inputKey(input)
	}
	return inputKey(input) + "|" + mini.FuncValuesKey(funcs, shape)
}

// funcsText renders the function inputs in canonical text, one per function
// parameter, for run records and bug reports. Nil for first-order programs.
func (s *searcher) funcsText(funcs []*mini.FuncValue) []string {
	shape := s.eng.FuncShape()
	if len(shape) == 0 {
		return nil
	}
	out := make([]string, len(shape))
	for i, fp := range shape {
		var fv *mini.FuncValue
		if i < len(funcs) {
			fv = funcs[i]
		}
		out[i] = mini.FuncValueString(fv, fp.Arity)
	}
	return out
}

// batchSource says where nextBatch got its work from.
type batchSource int

const (
	srcEmpty   batchSource = iota // both queues drained
	srcPending                    // a multi-step continuation to resume
	srcRun                        // inputs to execute
)

// nextBatch takes the next unit(s) of work off the queues, replicating the
// sequential pop order exactly:
//
//   - a pending continuation at the hot head is returned alone — it must
//     re-resolve against the samples exactly as they stand now;
//   - consecutive plain items at the hot head form a batch (bounded by the
//     worker count and the remaining run budget). Their executions are
//     mutually independent — concrete behavior never depends on the sample
//     store — so running them concurrently and merging in order is exact;
//   - a cold item is returned alone: its expansion may enqueue hot children
//     that sequentially precede the rest of the cold queue.
//
// Inputs already tried are dropped during selection, exactly when the
// sequential loop would have popped and skipped them.
func (s *searcher) nextBatch() ([]item, batchSource) {
	if len(s.hot) > 0 {
		if s.hot[0].pending != nil {
			it := s.hot[0]
			s.hot = s.hot[1:]
			return []item{it}, srcPending
		}
		limit := s.opts.MaxRuns - s.stats.Runs
		if limit > s.opts.Workers {
			limit = s.opts.Workers
		}
		var batch []item
		var batchKeys map[string]bool
		for len(batch) < limit && len(s.hot) > 0 && s.hot[0].pending == nil {
			it := s.hot[0]
			s.hot = s.hot[1:]
			key := s.runKey(it.input, it.funcs)
			if s.tried[key] || batchKeys[key] {
				continue
			}
			if batchKeys == nil {
				batchKeys = make(map[string]bool, limit)
			}
			batchKeys[key] = true
			batch = append(batch, it)
		}
		return batch, srcRun
	}
	if len(s.cold) > 0 {
		it := s.cold[0]
		s.cold = s.cold[1:]
		if s.tried[s.runKey(it.input, it.funcs)] {
			return nil, srcRun
		}
		return []item{it}, srcRun
	}
	return nil, srcEmpty
}

func (s *searcher) run() {
	if s.tried == nil {
		s.tried = map[string]bool{}
	}
	if s.targeted == nil {
		s.targeted = map[string]bool{}
	}
	for s.stats.Runs < s.opts.MaxRuns {
		s.publishLive()
		if s.stopEarly() {
			return
		}
		// Checkpoint after the cancellation check: a cancelled batch drops
		// items nondeterministically (whichever were in flight), so the
		// post-cancel state is not on the canonical trajectory and must
		// never become a resume point.
		s.maybeCheckpoint()
		batch, src := s.nextBatch()
		switch src {
		case srcEmpty:
			s.stats.Exhausted = true
			return
		case srcPending:
			s.resumePending(batch[0].pending)
			continue
		}
		if len(batch) == 0 {
			continue // only duplicates were queued
		}
		if s.processBatch(batch) {
			return
		}
	}
}

// stopEarly checks the search context between work units. On cancellation it
// records the cause — a fired deadline (ours or the caller's) versus an
// explicit cancel — emits the cancel event, and tells the run loop to return
// with whatever partial results stand. Everything already merged stays valid:
// the coordinator only applies completed work, in order.
func (s *searcher) stopEarly() bool {
	if !s.canceled() {
		return false
	}
	cause := "canceled"
	if errors.Is(s.ctx.Err(), context.DeadlineExceeded) {
		cause = "deadline"
		s.stats.Budget.TimedOut = true
	} else {
		s.stats.Budget.Cancelled = true
	}
	if s.tracing() {
		s.emit(obs.Event{Kind: "cancel", Worker: -1,
			Num: map[string]int64{"runs": int64(s.stats.Runs)},
			Str: map[string]string{"cause": cause}})
	}
	return true
}

// processBatch executes the batch (concurrently when it has more than one
// item), then merges results in batch order: each item's new samples land in
// the shared store, its run is recorded, and its expansion runs — exactly the
// per-item sequence of the sequential loop. The merge order matters: sample
// insertion order steers the prover's choice ordering, so it must not depend
// on worker completion order. It returns true when the search should stop.
func (s *searcher) processBatch(batch []item) bool {
	type runResult struct {
		ex       *concolic.Execution
		overlay  *sym.SampleStore
		panicked bool
		worker   int
		start    time.Time
		dur      time.Duration
	}
	// execOne shields the coordinator from executor panics (injected faults or
	// interpreter defects): a panicking run is dropped and accounted instead of
	// taking the whole search down.
	execOne := func(eng *concolic.Engine, input []int64, funcs []*mini.FuncValue) (ex *concolic.Execution, panicked bool) {
		defer func() {
			if rec := recover(); rec != nil {
				ex, panicked = nil, true
			}
		}()
		return eng.RunWith(input, funcs), false
	}
	tracing := s.tracing()
	// prevLen tracks the shared store size so per-item "samples learned"
	// counts come from merge-order deltas — deterministic at any worker count
	// (the per-overlay NewSamples counts are not: two overlays of one batch
	// may both record a sample only one of them gets to merge first).
	var prevLen int
	if tracing {
		prevLen = s.eng.Samples.Len()
	}
	results := make([]runResult, len(batch))
	if len(batch) == 1 {
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		results[0].ex, results[0].panicked = execOne(s.eng, batch[0].input, batch[0].funcs)
		if tracing {
			results[0].start, results[0].dur = t0, time.Since(t0)
		}
	} else {
		s.parallelDo(len(batch), func(i, worker int) {
			var t0 time.Time
			if tracing {
				t0 = time.Now()
			}
			overlay := sym.NewOverlay(s.eng.Samples)
			ex, panicked := execOne(s.eng.Clone(overlay), batch[i].input, batch[i].funcs)
			results[i] = runResult{ex: ex, overlay: overlay, panicked: panicked, worker: worker, start: t0}
			if tracing {
				results[i].dur = time.Since(t0)
			}
		})
	}
	for i, it := range batch {
		r := results[i]
		if r.ex == nil || r.ex.Canceled {
			// Dropped: the executor panicked, the run was cancelled mid-flight,
			// or the batch was cut short before this item started. The input
			// still counts as tried so the queue cannot loop on it; nothing is
			// merged or recorded — a partial run's coverage would make reports
			// depend on cancellation timing.
			s.tried[s.runKey(it.input, it.funcs)] = true
			if r.panicked {
				s.stats.Budget.ExecFailures++
				if tracing {
					s.emit(obs.Event{Kind: "exec_failure", Worker: -1,
						Str: map[string]string{"input": fmt.Sprint(it.input)}})
				}
			}
			continue
		}
		if r.overlay != nil {
			s.eng.Samples.MergeLocal(r.overlay)
		}
		s.tried[s.runKey(it.input, it.funcs)] = true
		bugsBefore := len(s.stats.Bugs)
		funcsText := s.funcsText(it.funcs)
		gained := s.stats.recordRunFuncs(r.ex.Result, it.input, funcsText)
		if r.ex.Incomplete {
			s.stats.Incomplete = true
		}
		div := it.expected != nil && diverged(r.ex.Result.Branches, it.expected)
		if div {
			s.stats.Divergences++
		}
		if tracing {
			intermediate := int64(0)
			if it.noExpand {
				intermediate = 1
			}
			s.taskEvent("exec_task", r.worker, r.start, r.dur,
				map[string]int64{
					"run": int64(s.stats.Runs), "gained": int64(gained),
					"path_len": int64(len(r.ex.PC)), "branches": int64(len(r.ex.Result.Branches)),
					"intermediate": intermediate,
				},
				map[string]string{"input": fmt.Sprint(it.input)})
			if cur := s.eng.Samples.Len(); cur > prevLen {
				s.emit(obs.Event{Kind: "samples_learned", Worker: -1,
					Num: map[string]int64{"count": int64(cur - prevLen), "total": int64(cur), "run": int64(s.stats.Runs)}})
				prevLen = cur
			}
			if div {
				s.emit(obs.Event{Kind: "divergence", Worker: -1,
					Num: map[string]int64{"run": int64(s.stats.Runs), "expected_len": int64(len(it.expected)), "actual_len": int64(len(r.ex.Result.Branches))}})
			}
			for _, b := range s.stats.Bugs[bugsBefore:] {
				s.emit(obs.Event{Kind: "bug_found", Worker: -1,
					Num: map[string]int64{"run": int64(b.Run), "site": int64(b.Site)},
					Str: map[string]string{"kind": b.Kind.String(), "msg": b.Msg, "input": fmt.Sprint(b.Input)}})
			}
		}
		if s.opts.OnRun != nil {
			rec := RunRecord{
				Run: s.stats.Runs, Input: it.input, Funcs: funcsText, Path: r.ex.Result.Path(),
				Gained: gained, Rung: it.rung,
				Seed:         !it.noExpand && it.expected == nil,
				Intermediate: it.noExpand,
				Diverged:     div,
			}
			if len(s.stats.Bugs) > bugsBefore {
				rec.Bugs = append([]Bug(nil), s.stats.Bugs[bugsBefore:]...)
			}
			s.opts.OnRun(rec)
		}
		if s.opts.StopAtFirstBug && len(s.stats.ErrorSitesFound()) > 0 {
			return true
		}
		if !it.noExpand {
			s.expand(r.ex, it.bound, gained > 0)
		}
	}
	return false
}

// parallelDo runs fn(i, worker) for every i in [0, n), fanning the indices
// out over min(Workers, n) goroutines. With one worker (or one task) it runs
// inline on the coordinator. fn implementations write only to their own index
// i and their own worker slot.
func (s *searcher) parallelDo(n int, fn func(i, worker int)) {
	workers := s.opts.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if s.canceled() {
				return
			}
			fn(i, 0)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n || s.canceled() {
					return
				}
				fn(i, w)
			}
		}(w)
	}
	wg.Wait()
}

// diverged reports whether the actual trace fails to realize the prediction.
func diverged(actual, expected []mini.BranchEvent) bool {
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

// target is one proof obligation of an expansion: ALT(pc_k) with its trace
// prediction. The solve phase fills the result fields.
type target struct {
	alt sym.Expr
	// k indexes the negated constraint in the execution's path constraint;
	// ex.ExpectedTrace(k) is the target's trace prediction.
	k        int
	cacheKey string
	// Higher-order result: core strategy (no fallback defs) and outcome.
	strategy *fol.Strategy
	outcome  fol.Outcome
	// Satisfiability result (non-higher-order modes, and the degraded rungs
	// of higher-order mode).
	status smt.Status
	model  *smt.Model
	// rung is the final precision-ladder rung attempted (higher-order mode):
	// RungProof unless Budget.Degrade walked the target down after a cut-short
	// proof, in which case status/model hold the lower rung's result.
	rung Rung
	// panicked marks a validity proof that panicked and was recovered (the
	// outcome is then unknown). fromCache marks a selection-time cache hit —
	// such targets skip ProveCore but still run degraded retries, which
	// depend on the parent input and are never cached. done is set by the
	// worker that finished the target; unset means the fan-out was cancelled
	// before the target ran, and the coordinator skips it entirely.
	panicked  bool
	fromCache bool
	done      bool
	// Scheduling facts for the trace (which worker discharged the proof,
	// when, how long); zero for cache hits. Excluded from canonical streams.
	worker int
	start  time.Time
	dur    time.Duration
}

// expand generates new work items by negating each negatable constraint of
// the execution from the generational bound onward. Each target is sliced to
// its related constraints and deduplicated before any solver work; the
// surviving targets' proof obligations all read the same frozen sample store,
// so they are discharged concurrently and their results applied in constraint
// order.
func (s *searcher) expand(ex *concolic.Execution, bound int, hot bool) {
	// The prefix grows by one conjunct per constraint. The slicer and the key
	// packer take in each conjunct's dependencies and branch event once, not
	// once per target; a target's expected trace is copied only if it yields
	// a test.
	prefix := newSlicer()
	for i := 0; i < bound && i < len(ex.PC); i++ {
		e := ex.PC[i].Expr
		prefix.add(e, depIDs(e))
	}
	keys := keyPacker{branches: ex.Result.Branches}
	var targets, callback []*target
	for k := bound; k < len(ex.PC); k++ {
		c := ex.PC[k]
		if c.IsConcretization {
			prefix.add(c.Expr, depIDs(c.Expr))
			continue
		}
		negated := sym.NotExpr(c.Expr)
		if key := keys.key(c.EventIndex, negated); !s.targeted[string(key)] {
			s.targeted[string(key)] = true
			t := &target{alt: prefix.slice(negated), k: k, worker: -1}
			if hasInputFn(t.alt) {
				// The target constrains a function-valued input: it is solved
				// by the witness-constructor path (funcsynth.go), which
				// materializes a concrete decision table per generated test.
				callback = append(callback, t)
			} else {
				targets = append(targets, t)
			}
			if s.tracing() {
				s.emit(obs.Event{Kind: "target", Worker: -1,
					Num: map[string]int64{
						"k": int64(k), "conjuncts": int64(len(sym.Conjuncts(t.alt))),
						"formula_size": int64(len(t.alt.Key())),
					}})
			}
		}
		prefix.add(c.Expr, depIDs(c.Expr))
	}
	if len(targets) > 0 {
		if s.eng.Mode == concolic.ModeHigherOrder {
			s.solveTargetsHigherOrder(targets, ex, hot)
		} else {
			s.solveTargetsSat(targets, ex, hot)
		}
	}
	if len(callback) > 0 {
		s.solveTargetsCallback(callback, ex, hot)
	}
}

// solveTargetsHigherOrder discharges the expansion's validity proofs:
// cache-missing targets fan out over the workers (ProveCore only reads the
// sample store and allocates from the synchronized pool), then results are
// applied — and the cache is filled — in constraint order on the coordinator.
// Computing the cache key also memoizes the formula's canonical string, so
// workers never write the lazy key fields of shared subterms.
//
// Under Budget.Degrade, a target whose proof was cut short (timeout, node
// budget, recovered panic) is walked down the precision ladder on the same
// worker (degradeTarget). Degraded results depend on the parent input and are
// never cached; cache-hit targets with a degradable outcome therefore still
// fan out, just skipping the proof. Timed-out and panicked proofs are not
// cached either — an entry recording "ran out of wall clock" would poison
// every later occurrence of the formula.
func (s *searcher) solveTargetsHigherOrder(targets []*target, ex *concolic.Execution, hot bool) {
	fallback := ex.Input
	version := s.eng.Samples.Len()
	fb := make(map[int]int64, len(fallback))
	for i, v := range s.eng.InputVars {
		fb[v.ID] = fallback[i]
	}
	var todo []*target
	for _, t := range targets {
		t.cacheKey = proveKey(t.alt, version)
		if e, ok := s.cache.prove[t.cacheKey]; ok {
			t.strategy, t.outcome, t.fromCache = e.strategy, e.outcome, true
			if s.shouldDegrade(t.outcome, false) {
				todo = append(todo, t)
			} else {
				t.done = true
			}
		} else {
			todo = append(todo, t)
		}
	}
	// prove shields the coordinator from prover panics (injected faults or
	// defects): a panicking proof becomes an unknown, degradable outcome.
	prove := func(t *target, t0 time.Time) {
		defer func() {
			if rec := recover(); rec != nil {
				t.strategy, t.outcome, t.panicked = nil, fol.OutcomeUnknown, true
			}
		}()
		t.strategy, t.outcome = fol.ProveCore(t.alt, s.eng.Samples, fol.Options{
			Pool:             s.eng.Pool,
			VarBounds:        s.varBounds,
			NoRefute:         !s.opts.Refute,
			MaxNodes:         s.opts.ProverNodes,
			Obs:              s.obs,
			Ctx:              s.ctx,
			Deadline:         s.proofDeadline(t0),
			NoIncrementalSMT: s.opts.NoIncrementalSMT,
		})
	}
	s.parallelDo(len(todo), func(i, worker int) {
		t := todo[i]
		t0 := time.Now()
		if !t.fromCache {
			prove(t, t0)
		}
		if s.shouldDegrade(t.outcome, t.panicked) {
			s.degradeTarget(t, fb, t0)
		}
		t.worker, t.start, t.dur = worker, t0, time.Since(t0)
		atomic.AddInt64(&s.solveNanos, int64(t.dur))
		s.stats.ProofsPerWorker[worker]++
		t.done = true
	})
	for _, t := range targets {
		if !t.done {
			continue // cancelled before this target's turn; nothing to account
		}
		// Cache accounting happens here, in constraint order, so the hit and
		// miss counts are identical at every worker count. (Two targets of
		// one fan-out sharing a formula are proved twice concurrently; the
		// second is still accounted as a hit, its duplicate result dropped.)
		cached := "miss"
		if e, ok := s.cache.prove[t.cacheKey]; ok {
			cached = "hit"
			s.stats.ProofCacheHits++
			t.strategy, t.outcome = e.strategy, e.outcome
		} else {
			s.stats.ProofCacheMisses++
			if t.outcome != fol.OutcomeTimeout && !t.panicked {
				s.cache.prove[t.cacheKey] = proveEntry{strategy: t.strategy, outcome: t.outcome}
			}
		}
		s.stats.ProverCalls++
		if s.tracing() {
			s.emit(obs.Event{Kind: "cache", Worker: -1,
				Str: map[string]string{"op": "prove", "result": cached}})
			num := map[string]int64{"k": int64(t.k), "formula_size": int64(len(t.alt.Key()))}
			if t.strategy != nil {
				num["defs"] = int64(len(t.strategy.Defs))
				num["steps"] = int64(len(t.strategy.Proof))
			}
			s.taskEvent("prove", t.worker, t.start, t.dur, num,
				map[string]string{"verdict": t.outcome.String(), "cache": cached})
		}
		if t.panicked {
			s.stats.Budget.ProverPanics++
		}
		switch t.outcome {
		case fol.OutcomeInvalid:
			s.stats.ProverInvalid++
			continue
		case fol.OutcomeTimeout:
			s.stats.Budget.ProofTimeouts++
			s.stats.ProverUnknown++
		case fol.OutcomeUnknown:
			s.stats.ProverUnknown++
		default:
			s.stats.ProverProved++
			pt := &pendingTarget{
				// The cached strategy is shared; FillFallback copies it while
				// fixing this target's unconstrained variables at the parent
				// input's values.
				strategy: fol.FillFallback(t.strategy, t.alt, fb),
				alt:      t.alt,
				expected: ex.ExpectedTrace(t.k),
				fallback: fallback,
				funcs:    ex.Funcs,
				bound:    t.k + 1,
				retries:  s.opts.MaxMultiStep,
				hot:      hot,
			}
			s.resolveAndEnqueue(pt, true)
			continue
		}
		// The proof was cut short. If the degradation ladder ran, the target
		// carries a lower rung's satisfiability result; account it and turn a
		// sat model into a test tagged with its rung.
		if t.rung == RungProof {
			continue
		}
		switch t.rung {
		case RungQF:
			s.stats.Budget.DegradedQF++
		case RungConcretize:
			s.stats.Budget.DegradedConc++
		}
		if t.status == smt.StatusTimeout {
			s.stats.Budget.ProofTimeouts++
		}
		if s.tracing() {
			s.emit(obs.Event{Kind: "degrade", Worker: -1,
				Num: map[string]int64{"k": int64(t.k)},
				Str: map[string]string{"rung": t.rung.String(), "status": t.status.String()}})
		}
		if t.status != smt.StatusSat {
			continue
		}
		s.enqueueTest(s.inputFrom(t.model.Vars, fallback), ex.Funcs, ex.ExpectedTrace(t.k), t.k+1, hot, t.rung)
	}
}

// solveTargetsSat is classic test generation: satisfiability checks of
// ALT(pc), fanned out and cached like the validity proofs (solver results do
// not depend on the sample store, so the cache key is the formula alone).
func (s *searcher) solveTargetsSat(targets []*target, ex *concolic.Execution, hot bool) {
	fallback := ex.Input
	var todo []*target
	for _, t := range targets {
		t.cacheKey = t.alt.Key()
		if _, ok := s.cache.solve[t.cacheKey]; ok {
			t.done = true // a selection-time hit, read back when accounted
		} else {
			todo = append(todo, t)
		}
	}
	s.parallelDo(len(todo), func(i, worker int) {
		t := todo[i]
		t0 := time.Now()
		if ses := s.satSession(worker); ses != nil {
			// Exact-mode sessions answer bit-identically to a fresh Solve, so
			// which worker (and hence which session) serves a target cannot
			// influence the result; only the shared Ackermann expansion and
			// interned structure are reused across a worker's targets.
			t.status, t.model = ses.SolveUnder(t.alt, s.ctx, s.proofDeadline(t0))
		} else {
			t.status, t.model = smt.Solve(t.alt, smt.Options{
				Pool: s.eng.Pool, VarBounds: s.varBounds, Obs: s.obs,
				Ctx: s.ctx, Deadline: s.proofDeadline(t0),
			})
		}
		t.worker, t.start, t.dur = worker, t0, time.Since(t0)
		atomic.AddInt64(&s.solveNanos, int64(t.dur))
		s.stats.ProofsPerWorker[worker]++
		t.done = true
	})
	for _, t := range targets {
		if !t.done {
			if _, ok := s.cache.solve[t.cacheKey]; !ok {
				continue // cancelled before this target's turn
			}
		}
		cached := "miss"
		if e, ok := s.cache.solve[t.cacheKey]; ok {
			cached = "hit"
			s.stats.ProofCacheHits++
			t.status, t.model = e.status, e.model
		} else {
			s.stats.ProofCacheMisses++
			// A timed-out query is not cached: the verdict records wall-clock
			// exhaustion, not a property of the formula.
			if t.status != smt.StatusTimeout {
				s.cache.solve[t.cacheKey] = solveEntry{status: t.status, model: t.model}
			}
		}
		if t.status == smt.StatusTimeout {
			s.stats.Budget.ProofTimeouts++
		}
		s.stats.SolverCalls++
		if s.tracing() {
			s.emit(obs.Event{Kind: "cache", Worker: -1,
				Str: map[string]string{"op": "solve", "result": cached}})
			s.taskEvent("solve", t.worker, t.start, t.dur,
				map[string]int64{"k": int64(t.k), "formula_size": int64(len(t.alt.Key()))},
				map[string]string{"status": t.status.String(), "cache": cached})
		}
		if t.status != smt.StatusSat {
			continue
		}
		s.stats.SolverSat++
		input := make([]int64, len(fallback))
		copy(input, fallback)
		for i, v := range s.eng.InputVars {
			if val, ok := t.model.Vars[v.ID]; ok {
				input[i] = val
			}
		}
		// Lower modes already solve at the quantifier-free rung; tag their
		// tests accordingly so per-rung counts are meaningful across modes.
		s.enqueueTest(input, ex.Funcs, ex.ExpectedTrace(t.k), t.k+1, hot, RungQF)
	}
}

// resolveAndEnqueue tries to turn a proved strategy into a concrete test; on
// missing samples it schedules an intermediate test plus a continuation.
// first marks the initial attempt (for multi-step accounting).
func (s *searcher) resolveAndEnqueue(pt *pendingTarget, first bool) bool {
	res := pt.strategy.Resolve(s.eng.Samples)
	if res.Complete {
		input := s.inputFrom(res.Values, pt.fallback)
		if !s.inBounds(input) {
			return false
		}
		// Final sanity check against the samples: the strategy is a proof,
		// so this must hold; it guards the implementation.
		values := map[int]int64{}
		for i, v := range s.eng.InputVars {
			values[v.ID] = input[i]
		}
		if ok, probes := fol.Holds(pt.alt, values, s.eng.Samples); len(probes) == 0 && !ok {
			return false
		}
		s.enqueueTest(input, pt.funcs, pt.expected, pt.bound, pt.hot, RungProof)
		return true
	}
	if pt.retries <= 0 {
		return false
	}
	// Multi-step test generation (Example 7): run an intermediate test with
	// the resolved values filled in, hoping the program samples the probes.
	if first {
		s.stats.MultiStepChains++
	}
	pt.retries--
	intermediate := s.inputFrom(res.Values, pt.fallback)
	if !s.inBounds(intermediate) {
		return false
	}
	s.stats.IntermediateTests++
	if s.tracing() {
		s.emit(obs.Event{Kind: "multistep", Worker: -1,
			Num: map[string]int64{"retries_left": int64(pt.retries), "bound": int64(pt.bound), "probes": int64(len(res.Probes))},
			Str: map[string]string{"intermediate": fmt.Sprint(intermediate)}})
	}
	// Intermediate sample-collection runs and their continuations always go
	// hot: they complete a proof already in hand. They run under the parent's
	// function inputs, so the samples they collect are the parent function's.
	s.hot = append(s.hot, item{input: intermediate, funcs: pt.funcs, noExpand: true})
	s.hot = append(s.hot, item{pending: pt})
	return true
}

// resumePending re-resolves a blocked strategy after intermediate tests.
func (s *searcher) resumePending(pt *pendingTarget) bool {
	return s.resolveAndEnqueue(pt, false)
}

func (s *searcher) inputFrom(values map[int]int64, fallback []int64) []int64 {
	input := make([]int64, len(fallback))
	copy(input, fallback)
	for i, v := range s.eng.InputVars {
		if val, ok := values[v.ID]; ok {
			input[i] = val
		}
	}
	return input
}

func (s *searcher) inBounds(input []int64) bool {
	for i, v := range s.eng.InputVars {
		b, ok := s.varBounds[v.ID]
		if !ok {
			continue
		}
		if b.HasLo && input[i] < b.Lo {
			return false
		}
		if b.HasHi && input[i] > b.Hi {
			return false
		}
	}
	return true
}

// enqueueTest queues a generated test, recording which precision-ladder rung
// produced it (RungProof for strategies, RungQF for plain solving, lower for
// degraded targets).
func (s *searcher) enqueueTest(input []int64, funcs []*mini.FuncValue, expected []mini.BranchEvent, bound int, hot bool, rung Rung) {
	if s.tried[s.runKey(input, funcs)] {
		return
	}
	s.stats.TestsGenerated++
	s.stats.Budget.TestsByRung[rung]++
	if s.tracing() {
		queue := "cold"
		if hot {
			queue = "hot"
		}
		ev := obs.Event{Kind: "test_generated", Worker: -1,
			Num: map[string]int64{"bound": int64(bound)},
			Str: map[string]string{"input": fmt.Sprint(input), "queue": queue, "rung": rung.String()}}
		if ft := s.funcsText(funcs); ft != nil {
			ev.Str["funcs"] = strings.Join(ft, "; ")
		}
		s.emit(ev)
	}
	it := item{input: input, funcs: funcs, expected: expected, bound: bound, rung: rung}
	if hot {
		s.hot = append(s.hot, it)
	} else {
		s.cold = append(s.cold, it)
	}
}
