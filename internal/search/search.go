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
	// Workers sets how many goroutines discharge an expansion's per-target
	// proof obligations (default GOMAXPROCS). Tests always run one at a time
	// on the calling goroutine; Workers=1 discharges proofs there too. Any
	// setting produces identical results: the coordinator applies worker
	// results in constraint order, so the explored trajectory — runs, tests,
	// coverage, bugs, samples, prover verdicts, checkpoints — is bit-for-bit
	// the same at every worker count. Only the timing and per-worker load
	// figures in Stats depend on scheduling.
	Workers int
	// Obs, when non-nil, enables observability: metrics flow into its
	// registry from every layer (search, prover, solver, executor), and, when
	// Obs.Trace is also set, one structured event is emitted per pipeline
	// event. Events are emitted only by the coordinator in canonical apply
	// order, so the event stream — minus timestamps, durations, and worker
	// IDs — is identical at every worker count. A nil Obs costs one pointer
	// check per instrumentation site.
	Obs *obs.Obs
	// Budget sets the wall-clock ceiling of each proof and enables graceful
	// degradation down the precision ladder. The zero value means unlimited
	// with no degradation — bit-identical to an unbudgeted search at any
	// worker count. See the Budget type and DESIGN.md §8.
	Budget Budget
	// Ctx, when non-nil, cancels the search cooperatively, and its deadline,
	// if any, is the search's wall-clock ceiling (context.WithTimeout bounds
	// a search): the coordinator stops between work units, workers stop
	// picking up tasks, in-flight executions and proofs return early at their
	// next poll point, and Run returns partial (well-formed) Stats with
	// Budget.Cancelled or Budget.TimedOut set.
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
}

// item is one unit of search work: an input to execute, with the trace
// prediction used for divergence checking and the generational bound.
type item struct {
	input    []int64
	expected concolic.Prediction
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
	// ckpt is the item's checkpoint record, built (and encoded) by the first
	// snapshot that finds the item queued and reused by every later one. A
	// queued item is never modified; a re-enqueued continuation is a new
	// item, so a record never outlives the state it encodes.
	ckpt *itemRec
}

// pendingTarget is a multi-step continuation: a proved strategy whose
// resolution is blocked on unobserved samples.
type pendingTarget struct {
	strategy *fol.Strategy
	alt      sym.Expr
	expected concolic.Prediction
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
	s.forms = newFormulas(len(eng.FuncShape()) > 0)
	s.prefix = newSlicer(s.forms)
	s.obs = opts.Obs
	s.live.init(s.obs)
	if s.obs.Enabled() && eng.Obs == nil {
		eng.Obs = s.obs
	}
	s.ctx = opts.Ctx
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

// searcher is the search coordinator. Every test runs on the coordinating
// goroutine, and all queue, dedup-map, statistics, and shared-sample-store
// mutation happens there; workers only discharge proof obligations against
// the frozen shared store (see discharge for why applying their results in
// constraint order makes every worker count produce identical results).
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
	// env is testFrom's input environment by variable ID. Its key set is
	// always exactly the input variables, so each call overwrites it whole.
	// Only the coordinator touches it.
	env map[int]int64
	// tried holds the run keys of executed inputs, targeted the dedup keys
	// of expanded branch targets.
	tried, targeted dedupSet
	// cache memoizes per-target proof and satisfiability results; see
	// cache.go. Only the coordinator touches it.
	cache *proofCache
	// forms interns path-constraint conjuncts and alternate formulas; see
	// slice.go. prefix and keys are expand's slicer and key packer, reused
	// by every expansion. Only the coordinator touches them.
	forms  *formulas
	prefix *slicer
	keys   keyPacker
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
	// live publishes in-flight progress gauges for /statusz; see live.go.
	live liveGauges
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

// next pops the next item off the queues: the hot queue first, then the
// cold one. It reports false when both are drained.
func (s *searcher) next() (it item, ok bool) {
	switch {
	case len(s.hot) > 0:
		it, s.hot = s.hot[0], s.hot[1:]
	case len(s.cold) > 0:
		it, s.cold = s.cold[0], s.cold[1:]
	default:
		return item{}, false
	}
	return it, true
}

func (s *searcher) run() {
	for s.stats.Runs < s.opts.MaxRuns {
		s.publishLive()
		if s.stopEarly() {
			return
		}
		// Checkpoint after the cancellation check: a run cancelled mid-flight
		// is dropped, so the post-cancel state is not on the canonical
		// trajectory and must never become a resume point.
		s.maybeCheckpoint()
		it, ok := s.next()
		if !ok {
			s.stats.Exhausted = true
			return
		}
		if it.pending != nil {
			// Re-resolve a blocked strategy after its intermediate tests.
			s.resolveAndEnqueue(it.pending, false)
			continue
		}
		key := s.runKey(it.input, it.funcs)
		if s.tried.has(key) {
			continue
		}
		// The input counts as tried even if its run is dropped below, so the
		// queue cannot loop on it.
		s.tried.add(key)
		if s.execute(it) {
			return
		}
	}
}

// stopEarly checks the search context between work units. On cancellation it
// records the cause — a fired deadline (ours or the caller's) versus an
// explicit cancel — emits the cancel event, and tells the run loop to return
// with whatever partial results stand. Everything already applied stays
// valid: the coordinator only applies completed work, in order.
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

// runShielded executes one test on the coordinator's engine, so the samples
// it observes land straight in the shared store. It shields the coordinator
// from executor panics (injected faults or interpreter defects): a panicking
// run is dropped and accounted instead of taking the whole search down.
func (s *searcher) runShielded(it item) (ex *concolic.Execution, panicked bool) {
	defer func() {
		if rec := recover(); rec != nil {
			ex, panicked = nil, true
		}
	}()
	return s.eng.RunWith(it.input, it.funcs), false
}

// execute runs one test, records the run and expands it. It returns true
// when the search should stop.
func (s *searcher) execute(it item) bool {
	tracing := s.tracing()
	var t0 time.Time
	if tracing {
		t0 = time.Now()
	}
	ex, panicked := s.runShielded(it)
	if ex == nil || ex.Canceled {
		// Dropped: the executor panicked or the run was cancelled mid-flight.
		// Nothing is recorded — a partial run's coverage would make reports
		// depend on cancellation timing.
		if panicked {
			s.stats.Budget.ExecFailures++
			if tracing {
				s.emit(obs.Event{Kind: "exec_failure", Worker: -1,
					Str: map[string]string{"input": fmt.Sprint(it.input)}})
			}
		}
		return false
	}
	bugsBefore := len(s.stats.Bugs)
	funcsText := s.funcsText(it.funcs)
	gained := s.stats.recordRunFuncs(ex.Result, it.input, funcsText)
	if ex.Incomplete {
		s.stats.Incomplete = true
	}
	div := !it.expected.IsZero() && diverged(ex.Result.Branches, it.expected)
	if div {
		s.stats.Divergences++
	}
	if tracing {
		intermediate := int64(0)
		if it.noExpand {
			intermediate = 1
		}
		s.taskEvent("exec_task", -1, t0, time.Since(t0),
			map[string]int64{
				"run": int64(s.stats.Runs), "gained": int64(gained),
				"path_len": int64(len(ex.PC)), "branches": int64(len(ex.Result.Branches)),
				"intermediate": intermediate,
			},
			map[string]string{"input": fmt.Sprint(it.input)})
		if ex.NewSamples > 0 {
			s.emit(obs.Event{Kind: "samples_learned", Worker: -1,
				Num: map[string]int64{"count": int64(ex.NewSamples), "total": int64(s.eng.Samples.Len()), "run": int64(s.stats.Runs)}})
		}
		if div {
			s.emit(obs.Event{Kind: "divergence", Worker: -1,
				Num: map[string]int64{"run": int64(s.stats.Runs), "expected_len": int64(it.expected.Len()), "actual_len": int64(len(ex.Result.Branches))}})
		}
		for _, b := range s.stats.Bugs[bugsBefore:] {
			s.emit(obs.Event{Kind: "bug_found", Worker: -1,
				Num: map[string]int64{"run": int64(b.Run), "site": int64(b.Site)},
				Str: map[string]string{"kind": b.Kind.String(), "msg": b.Msg, "input": fmt.Sprint(b.Input)}})
		}
	}
	if s.opts.OnRun != nil {
		rec := RunRecord{
			Run: s.stats.Runs, Input: it.input, Funcs: funcsText, Path: ex.Result.Path(),
			Gained: gained, Rung: it.rung,
			Seed:         !it.noExpand && it.expected.IsZero(),
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
		s.expand(ex, it.bound, gained > 0)
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
func diverged(actual []mini.BranchEvent, expected concolic.Prediction) bool {
	if len(actual) < expected.Len() {
		return true
	}
	for i := 0; i < expected.Len(); i++ {
		if actual[i] != expected.At(i) {
			return true
		}
	}
	return false
}

// target is one proof obligation of an expansion: ALT(pc_k) with its trace
// prediction. The solve phase fills the result fields.
type target struct {
	alt *altFormula
	// k indexes the negated constraint in the execution's path constraint;
	// ex.Prediction(k) is the target's trace prediction.
	k int
	// key is the cache key: the formula's canonical key and, for a validity
	// proof, the store version it is looked up at (proveKeyOf).
	// The satisfiability cache reads key.formula alone.
	key proveKey
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
	// The prefix grows by one conjunct per constraint. Each conjunct is
	// interned (formulas), so its dependencies, negation and keys are derived
	// once per search, not once per occurrence; the slicer and the key packer
	// take in each conjunct's record and branch event once, not once per
	// target. Every test generated here predicts its trace with a view of ex's
	// branch trace, never a copy.
	prefix, keys := s.prefix, &s.keys
	prefix.reset()
	keys.reset(ex.Result.Branches)
	for i := 0; i < bound && i < len(ex.PC); i++ {
		prefix.add(s.forms.conjunct(ex.PC[i].Expr))
	}
	var targets, callback []*target
	for k := bound; k < len(ex.PC); k++ {
		pc := ex.PC[k]
		c := s.forms.conjunct(pc.Expr)
		if !pc.IsConcretization && s.targeted.insert(keys.key(pc.EventIndex, c.negKey)) {
			t := &target{alt: prefix.slice(c), k: k, worker: -1}
			if t.alt.callback {
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
						"k": int64(k), "conjuncts": int64(len(sym.Conjuncts(t.alt.expr))),
						"formula_size": int64(len(t.alt.key)),
					}})
			}
		}
		prefix.add(c)
	}
	if len(targets) > 0 || len(callback) > 0 {
		s.discharge(targets, callback, ex, hot)
	}
}

// discharge turns an expansion's targets into tests, climbing the paper's
// §5 ladder in one sequence. Higher-order targets are validity proofs of
// POST(pc), the lower modes' are satisfiability checks of ALT(pc).
//
//   - Select: each target is looked up in the proof cache under its
//     formula's interned key (formulas), whose making memoized the key
//     fields of every subterm, so workers never write them.
//   - Fan out: cache misses go to the workers, which only read the frozen
//     sample store and allocate from the synchronized pool.
//   - Apply: results are accounted, cached and turned into tests in
//     constraint order on the coordinator.
//
// Callback targets come last, one at a time on the coordinator
// (funcsynth.go): their first tier answers probes into one overlay that
// later targets of the expansion read.
//
// Under Budget.Degrade, a target whose proof was cut short (timeout, node
// budget, recovered panic) is walked down the precision ladder on the same
// worker (degradeTarget). Degraded results depend on the parent input and are
// never cached; cache-hit targets with a degradable outcome therefore still
// fan out, just skipping the proof. Timed-out and panicked proofs are not
// cached either — an entry recording "ran out of wall clock" would poison
// every later occurrence of the formula.
func (s *searcher) discharge(targets, callback []*target, ex *concolic.Execution, hot bool) {
	ho := s.eng.Mode == concolic.ModeHigherOrder
	// fb is the parent input by variable ID: the fallback a proved strategy
	// fills its unconstrained variables from, and the concrete values the
	// lower rungs evaluate under. The lower modes need neither.
	var fb map[int]int64
	if ho || len(callback) > 0 {
		fb = make(map[int]int64, len(ex.Input))
		for i, v := range s.eng.InputVars {
			fb[v.ID] = ex.Input[i]
		}
	}
	version := s.eng.Samples.Len()
	var todo []*target
	for _, t := range targets {
		if ho {
			t.key = proveKeyOf(t.alt, version)
		} else {
			t.key = proveKey{formula: t.alt.key}
		}
		t.fromCache = s.cached(t, ho)
		if t.fromCache && !(ho && s.shouldDegrade(t.outcome, false)) {
			t.done = true // a selection-time hit, read back when applied
		} else {
			todo = append(todo, t)
		}
	}
	s.parallelDo(len(todo), func(i, worker int) {
		t := todo[i]
		t0 := time.Now()
		if !ho {
			t.status, t.model = s.solve(t.alt.expr)
		} else {
			if !t.fromCache {
				s.prove(t, s.eng.Samples)
			}
			if s.shouldDegrade(t.outcome, t.panicked) {
				s.degradeTarget(t, fb)
			}
		}
		t.worker, t.start, t.dur = worker, t0, time.Since(t0)
		atomic.AddInt64(&s.solveNanos, int64(t.dur))
		s.stats.ProofsPerWorker[worker]++
		t.done = true
	})
	op := "solve"
	if ho {
		op = "prove"
	}
	for _, t := range targets {
		if !t.done {
			continue // cancelled before this target's turn; nothing to account
		}
		// Cache accounting happens here, in constraint order, so the hit and
		// miss counts are identical at every worker count. (Two targets of
		// one fan-out sharing a formula are discharged twice concurrently;
		// the second is still accounted as a hit, its duplicate result
		// dropped.)
		cache := "hit"
		if s.cached(t, ho) {
			s.stats.ProofCacheHits++
		} else {
			cache = "miss"
			s.stats.ProofCacheMisses++
			s.remember(t, ho)
		}
		if s.tracing() {
			s.emit(obs.Event{Kind: "cache", Worker: -1,
				Str: map[string]string{"op": op, "result": cache}})
			num := map[string]int64{"k": int64(t.k), "formula_size": int64(len(t.alt.key))}
			str := map[string]string{"cache": cache}
			if ho {
				if t.strategy != nil {
					num["defs"] = int64(len(t.strategy.Defs))
					num["steps"] = int64(len(t.strategy.Proof))
				}
				str["verdict"] = t.outcome.String()
			} else {
				str["status"] = t.status.String()
			}
			s.taskEvent(op, t.worker, t.start, t.dur, num, str)
		}
		if ho {
			s.applyProof(t, ex, fb, hot)
		} else if s.countSolve(t) {
			// Lower modes already solve at the quantifier-free rung; tag their
			// tests accordingly so per-rung counts are meaningful across modes.
			s.enqueueTest(s.inputFrom(t.model.Vars, ex.Input), ex.Funcs, ex.Prediction(t.k), t.k+1, hot, RungQF)
		}
	}
	if len(callback) > 0 {
		s.dischargeCallbacks(callback, ex, fb, hot)
	}
}

// cached reads t's verdict from the proof cache (ho) or the satisfiability
// cache into t, reporting whether there was one. A proof hit leaves the
// degraded rungs' result fields alone: they depend on the parent input.
func (s *searcher) cached(t *target, ho bool) bool {
	if ho {
		e, ok := s.cache.lookupProve(t.key)
		if ok {
			t.strategy, t.outcome = e.strategy, e.outcome
		}
		return ok
	}
	e, ok := s.cache.solve[t.key.formula]
	if ok {
		t.status, t.model = e.status, e.model
	}
	return ok
}

// remember caches t's verdict unless it records wall-clock exhaustion or a
// recovered panic rather than a property of the formula.
func (s *searcher) remember(t *target, ho bool) {
	switch {
	case ho:
		if t.outcome != fol.OutcomeTimeout && !t.panicked {
			s.cache.storeProve(t.key, proveEntry{strategy: t.strategy, outcome: t.outcome})
		}
	case t.status != smt.StatusTimeout:
		s.cache.storeSolve(t.key.formula, solveEntry{status: t.status, model: t.model})
	}
}

// applyProof acts on one higher-order verdict: a proved strategy becomes a
// test (or a multi-step chain), and a proof cut short yields whatever test
// the degradation ladder found.
func (s *searcher) applyProof(t *target, ex *concolic.Execution, fb map[int]int64, hot bool) {
	if s.countVerdict(t) {
		s.resolveAndEnqueue(&pendingTarget{
			// The cached strategy is shared; FillFallback copies it while
			// fixing this target's unconstrained variables at the parent
			// input's values.
			strategy: fol.FillFallback(t.strategy, t.alt.vars, fb),
			alt:      t.alt.expr,
			expected: ex.Prediction(t.k),
			fallback: ex.Input,
			funcs:    ex.Funcs,
			bound:    t.k + 1,
			retries:  s.opts.MaxMultiStep,
			hot:      hot,
		}, true)
		return
	}
	if t.outcome == fol.OutcomeInvalid || t.rung == RungProof {
		return
	}
	// The degradation ladder ran: the target carries a lower rung's
	// satisfiability result. Account it and turn a sat model into a test
	// tagged with its rung.
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
	if t.status == smt.StatusSat {
		s.enqueueTest(s.inputFrom(t.model.Vars, ex.Input), ex.Funcs, ex.Prediction(t.k), t.k+1, hot, t.rung)
	}
}

// prove is the search's one validity proof: ProveCore of t's formula over
// store, filling t's strategy and outcome. A panicking proof (an injected
// fault or a prover defect) becomes an unknown, degradable outcome instead of
// taking the search down.
func (s *searcher) prove(t *target, store *sym.SampleStore) {
	defer func() {
		if rec := recover(); rec != nil {
			t.strategy, t.outcome, t.panicked = nil, fol.OutcomeUnknown, true
		}
	}()
	t.strategy, t.outcome = fol.ProveCore(t.alt.expr, store, fol.Options{
		Pool:      s.eng.Pool,
		VarBounds: s.varBounds,
		NoRefute:  !s.opts.Refute,
		MaxNodes:  s.opts.ProverNodes,
		Obs:       s.obs,
		Ctx:       s.ctx,
		Deadline:  s.proofDeadline(),
	})
}

// solve is the search's one satisfiability check.
func (s *searcher) solve(alt sym.Expr) (smt.Status, *smt.Model) {
	return smt.Solve(alt, smt.Options{
		Pool: s.eng.Pool, VarBounds: s.varBounds, Obs: s.obs,
		Ctx: s.ctx, Deadline: s.proofDeadline(),
	})
}

// countVerdict tallies one validity proof's verdict and reports whether it
// proved.
func (s *searcher) countVerdict(t *target) bool {
	s.stats.ProverCalls++
	if t.panicked {
		s.stats.Budget.ProverPanics++
	}
	switch t.outcome {
	case fol.OutcomeProved:
		s.stats.ProverProved++
		return true
	case fol.OutcomeInvalid:
		s.stats.ProverInvalid++
	case fol.OutcomeTimeout:
		s.stats.Budget.ProofTimeouts++
		s.stats.ProverUnknown++
	default:
		s.stats.ProverUnknown++
	}
	return false
}

// countSolve tallies one satisfiability check of a target and reports
// whether it found a model.
func (s *searcher) countSolve(t *target) bool {
	s.stats.SolverCalls++
	if t.status == smt.StatusTimeout {
		s.stats.Budget.ProofTimeouts++
	}
	if t.status != smt.StatusSat {
		return false
	}
	s.stats.SolverSat++
	return true
}

// resolveAndEnqueue tries to turn a proved strategy into a concrete test; on
// missing samples it schedules an intermediate test plus a continuation.
// first marks the initial attempt (for multi-step accounting).
func (s *searcher) resolveAndEnqueue(pt *pendingTarget, first bool) {
	res := pt.strategy.Resolve(s.eng.Samples)
	if res.Complete {
		if input, ok := s.testFrom(res.Values, pt.fallback, pt.alt, s.eng.Samples); ok {
			s.enqueueTest(input, pt.funcs, pt.expected, pt.bound, pt.hot, RungProof)
		}
		return
	}
	if pt.retries <= 0 {
		return
	}
	// Multi-step test generation (Example 7): run an intermediate test with
	// the resolved values filled in, hoping the program samples the probes.
	if first {
		s.stats.MultiStepChains++
	}
	pt.retries--
	intermediate := s.inputFrom(res.Values, pt.fallback)
	if !s.inBounds(intermediate) {
		return
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
}

// testFrom turns a resolved strategy's values into a test input: fallback
// with the values filled in, kept only if it lies within the input bounds and
// alt holds on it under store's samples. The strategy is a proof, so alt must
// hold; the check guards the implementation.
func (s *searcher) testFrom(values map[int]int64, fallback []int64, alt sym.Expr, store *sym.SampleStore) ([]int64, bool) {
	input := s.inputFrom(values, fallback)
	if !s.inBounds(input) {
		return nil, false
	}
	if s.env == nil {
		s.env = make(map[int]int64, len(input))
	}
	for i, v := range s.eng.InputVars {
		s.env[v.ID] = input[i]
	}
	if ok, probes := fol.Holds(alt, s.env, store); len(probes) == 0 && !ok {
		return nil, false
	}
	return input, true
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
func (s *searcher) enqueueTest(input []int64, funcs []*mini.FuncValue, expected concolic.Prediction, bound int, hot bool, rung Rung) {
	if s.tried.has(s.runKey(input, funcs)) {
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
