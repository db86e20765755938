// Package search implements the systematic directed search of DART/SAGE
// (Section 2 of the paper) on top of the concolic engine: run the program,
// negate path-constraint conjuncts, generate new inputs, detect divergences,
// and repeat. Depending on the engine's mode, new inputs come from
// satisfiability checks (static/DART modes) or from constructive validity
// proofs with uninterpreted function samples (higher-order mode), including
// the multi-step probe sequences of Example 7.
package search

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hotg/internal/mini"
)

// Bug is one discovered defect: an error(...) site or a runtime fault.
type Bug struct {
	Kind  mini.StopKind
	Site  int    // error-site ID for StopError, -1 for faults
	Msg   string // error message or fault description
	Input []int64
	// Funcs are the function-valued inputs of the discovering run, in
	// canonical text, one per function parameter (nil for first-order
	// programs — omitted from serialized stats so their bytes are unchanged).
	Funcs []string `json:"Funcs,omitempty"`
	Run   int      // which execution found it (1-based)
}

func (b Bug) String() string {
	if len(b.Funcs) > 0 {
		return fmt.Sprintf("run %d: %s %q input=%v funcs=%v", b.Run, b.Kind, b.Msg, b.Input, b.Funcs)
	}
	return fmt.Sprintf("run %d: %s %q input=%v", b.Run, b.Kind, b.Msg, b.Input)
}

// Stats aggregates the outcome of one search.
type Stats struct {
	Mode string

	Runs              int // program executions performed
	TestsGenerated    int // inputs produced by constraint solving / strategies
	IntermediateTests int // extra executions run only to collect samples (multi-step)

	Divergences int // generated tests whose run left the predicted path

	SolverCalls   int // satisfiability queries
	SolverSat     int
	ProverCalls   int // validity-proof attempts (higher-order mode)
	ProverProved  int
	ProverInvalid int
	ProverUnknown int

	MultiStepChains int // targets that needed ≥1 intermediate test
	SamplesLearned  int // IOF entries accumulated

	// CallbackTargets counts targets whose alternate constraint mentions a
	// function-valued input; FuncsSynthesized counts the decision tables the
	// search invented for them (tier-2 witness construction). Both are part
	// of the canonical trajectory — callback targets are discharged in
	// constraint order on the coordinator.
	CallbackTargets  int
	FuncsSynthesized int

	// Workers is the resolved worker count the search ran with.
	Workers int
	// ProofCacheHits and ProofCacheMisses account the formula-keyed proof
	// cache, in coordinator apply order — deterministic at any worker count.
	ProofCacheHits   int
	ProofCacheMisses int
	// ProofsPerWorker[w] counts the prover/solver tasks worker w executed.
	// The total is deterministic; the split depends on scheduling.
	ProofsPerWorker []int64
	// WallTime is the elapsed time of the whole search; SolveTime is the sum
	// of the individual prover/solver task durations across all workers.
	// SolveTime greater than WallTime is the parallel speedup showing up.
	WallTime  time.Duration
	SolveTime time.Duration

	// Checkpoints counts coordinator-state snapshots taken, cumulatively
	// across resumed sessions (a restored snapshot carries its count).
	Checkpoints int
	// CheckpointError holds the first checkpoint-sink failure, after which
	// checkpointing was disabled for the rest of the search ("" = none).
	// Session-local: not part of snapshots or Canonical.
	CheckpointError string
	// Resumed reports that this session was restored from a snapshot.
	// Session-local: not part of snapshots or Canonical.
	Resumed bool

	// Budget is the resource-budget and degradation section: what the
	// ceilings cut short, which ladder rungs produced the tests, and whether
	// the search ended early. Zero-valued (and absent from Summary) for
	// unbudgeted runs.
	Budget BudgetStats

	Incomplete bool // some branch produced no constraint (static mode)

	// Exhausted reports that the search drained its entire worklist before
	// hitting the execution budget. Together with sound *and complete*
	// constraint generation (pure programs, no unknown functions), this is
	// the verification condition of Theorem 1: every feasible path was
	// exercised, so unexecuted statements are unreachable.
	Exhausted bool

	// Coverage: per branch point, whether each polarity was executed.
	branchCov map[int]*[2]bool
	numBranch int

	// Bugs, deduplicated by site/message.
	Bugs    []Bug
	bugSeen dedupSet

	// Paths explored (distinct branch traces).
	paths dedupSet

	// CovTrace[i] is the cumulative branch-side coverage after run i+1 —
	// the series behind coverage-vs-runs plots.
	CovTrace []int
}

// BudgetStats accounts resource-budget activity during one search: proofs cut
// short, targets degraded down the precision ladder, recovered failures, and
// how the generated tests distribute over the ladder rungs.
type BudgetStats struct {
	// Configured reports that a budget ceiling, the degradation ladder, or an
	// external cancellation context was supplied to the search.
	Configured bool
	// ProofTimeouts counts proof and satisfiability attempts cut off by a
	// wall-clock deadline, including degraded-rung retries.
	ProofTimeouts int
	// ProverPanics counts validity proofs that panicked and were recovered;
	// each is treated as an unknown (degradable) outcome.
	ProverPanics int
	// ExecFailures counts program executions that panicked inside the engine
	// and were dropped (the input is consumed, no run is recorded).
	ExecFailures int
	// DegradedQF and DegradedConc count targets that finished on the
	// quantifier-free and concretization rungs after their validity proof was
	// cut short — each one is precision given up to stay within budget.
	DegradedQF   int
	DegradedConc int
	// TestsByRung counts generated tests by the ladder rung that produced
	// them. Higher-order searches generate at RungProof unless degraded;
	// lower modes generate at RungQF.
	TestsByRung [NumRungs]int
	// TimedOut and Cancelled report that the search ended early — on a fired
	// deadline or an explicit context cancellation — with partial results.
	TimedOut  bool
	Cancelled bool
}

// Degraded returns how many targets fell below the proof rung.
func (b BudgetStats) Degraded() int { return b.DegradedQF + b.DegradedConc }

// show reports whether the budget section carries any information worth
// printing: a budget was configured or some budget event fired.
func (b BudgetStats) show() bool {
	return b.Configured || b.ProofTimeouts > 0 || b.ProverPanics > 0 || b.ExecFailures > 0 ||
		b.Degraded() > 0 || b.TimedOut || b.Cancelled
}

// NewFuzzStats creates a Stats collector for the blackbox-random baseline.
func NewFuzzStats(numBranches int) *Stats {
	return newStats("blackbox-random", numBranches)
}

// RecordFuzzRun records one baseline execution.
func (s *Stats) RecordFuzzRun(res *mini.Result, input []int64) {
	s.recordRun(res, input)
}

func newStats(mode string, numBranches int) *Stats {
	return &Stats{
		Mode:      mode,
		branchCov: make(map[int]*[2]bool),
		numBranch: numBranches,
	}
}

// recordRun accounts one execution and returns how many previously-uncovered
// branch sides it covered (the generational-search score of SAGE).
func (s *Stats) recordRun(res *mini.Result, input []int64) int {
	return s.recordRunFuncs(res, input, nil)
}

// recordRunFuncs is recordRun for runs carrying function-valued inputs; the
// canonical renderings ride on any bug the run records.
func (s *Stats) recordRunFuncs(res *mini.Result, input []int64, funcs []string) int {
	s.Runs++
	gained := 0
	for _, ev := range res.Branches {
		c := s.branchCov[ev.ID]
		if c == nil {
			c = new([2]bool)
			s.branchCov[ev.ID] = c
		}
		side := 0
		if ev.Taken {
			side = 1
		}
		if !c[side] {
			c[side] = true
			gained++
		}
	}
	s.paths.add(res.Path())
	s.CovTrace = append(s.CovTrace, s.BranchSidesCovered())
	switch res.Kind {
	case mini.StopError:
		s.addBug(Bug{Kind: res.Kind, Site: res.ErrorSite, Msg: res.ErrorMsg, Input: input, Funcs: funcs, Run: s.Runs})
	case mini.StopRuntime:
		s.addBug(Bug{Kind: res.Kind, Site: -1, Msg: res.RuntimeMsg, Input: input, Funcs: funcs, Run: s.Runs})
	}
	return gained
}

func (s *Stats) addBug(b Bug) {
	key := fmt.Sprintf("%d/%d/%s", b.Kind, b.Site, b.Msg)
	if s.bugSeen.has(key) {
		return
	}
	s.bugSeen.add(key)
	cp := make([]int64, len(b.Input))
	copy(cp, b.Input)
	b.Input = cp
	s.Bugs = append(s.Bugs, b)
}

// SideCovered reports whether the given polarity of branch id was executed.
func (s *Stats) SideCovered(id int, taken bool) bool {
	c := s.branchCov[id]
	if c == nil {
		return false
	}
	if taken {
		return c[1]
	}
	return c[0]
}

// BranchSidesCovered returns how many of the 2·NumBranches branch polarities
// were executed.
func (s *Stats) BranchSidesCovered() int {
	n := 0
	for _, c := range s.branchCov {
		if c[0] {
			n++
		}
		if c[1] {
			n++
		}
	}
	return n
}

// BranchSidesTotal returns 2 × the number of static branch points.
func (s *Stats) BranchSidesTotal() int { return 2 * s.numBranch }

// Coverage returns branch-side coverage in [0,1].
func (s *Stats) Coverage() float64 {
	if s.numBranch == 0 {
		return 1
	}
	return float64(s.BranchSidesCovered()) / float64(s.BranchSidesTotal())
}

// Paths returns the number of distinct control paths executed.
func (s *Stats) Paths() int { return len(s.paths.m) }

// ErrorSitesFound returns the distinct error-site IDs reached.
func (s *Stats) ErrorSitesFound() []int {
	var out []int
	seen := map[int]bool{}
	for _, b := range s.Bugs {
		if b.Kind == mini.StopError && !seen[b.Site] {
			seen[b.Site] = true
			out = append(out, b.Site)
		}
	}
	sort.Ints(out)
	return out
}

// Summary renders a one-line report.
func (s *Stats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s runs=%-4d tests=%-4d cov=%d/%d paths=%-4d bugs=%d div=%d",
		s.Mode, s.Runs, s.TestsGenerated, s.BranchSidesCovered(), s.BranchSidesTotal(),
		s.Paths(), len(s.ErrorSitesFound()), s.Divergences)
	if s.ProverCalls > 0 {
		fmt.Fprintf(&b, " prove=%d/%d inv=%d multi=%d", s.ProverProved, s.ProverCalls,
			s.ProverInvalid, s.MultiStepChains)
	}
	if s.ProofCacheHits+s.ProofCacheMisses > 0 {
		fmt.Fprintf(&b, " cache=%d/%d", s.ProofCacheHits, s.ProofCacheHits+s.ProofCacheMisses)
	}
	if s.Budget.show() {
		fmt.Fprintf(&b, " rungs=%d/%d/%d degraded=%d timeouts=%d",
			s.Budget.TestsByRung[RungProof], s.Budget.TestsByRung[RungQF],
			s.Budget.TestsByRung[RungConcretize], s.Budget.Degraded(), s.Budget.ProofTimeouts)
	}
	if s.Workers > 1 {
		fmt.Fprintf(&b, " workers=%d wall=%v solve=%v", s.Workers,
			s.WallTime.Round(time.Millisecond), s.SolveTime.Round(time.Millisecond))
	}
	if s.Incomplete {
		b.WriteString(" (incomplete)")
	}
	if s.Exhausted {
		b.WriteString(" (exhausted)")
	}
	if s.Budget.TimedOut {
		b.WriteString(" (timed out)")
	}
	if s.Budget.Cancelled {
		b.WriteString(" (cancelled)")
	}
	return b.String()
}

// BudgetSummary renders a one-line report of budget activity: how the tests
// distribute over the precision ladder, what the ceilings cut short, and what
// was recovered. Returns "" when no budget was configured and nothing fired.
func (s *Stats) BudgetSummary() string {
	bs := s.Budget
	if !bs.show() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rungs: proof=%d qf=%d concretize=%d | degraded=%d (qf=%d conc=%d) proof_timeouts=%d",
		bs.TestsByRung[RungProof], bs.TestsByRung[RungQF], bs.TestsByRung[RungConcretize],
		bs.Degraded(), bs.DegradedQF, bs.DegradedConc, bs.ProofTimeouts)
	if bs.ProverPanics > 0 || bs.ExecFailures > 0 {
		fmt.Fprintf(&b, " | recovered: prover_panics=%d exec_failures=%d", bs.ProverPanics, bs.ExecFailures)
	}
	if bs.TimedOut {
		b.WriteString(" | search hit its deadline (partial results)")
	}
	if bs.Cancelled {
		b.WriteString(" | search cancelled (partial results)")
	}
	return b.String()
}

// ParallelSummary renders a one-line report of the concurrency figures: the
// per-worker task split and how the aggregate solving time compares to the
// wall clock. Returns "" for single-worker searches.
func (s *Stats) ParallelSummary() string {
	if s.Workers <= 1 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d wall=%v solve=%v tasks=[", s.Workers,
		s.WallTime.Round(time.Millisecond), s.SolveTime.Round(time.Millisecond))
	for w, n := range s.ProofsPerWorker {
		if w > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	fmt.Fprintf(&b, "] cache=%d/%d", s.ProofCacheHits, s.ProofCacheHits+s.ProofCacheMisses)
	return b.String()
}
