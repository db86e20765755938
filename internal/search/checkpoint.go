package search

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"hotg/internal/concolic"
	"hotg/internal/fol"
	"hotg/internal/mini"
	"hotg/internal/obs"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// This file is the checkpoint/resume half of the campaign subsystem
// (internal/campaign): it serializes the complete coordinator state — sample
// store, proof cache, work queues (including multi-step continuations), dedup
// maps, and statistics — so that an interrupted search, restored into a fresh
// engine, continues bit-identically to the uninterrupted run. This extends the
// PR 1 determinism guarantee ("identical results at every worker count")
// across process boundaries: every value the coordinator's canonical apply
// loop can observe is either in the snapshot or reconstructed deterministically
// from it (the engine's input variables are allocated in a fixed order by
// concolic.New, and prover/solver-internal fresh variables never reach
// checkpointed state — strategies define only input variables, and smt models
// drop Ackermann witnesses). See DESIGN.md §9 for the format and the caveats.

// SnapshotFormatVersion is the checkpoint format this build reads and writes.
// Snapshots with a different version are rejected on restore — state formats
// evolve by bumping the version, never by silently reinterpreting old bytes.
// Version 2 packs expected branch traces and dedup keys (see trace and
// keySet); version 3 encodes every event of a target dedup key exactly (see
// keyPacker), where version 2 folded each branch ID into one byte.
// DESIGN.md §9 records what changed.
const SnapshotFormatVersion = 3

// CheckpointOptions configures periodic coordinator-state snapshots.
type CheckpointOptions struct {
	// Every takes a snapshot at the first work-loop boundary at which at
	// least Every runs have been applied since the previous snapshot
	// (0 = no checkpointing). Boundaries fall between batches, so with N
	// workers the actual spacing may exceed Every by up to N-1 runs.
	Every int
	// Sink receives each snapshot, synchronously on the coordinator (write
	// it to durable storage and return). A sink error is recorded in
	// Stats.CheckpointError and disables further checkpointing for the rest
	// of the search; the search itself continues.
	Sink func(*Snapshot) error
}

// RunRecord describes one applied execution, delivered to Options.OnRun in
// canonical apply order. It carries exactly the metadata the campaign corpus
// persists per test input.
type RunRecord struct {
	// Run is the 1-based execution index (Stats.Runs after this run).
	Run int
	// Input is the executed input vector. Not copied: treat as read-only.
	Input []int64
	// Funcs are the run's function-valued inputs in canonical text, one per
	// function parameter of the program (nil for first-order programs).
	Funcs []string
	// Path is the branch trace of the execution ('0'/'1' per branch event).
	Path string
	// Gained is how many previously-uncovered branch sides this run covered.
	Gained int
	// Rung is the precision-ladder rung that generated the input
	// (meaningless when Seed or Intermediate is set).
	Rung Rung
	// Seed marks an initial seed input; Intermediate marks a multi-step
	// sample-collection run.
	Seed         bool
	Intermediate bool
	// Diverged reports that the run left its predicted path.
	Diverged bool
	// Bugs lists the defects first recorded by this run (already
	// deduplicated by site/message within the session).
	Bugs []Bug
}

// Snapshot is the serializable coordinator state of a search at a work-loop
// boundary. It is pure data (JSON-marshalable), produced by the checkpoint
// sink and accepted by Options.Restore. Snapshots share slices with the live
// search: serialize or discard them, do not mutate.
type Snapshot struct {
	FormatVersion int `json:"format_version"`
	// Mode, Branches, and Inputs identify the engine configuration the
	// snapshot came from; restore rejects mismatches.
	Mode     string `json:"mode"`
	Branches int    `json:"branches"`
	Inputs   int    `json:"inputs"`
	// MaxRuns is the session's execution budget, recorded so a resuming
	// caller can reproduce the uninterrupted trajectory exactly.
	MaxRuns int `json:"max_runs"`
	// Runs duplicates Stats.Runs for cheap inspection without decoding.
	Runs  int      `json:"runs"`
	Stats statsRec `json:"stats"`
	// Samples is the sample store in the sym.Encode format (insertion order
	// preserved — the order steers prover choice and must survive).
	Samples json.RawMessage `json:"samples,omitempty"`
	// Hot and Cold are the two work queues, in order.
	Hot  []itemRec `json:"hot,omitempty"`
	Cold []itemRec `json:"cold,omitempty"`
	// Tried and Targeted are the dedup sets, sorted for stable bytes and
	// packed (see keySet).
	Tried    keySet `json:"tried,omitempty"`
	Targeted keySet `json:"targeted,omitempty"`
	// Prove and Solve are the proof cache, sorted by key.
	Prove []proveRec `json:"prove,omitempty"`
	Solve []solveRec `json:"solve,omitempty"`
}

// statsRec is the serialized, deterministic form of Stats: every
// scheduling-independent field, with the unexported maps flattened to sorted
// slices. Timing and per-worker figures are deliberately absent — they are
// scheduling facts, not search state.
type statsRec struct {
	Mode              string `json:"mode"`
	Runs              int    `json:"runs"`
	TestsGenerated    int    `json:"tests_generated"`
	IntermediateTests int    `json:"intermediate_tests,omitempty"`
	Divergences       int    `json:"divergences,omitempty"`
	SolverCalls       int    `json:"solver_calls,omitempty"`
	SolverSat         int    `json:"solver_sat,omitempty"`
	ProverCalls       int    `json:"prover_calls,omitempty"`
	ProverProved      int    `json:"prover_proved,omitempty"`
	ProverInvalid     int    `json:"prover_invalid,omitempty"`
	ProverUnknown     int    `json:"prover_unknown,omitempty"`
	MultiStepChains   int    `json:"multistep_chains,omitempty"`
	CallbackTargets   int    `json:"callback_targets,omitempty"`
	FuncsSynthesized  int    `json:"funcs_synthesized,omitempty"`
	ProofCacheHits    int    `json:"proof_cache_hits,omitempty"`
	ProofCacheMisses  int    `json:"proof_cache_misses,omitempty"`
	// Checkpoints counts snapshots taken, cumulatively across resumed
	// sessions (the snapshot being written counts itself).
	Checkpoints int             `json:"checkpoints,omitempty"`
	Budget      BudgetStats     `json:"budget"`
	Incomplete  bool            `json:"incomplete,omitempty"`
	Exhausted   bool            `json:"exhausted,omitempty"`
	BranchCov   map[int][2]bool `json:"branch_cov"`
	Bugs        []Bug           `json:"bugs,omitempty"`
	BugSeen     []string        `json:"bug_seen,omitempty"`
	Paths       []string        `json:"paths,omitempty"`
	CovTrace    []int           `json:"cov_trace,omitempty"`
}

// itemRec is the serialized form of one work-queue item. Funcs holds the
// function-valued inputs in canonical text, one per function parameter ("" =
// the default function); absent for first-order programs, so their snapshots
// are byte-identical to earlier builds.
type itemRec struct {
	Input    []int64     `json:"input"`
	Funcs    []string    `json:"funcs,omitempty"`
	Expected trace       `json:"expected,omitempty"`
	Bound    int         `json:"bound,omitempty"`
	Rung     int         `json:"rung,omitempty"`
	NoExpand bool        `json:"no_expand,omitempty"`
	Pending  *pendingRec `json:"pending,omitempty"`
}

// pendingRec is the serialized form of a multi-step continuation.
type pendingRec struct {
	Strategy *fol.StrategyRec `json:"strategy"`
	Alt      *sym.ExprRec     `json:"alt"`
	Expected trace            `json:"expected,omitempty"`
	Fallback []int64          `json:"fallback"`
	Funcs    []string         `json:"funcs,omitempty"`
	Bound    int              `json:"bound"`
	Retries  int              `json:"retries"`
	Hot      bool             `json:"hot,omitempty"`
}

// Expected traces and dedup keys are most of a snapshot's bytes, so both are
// packed: a sequence of uvarints (and, for keys, raw bytes), written as one
// base64 string. The types below are TextMarshalers, not json.Marshalers, so
// encoding/json writes the string without re-scanning it. Decoding is strict:
// bad base64, a truncated, overlong or non-minimal uvarint, or any value out
// of range is an error, never a silently dropped element.

// trace is an expected branch trace in its serialized form, one uvarint per
// event: ID<<1 | taken. Branch IDs are range-checked against the program on
// restore (checkTrace).
type trace []mini.BranchEvent

// MarshalText implements encoding.TextMarshaler.
func (t trace) MarshalText() ([]byte, error) {
	packed := make([]byte, 0, len(t)+len(t)/4)
	for _, ev := range t {
		v := uint64(ev.ID) << 1
		if ev.Taken {
			v |= 1
		}
		packed = binary.AppendUvarint(packed, v)
	}
	return encodePacked(packed), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *trace) UnmarshalText(text []byte) error {
	packed, err := decodePacked(text)
	if err != nil {
		return fmt.Errorf("search: expected trace: %w", err)
	}
	out := make(trace, 0, len(packed)) // every event takes at least one byte
	for off := 0; off < len(packed); {
		v, k, err := readUvarint(packed, off)
		if err != nil {
			return fmt.Errorf("search: expected trace: %w", err)
		}
		if v>>1 > math.MaxInt {
			return fmt.Errorf("search: expected trace: branch ID %d at byte %d overflows int", v>>1, off)
		}
		out = append(out, mini.BranchEvent{ID: int(v >> 1), Taken: v&1 == 1})
		off += k
	}
	*t = out
	return nil
}

// checkTrace rejects a trace naming a branch the program does not have.
func checkTrace(t trace, branches int) error {
	for i, ev := range t {
		if ev.ID < 0 || ev.ID >= branches {
			return fmt.Errorf("search: expected trace event %d names branch %d, program has %d", i, ev.ID, branches)
		}
	}
	return nil
}

// keySet is a dedup set in its serialized form: the keys (compact binary
// encodings, not UTF-8) in strictly increasing order, front-coded — each key
// is uvarint(bytes shared with the previous key), uvarint(length of the
// rest), the rest. Keys sharing a long path prefix cost only their suffixes.
type keySet []string

// MarshalText implements encoding.TextMarshaler. The keys must be sorted and
// distinct (sortedKeys of a set).
func (ks keySet) MarshalText() ([]byte, error) {
	var packed []byte
	prev := ""
	for _, k := range ks {
		n := 0
		for n < len(prev) && n < len(k) && prev[n] == k[n] {
			n++
		}
		packed = binary.AppendUvarint(packed, uint64(n))
		packed = binary.AppendUvarint(packed, uint64(len(k)-n))
		packed = append(packed, k[n:]...)
		prev = k
	}
	return encodePacked(packed), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. Keys out of order or
// repeated are rejected, so a decoded set re-encodes to the same bytes.
func (ks *keySet) UnmarshalText(text []byte) error {
	packed, err := decodePacked(text)
	if err != nil {
		return fmt.Errorf("search: dedup keys: %w", err)
	}
	var out keySet
	prev := ""
	for off := 0; off < len(packed); {
		shared, k, err := readUvarint(packed, off)
		if err != nil {
			return fmt.Errorf("search: dedup keys: %w", err)
		}
		off += k
		rest, k, err := readUvarint(packed, off)
		if err != nil {
			return fmt.Errorf("search: dedup keys: %w", err)
		}
		off += k
		if shared > uint64(len(prev)) || rest > uint64(len(packed)-off) {
			return fmt.Errorf("search: dedup keys: key %d overruns its data", len(out))
		}
		key := prev[:shared] + string(packed[off:off+int(rest)])
		if len(out) > 0 && key <= prev {
			return fmt.Errorf("search: dedup keys: key %d is out of order", len(out))
		}
		out = append(out, key)
		prev = key
		off += int(rest)
	}
	*ks = out
	return nil
}

// set returns the keys as a membership map.
func (ks keySet) set() map[string]bool {
	m := make(map[string]bool, len(ks))
	for _, k := range ks {
		m[k] = true
	}
	return m
}

// encodePacked and decodePacked are the base64 layer of the packed forms.
func encodePacked(packed []byte) []byte {
	out := make([]byte, base64.StdEncoding.EncodedLen(len(packed)))
	base64.StdEncoding.Encode(out, packed)
	return out
}

func decodePacked(text []byte) ([]byte, error) {
	packed := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
	n, err := base64.StdEncoding.Strict().Decode(packed, text)
	return packed[:n], err
}

// readUvarint reads the uvarint at packed[off:], returning it and its length.
// A truncated, overflowing or non-minimal (zero final byte) encoding is an
// error: the packed forms have exactly one spelling.
func readUvarint(packed []byte, off int) (uint64, int, error) {
	v, k := binary.Uvarint(packed[off:])
	switch {
	case k == 0:
		return 0, 0, fmt.Errorf("truncated varint at byte %d", off)
	case k < 0 || (k > 1 && packed[off+k-1] == 0):
		return 0, 0, fmt.Errorf("overlong varint at byte %d", off)
	}
	return v, k, nil
}

// proveRec is one higher-order proof-cache entry.
type proveRec struct {
	Key      string           `json:"key"`
	Outcome  string           `json:"outcome"`
	Strategy *fol.StrategyRec `json:"strategy,omitempty"`
}

// solveRec is one satisfiability-cache entry.
type solveRec struct {
	Key    string     `json:"key"`
	Status string     `json:"status"`
	Model  *smt.Model `json:"model,omitempty"`
}

// encodeRec flattens the statistics into their serialized form.
func (s *Stats) encodeRec() statsRec {
	rec := statsRec{
		Mode:              s.Mode,
		Runs:              s.Runs,
		TestsGenerated:    s.TestsGenerated,
		IntermediateTests: s.IntermediateTests,
		Divergences:       s.Divergences,
		SolverCalls:       s.SolverCalls,
		SolverSat:         s.SolverSat,
		ProverCalls:       s.ProverCalls,
		ProverProved:      s.ProverProved,
		ProverInvalid:     s.ProverInvalid,
		ProverUnknown:     s.ProverUnknown,
		MultiStepChains:   s.MultiStepChains,
		CallbackTargets:   s.CallbackTargets,
		FuncsSynthesized:  s.FuncsSynthesized,
		ProofCacheHits:    s.ProofCacheHits,
		ProofCacheMisses:  s.ProofCacheMisses,
		Checkpoints:       s.Checkpoints,
		Budget:            s.Budget,
		Incomplete:        s.Incomplete,
		Exhausted:         s.Exhausted,
		Bugs:              s.Bugs,
		CovTrace:          s.CovTrace,
		BranchCov:         make(map[int][2]bool, len(s.branchCov)),
		BugSeen:           sortedKeys(s.bugSeen),
		Paths:             sortedKeys(s.paths),
	}
	for id, c := range s.branchCov {
		rec.BranchCov[id] = *c
	}
	return rec
}

// applyRec loads a serialized record into the statistics, replacing the
// search-state fields and leaving session-local scheduling fields (Workers,
// ProofsPerWorker, WallTime, SolveTime) and the current session's budget
// configuration untouched.
func (s *Stats) applyRec(rec statsRec) {
	configured := s.Budget.Configured
	s.Mode = rec.Mode
	s.Runs = rec.Runs
	s.TestsGenerated = rec.TestsGenerated
	s.IntermediateTests = rec.IntermediateTests
	s.Divergences = rec.Divergences
	s.SolverCalls = rec.SolverCalls
	s.SolverSat = rec.SolverSat
	s.ProverCalls = rec.ProverCalls
	s.ProverProved = rec.ProverProved
	s.ProverInvalid = rec.ProverInvalid
	s.ProverUnknown = rec.ProverUnknown
	s.MultiStepChains = rec.MultiStepChains
	s.CallbackTargets = rec.CallbackTargets
	s.FuncsSynthesized = rec.FuncsSynthesized
	s.ProofCacheHits = rec.ProofCacheHits
	s.ProofCacheMisses = rec.ProofCacheMisses
	s.Checkpoints = rec.Checkpoints
	s.Budget = rec.Budget
	s.Budget.Configured = configured
	s.Incomplete = rec.Incomplete
	s.Exhausted = rec.Exhausted
	s.Bugs = rec.Bugs
	s.CovTrace = rec.CovTrace
	s.branchCov = make(map[int]*[2]bool, len(rec.BranchCov))
	for id, c := range rec.BranchCov {
		cc := c
		s.branchCov[id] = &cc
	}
	s.bugSeen = make(map[string]bool, len(rec.BugSeen))
	for _, k := range rec.BugSeen {
		s.bugSeen[k] = true
	}
	s.paths = make(map[string]bool, len(rec.Paths))
	for _, k := range rec.Paths {
		s.paths[k] = true
	}
}

// Canonical returns a deterministic JSON rendering of the
// scheduling-independent statistics: everything the determinism guarantee
// covers (runs, tests, per-rung counts, coverage, bugs, paths, the coverage
// trace) and nothing it does not (timing, worker figures).
// Two searches explored the same trajectory iff their Canonical bytes match.
//
// Checkpoint counts are excluded: checkpoints fire at batch boundaries, whose
// positions depend on the worker count, so the cumulative count is session
// bookkeeping rather than trajectory (and an interrupted run that resumes
// without a sink configured would otherwise never match).
//
// Proof-cache hit/miss counts are likewise excluded: they record how the
// trajectory was computed, not the trajectory, so a change to what the cache
// keeps must not move the canonical bytes. Snapshots still record the raw
// counts.
func (s *Stats) Canonical() ([]byte, error) {
	rec := s.encodeRec()
	rec.Checkpoints = 0
	rec.ProofCacheHits, rec.ProofCacheMisses = 0, 0
	return json.Marshal(rec)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// encodeFuncVals renders function inputs for a snapshot: one canonical string
// per entry, "" preserving nil entries exactly. A nil slice stays nil (the
// field is omitted for first-order programs).
func encodeFuncVals(funcs []*mini.FuncValue) []string {
	if funcs == nil {
		return nil
	}
	out := make([]string, len(funcs))
	for i, fv := range funcs {
		if fv != nil {
			out[i] = fv.String()
		}
	}
	return out
}

// decodeFuncVals inverts encodeFuncVals.
func decodeFuncVals(texts []string) ([]*mini.FuncValue, error) {
	if texts == nil {
		return nil, nil
	}
	out := make([]*mini.FuncValue, len(texts))
	for i, t := range texts {
		if t == "" {
			continue
		}
		fv, err := mini.ParseFuncValue(t)
		if err != nil {
			return nil, fmt.Errorf("search: function input %d: %w", i, err)
		}
		out[i] = fv
	}
	return out, nil
}

func encodeItem(it item) (itemRec, error) {
	rec := itemRec{
		Input:    it.input,
		Funcs:    encodeFuncVals(it.funcs),
		Expected: it.expected,
		Bound:    it.bound,
		Rung:     int(it.rung),
		NoExpand: it.noExpand,
	}
	if pt := it.pending; pt != nil {
		strat, err := fol.EncodeStrategy(pt.strategy)
		if err != nil {
			return rec, err
		}
		alt, err := sym.EncodeExpr(pt.alt)
		if err != nil {
			return rec, err
		}
		rec.Pending = &pendingRec{
			Strategy: strat, Alt: alt, Expected: pt.expected,
			Fallback: pt.fallback, Funcs: encodeFuncVals(pt.funcs),
			Bound: pt.bound, Retries: pt.retries, Hot: pt.hot,
		}
	}
	return rec, nil
}

func decodeItem(rec itemRec, res *sym.Resolver, branches int) (item, error) {
	if rec.Rung < 0 || rec.Rung >= int(NumRungs) {
		return item{}, fmt.Errorf("search: item rung %d out of range", rec.Rung)
	}
	if err := checkTrace(rec.Expected, branches); err != nil {
		return item{}, err
	}
	funcs, err := decodeFuncVals(rec.Funcs)
	if err != nil {
		return item{}, err
	}
	it := item{
		input:    rec.Input,
		funcs:    funcs,
		expected: rec.Expected,
		bound:    rec.Bound,
		rung:     Rung(rec.Rung),
		noExpand: rec.NoExpand,
	}
	if p := rec.Pending; p != nil {
		if err := checkTrace(p.Expected, branches); err != nil {
			return item{}, fmt.Errorf("search: pending continuation: %w", err)
		}
		strat, err := fol.DecodeStrategy(p.Strategy, res)
		if err != nil {
			return item{}, err
		}
		if strat == nil {
			return item{}, fmt.Errorf("search: pending continuation has no strategy")
		}
		alt, err := sym.DecodeExpr(p.Alt, res)
		if err != nil {
			return item{}, err
		}
		pfuncs, err := decodeFuncVals(p.Funcs)
		if err != nil {
			return item{}, err
		}
		it.pending = &pendingTarget{
			strategy: strat, alt: alt, expected: p.Expected,
			fallback: p.Fallback, funcs: pfuncs,
			bound: p.Bound, retries: p.Retries, hot: p.Hot,
		}
	}
	return it, nil
}

func encodeItems(items []item) ([]itemRec, error) {
	out := make([]itemRec, 0, len(items))
	for _, it := range items {
		rec, err := encodeItem(it)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

func decodeItems(recs []itemRec, res *sym.Resolver, branches int) ([]item, error) {
	var out []item
	for i, rec := range recs {
		it, err := decodeItem(rec, res, branches)
		if err != nil {
			return nil, fmt.Errorf("search: queue item %d: %w", i, err)
		}
		out = append(out, it)
	}
	return out, nil
}

// snapshot serializes the full coordinator state at a work-loop boundary.
func (s *searcher) snapshot() (*Snapshot, error) {
	snap := &Snapshot{
		FormatVersion: SnapshotFormatVersion,
		Mode:          s.eng.Mode.String(),
		Branches:      s.eng.Prog.NumBranches,
		Inputs:        len(s.eng.InputVars),
		MaxRuns:       s.opts.MaxRuns,
		Runs:          s.stats.Runs,
		Stats:         s.stats.encodeRec(),
		Tried:         sortedKeys(s.tried),
		Targeted:      sortedKeys(s.targeted),
	}
	if s.eng.Samples.Len() > 0 {
		var buf bytes.Buffer
		if err := s.eng.Samples.Encode(&buf); err != nil {
			return nil, err
		}
		snap.Samples = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	var err error
	if snap.Hot, err = encodeItems(s.hot); err != nil {
		return nil, err
	}
	if snap.Cold, err = encodeItems(s.cold); err != nil {
		return nil, err
	}
	proveKeys := make([]string, 0, len(s.cache.prove))
	for k := range s.cache.prove {
		proveKeys = append(proveKeys, k)
	}
	sort.Strings(proveKeys)
	for _, k := range proveKeys {
		e := s.cache.prove[k]
		strat, err := fol.EncodeStrategy(e.strategy)
		if err != nil {
			return nil, err
		}
		snap.Prove = append(snap.Prove, proveRec{Key: k, Outcome: e.outcome.String(), Strategy: strat})
	}
	solveKeys := make([]string, 0, len(s.cache.solve))
	for k := range s.cache.solve {
		solveKeys = append(solveKeys, k)
	}
	sort.Strings(solveKeys)
	for _, k := range solveKeys {
		e := s.cache.solve[k]
		snap.Solve = append(snap.Solve, solveRec{Key: k, Status: e.status.String(), Model: e.model})
	}
	return snap, nil
}

// restoreSnapshot loads a snapshot into a freshly constructed searcher. The
// engine must be fresh (empty sample store): restore rebuilds the store in the
// recorded insertion order, and a pre-populated store would reorder it.
func (s *searcher) restoreSnapshot(snap *Snapshot) error {
	if snap.FormatVersion != SnapshotFormatVersion {
		return fmt.Errorf("search: snapshot has format version %d; this build reads version %d",
			snap.FormatVersion, SnapshotFormatVersion)
	}
	if snap.Mode != s.eng.Mode.String() {
		return fmt.Errorf("search: snapshot was taken in mode %q, engine runs %q", snap.Mode, s.eng.Mode)
	}
	if snap.Branches != s.eng.Prog.NumBranches || snap.Inputs != len(s.eng.InputVars) {
		return fmt.Errorf("search: snapshot program shape (%d branches, %d inputs) does not match engine (%d branches, %d inputs)",
			snap.Branches, snap.Inputs, s.eng.Prog.NumBranches, len(s.eng.InputVars))
	}
	if s.eng.Samples.Len() != 0 {
		return fmt.Errorf("search: resume requires a fresh engine; sample store already holds %d entries", s.eng.Samples.Len())
	}
	if len(snap.Samples) > 0 {
		if _, err := sym.DecodeSamples(bytes.NewReader(snap.Samples), s.eng.Samples, s.eng.Pool); err != nil {
			return err
		}
	}
	res := sym.NewResolver(s.eng.Pool, s.eng.InputVars)
	s.stats.applyRec(snap.Stats)
	var err error
	if s.hot, err = decodeItems(snap.Hot, res, snap.Branches); err != nil {
		return err
	}
	if s.cold, err = decodeItems(snap.Cold, res, snap.Branches); err != nil {
		return err
	}
	s.tried, s.targeted = snap.Tried.set(), snap.Targeted.set()
	for _, rec := range snap.Prove {
		outcome, ok := fol.ParseOutcome(rec.Outcome)
		if !ok {
			return fmt.Errorf("search: prove cache entry %q has unknown outcome %q", rec.Key, rec.Outcome)
		}
		strat, err := fol.DecodeStrategy(rec.Strategy, res)
		if err != nil {
			return fmt.Errorf("search: prove cache entry %q: %w", rec.Key, err)
		}
		s.cache.prove[rec.Key] = proveEntry{strategy: strat, outcome: outcome}
	}
	for _, rec := range snap.Solve {
		status, ok := smt.ParseStatus(rec.Status)
		if !ok {
			return fmt.Errorf("search: solve cache entry %q has unknown status %q", rec.Key, rec.Status)
		}
		s.cache.solve[rec.Key] = solveEntry{status: status, model: rec.Model}
	}
	s.lastCkpt = s.stats.Runs
	return nil
}

// Validate checks that the snapshot can be restored against an engine for the
// same program and mode, by performing a full trial restore into a throwaway
// searcher (using a scratch sample store, so the engine is untouched).
// campaign.Start validates before passing a snapshot to Run via
// Options.Restore, so a bad checkpoint is rejected instead of panicking Run.
func (snap *Snapshot) Validate(eng *concolic.Engine) error {
	trial := &searcher{
		eng:   eng.Clone(sym.NewSampleStore()),
		stats: newStats(eng.Mode.String(), eng.Prog.NumBranches),
		cache: newProofCache(),
	}
	return trial.restoreSnapshot(snap)
}

// maybeCheckpoint snapshots the coordinator state when the configured cadence
// has elapsed. It runs at work-loop boundaries only (between batches), where
// the state is exactly what a sequential search would hold after the same
// runs, so every snapshot is a canonical resume point.
func (s *searcher) maybeCheckpoint() {
	co := s.opts.Checkpoint
	if co.Every <= 0 || co.Sink == nil || s.ckptFailed {
		return
	}
	if s.stats.Runs-s.lastCkpt < co.Every {
		return
	}
	s.lastCkpt = s.stats.Runs
	// Count the checkpoint before building the snapshot so the snapshot
	// includes itself: a session resumed from it then reports the same
	// cumulative Checkpoints as the uninterrupted run.
	s.stats.Checkpoints++
	snap, err := s.snapshot()
	if err == nil {
		err = co.Sink(snap)
	}
	if err != nil {
		s.stats.Checkpoints--
		s.stats.CheckpointError = err.Error()
		s.ckptFailed = true
		if s.tracing() {
			s.emit(obs.Event{Kind: "checkpoint_error", Worker: -1,
				Str: map[string]string{"err": err.Error()}})
		}
		return
	}
	if s.obs.Enabled() {
		s.obs.Counter("search.checkpoints").Inc()
	}
	if s.tracing() {
		// Checkpoint events are deterministic in content but not in position
		// across worker counts: batches advance Runs by up to Workers, so the
		// cadence crosses its threshold at slightly different run indices.
		// Stream comparisons across worker counts filter them out (they are
		// boundary markers, not search events); see DESIGN.md §9.
		s.emit(obs.Event{Kind: "checkpoint", Worker: -1,
			Num: map[string]int64{
				"runs": int64(s.stats.Runs), "tests": int64(s.stats.TestsGenerated),
				"samples":  int64(s.eng.Samples.Len()),
				"frontier": int64(len(s.hot) + len(s.cold)),
				"cache":    int64(len(s.cache.prove) + len(s.cache.solve)),
				"seq":      int64(s.stats.Checkpoints),
			}})
		// Flush the trace at every durable boundary, after the checkpoint
		// event itself: if the process dies without Close (kill -9), the
		// on-disk JSONL keeps a valid prefix through the last checkpoint.
		_ = s.obs.Trace.Flush()
	}
}
