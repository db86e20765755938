// Package hotg is a from-scratch reproduction of
//
//	Patrice Godefroid, "Higher-Order Test Generation", PLDI 2011.
//
// It implements systematic dynamic test generation (DART/SAGE-style concolic
// execution) over a small imperative language, with the paper's full spectrum
// of imprecision-handling strategies — unsound concretization, sound
// concretization (eager and delayed), static symbolic execution — and the
// paper's contribution: higher-order test generation, where unknown functions
// become uninterpreted function symbols, concrete input–output samples are
// recorded at run time, and new test inputs are derived from constructive
// validity proofs of first-order formulas ∃X: A ⇒ pc, including multi-step
// test sequences that gather missing samples.
//
// The package is a facade over the implementation packages:
//
//	internal/mini      the mini language (lexer, parser, checker, bytecode VM)
//	internal/sym       symbolic terms and formulas (LIA + EUF)
//	internal/smt       a from-scratch SMT solver for QF_UFLIA
//	internal/fol       POST(pc) construction, validity proofs, strategies
//	internal/concolic  the concolic execution engine (Figures 1–3)
//	internal/search    the directed generational search
//	internal/fuzz      the blackbox random baseline
//	internal/lexapp    the paper's example programs and the §7 lexer study
//	internal/eval      the experiment harness behind EXPERIMENTS.md
//
// # Quick start
//
//	prog, err := hotg.Compile(src, hotg.DefaultNatives())
//	eng := hotg.NewEngine(prog, hotg.ModeHigherOrder)
//	stats := hotg.Explore(eng, hotg.SearchOptions{MaxRuns: 100, Seeds: [][]int64{{0, 0}}})
//	fmt.Println(stats.Summary())
//
// Explore runs each test on the calling goroutine and fans each expansion's
// proofs out over SearchOptions.Workers goroutines (default GOMAXPROCS);
// results are bit-identical at every worker count, so parallelism is purely a
// wall-clock knob.
package hotg

import (
	"io"
	"os"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/eval"
	"hotg/internal/fol"
	"hotg/internal/fuzz"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/obs"
	"hotg/internal/obshttp"
	"hotg/internal/search"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// Mode selects how imprecision in symbolic execution is handled; see the
// package documentation and concolic.Mode.
type Mode = concolic.Mode

// The execution modes, in increasing order of reasoning power.
const (
	// ModeStatic is static test generation (King-style symbolic execution,
	// no concrete fallback).
	ModeStatic = concolic.ModeStatic
	// ModeUnsound is DART's default concretization (Figure 1 without
	// line 14).
	ModeUnsound = concolic.ModeUnsound
	// ModeSound is sound concretization (Figure 1 with line 14).
	ModeSound = concolic.ModeSound
	// ModeSoundDelayed delays concretization constraints until use (§3.3).
	ModeSoundDelayed = concolic.ModeSoundDelayed
	// ModeHigherOrder is higher-order test generation (Figure 3).
	ModeHigherOrder = concolic.ModeHigherOrder
)

// ParseMode maps a mode name, as printed by Mode.String ("static",
// "dart-unsound", "dart-sound", "dart-sound-delayed", "higher-order"), back to
// its Mode. Any other string is an error.
func ParseMode(s string) (Mode, error) { return concolic.ParseMode(s) }

// Program is a checked program in the mini language.
type Program = mini.Program

// Natives is the registry of host ("unknown") functions a program may call.
type Natives = mini.Natives

// RunResult is the outcome of one concrete execution.
type RunResult = mini.Result

// Engine performs side-by-side concrete and symbolic execution.
type Engine = concolic.Engine

// Execution is one concolic run: concrete result plus path constraint.
type Execution = concolic.Execution

// SearchOptions configures Explore.
type SearchOptions = search.Options

// Stats aggregates a search or fuzzing campaign.
type Stats = search.Stats

// SearchBudget sets the wall-clock ceiling of each proof and enables graceful
// degradation down the precision ladder when a higher-order proof exceeds it.
// Attach one via SearchOptions.Budget; the zero value is unlimited. The whole
// search is bounded by the deadline of SearchOptions.Ctx. See DESIGN.md §8 and
// the README's operator handbook.
type SearchBudget = search.Budget

// BudgetStats is the resource-budget and degradation section of Stats:
// proofs cut short, targets degraded, recovered failures, and per-rung test
// counts.
type BudgetStats = search.BudgetStats

// Rung identifies the precision-ladder rung that produced a test (§5 of the
// paper, options (3) down to (1)).
type Rung = search.Rung

// The precision-ladder rungs, strongest first.
const (
	// RungProof is a constructive validity proof with uninterpreted
	// functions — option (3), sound and precise.
	RungProof = search.RungProof
	// RungQF is quantifier-free solving with the model checked against the
	// real functions — option (2), sound but weak.
	RungQF = search.RungQF
	// RungConcretize is DART-style concretization of unknown applications —
	// option (1), unsound.
	RungConcretize = search.RungConcretize
)

// Bug is one discovered defect.
type Bug = search.Bug

// FuzzOptions configures the blackbox random baseline.
type FuzzOptions = fuzz.Options

// Strategy is a constructive validity proof, read as an input recipe.
type Strategy = fol.Strategy

// ProveOutcome classifies a validity-proof attempt.
type ProveOutcome = fol.Outcome

// Validity-proof outcomes.
const (
	OutcomeProved  = fol.OutcomeProved
	OutcomeInvalid = fol.OutcomeInvalid
	OutcomeUnknown = fol.OutcomeUnknown
	// OutcomeTimeout means the proof search was cut off by its wall-clock
	// deadline or cancelled; the formula's validity remains undecided.
	OutcomeTimeout = fol.OutcomeTimeout
)

// ProveOptions configures ProveValidity.
type ProveOptions = fol.Options

// Resolution is the interpretation of a strategy against the sample store.
type Resolution = fol.Resolution

// Probe is a missing sample blocking a strategy (multi-step generation).
type Probe = fol.Probe

// SampleStore is the IOF table of recorded input–output samples.
type SampleStore = sym.SampleStore

// SummaryCache memoizes compositional path summaries (Section 8's
// higher-order compositional test generation). Attach one to an engine via
// eng.Summaries = hotg.NewSummaryCache().
type SummaryCache = concolic.SummaryCache

// Bound restricts one input's integer domain.
type Bound = smt.Bound

// Observer collects metrics (counters, gauges, latency histograms) and,
// when its Trace field is set, a structured event stream for the whole
// pipeline. Attach one via SearchOptions.Obs; a nil Observer disables all
// observability at near-zero cost. See DESIGN.md §7.
type Observer = obs.Obs

// Tracer serializes pipeline events as JSONL and can retain them in memory
// for Chrome trace export.
type Tracer = obs.Tracer

// TraceEvent is one structured pipeline event (see DESIGN.md §7 for the
// field-by-field schema).
type TraceEvent = obs.Event

// MetricValue is one metric in an Observer snapshot.
type MetricValue = obs.MetricValue

// FlightRecorder is a bounded ring of the most recent trace events, readable
// without blocking the emitter — attach one with Tracer.WithRecorder and tail
// it over HTTP via the introspection server's /events endpoint.
type FlightRecorder = obs.FlightRecorder

// IntrospectionServer serves a live view of a running campaign: /metrics
// (OpenMetrics), /statusz (JSON or HTML), /events (flight-recorder tail), and
// /debug/pprof. See DESIGN.md §12.
type IntrospectionServer = obshttp.Server

// PhaseNode is one row of the phase self-time attribution tree.
type PhaseNode = obs.PhaseNode

// Workload is a ready-to-search program under test.
type Workload = lexapp.Workload

// Snapshot is a restorable image of the full search state — sample store,
// proof cache, work queues, dedup sets, statistics — taken at a work-loop
// boundary. See SearchOptions.Checkpoint/Restore and DESIGN.md §9.
type Snapshot = search.Snapshot

// CheckpointOptions configures periodic snapshotting of a running search.
type CheckpointOptions = search.CheckpointOptions

// RunRecord describes one applied execution, delivered to
// SearchOptions.OnRun in canonical apply order.
type RunRecord = search.RunRecord

// Campaign is a persistent on-disk testing campaign: a content-addressed
// corpus, triaged crash buckets, and resumable checkpoints. See DESIGN.md §9.
type Campaign = campaign.Campaign

// CorpusEntry is one deduplicated corpus input with scheduling metadata.
type CorpusEntry = campaign.Entry

// TriageBucket is one deduplicated failure class of a campaign.
type TriageBucket = campaign.Bucket

// Experiment reproduces one table/figure of EXPERIMENTS.md.
type Experiment = eval.Experiment

// ExperimentConfig tunes experiment budgets.
type ExperimentConfig = eval.Config

// Table is a rendered experiment result with machine-checked claims.
type Table = eval.Table

// Compile parses and checks a mini program against the native registry.
func Compile(src string, natives Natives) (*Program, error) {
	p, err := mini.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := mini.Check(p, natives); err != nil {
		return nil, err
	}
	return p, nil
}

// DefaultNatives returns a registry with the scrambled hash function used by
// the paper examples ("hash", arity 1) and the lexer string hash ("hashstr").
func DefaultNatives() Natives {
	ns := Natives{}
	ns.Register("hash", 1, lexapp.ScrambledHash)
	ns.Register("hashstr", lexapp.ChunkLen, lexapp.HashStr)
	return ns
}

// Run executes the program concretely on the flattened input vector, with
// every function-valued input left at the default function. It runs the
// concolic tree walker, so runtime-fault messages carry source positions.
func Run(p *Program, input []int64) *RunResult {
	return concolic.New(p, concolic.ModeUnsound).Run(input).Result
}

// NewEngine creates a concolic engine for the program under the given mode.
func NewEngine(p *Program, mode Mode) *Engine { return concolic.New(p, mode) }

// NewSummaryCache returns an empty compositional-summary cache.
func NewSummaryCache() *SummaryCache { return concolic.NewSummaryCache() }

// NewObserver returns an Observer collecting metrics, with tracing disabled
// (set .Trace = NewTracer(w) to stream events).
func NewObserver() *Observer { return obs.New() }

// NewTracer returns a tracer writing one JSON event per line to w. A nil w is
// allowed; combine with Keep() to retain events in memory for Chrome export.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// WriteChromeTrace renders retained trace events in Chrome trace_event JSON
// (one track per worker), loadable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// NewFlightRecorder returns a flight recorder retaining the last capacity
// trace events (DefaultFlightRecorderSize is a good default).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewFlightRecorder(capacity) }

// DefaultFlightRecorderSize is the ring capacity the CLIs use.
const DefaultFlightRecorderSize = obs.DefaultFlightRecorderSize

// WriteOpenMetrics renders the observer's registry in the OpenMetrics /
// Prometheus text exposition format.
func WriteOpenMetrics(w io.Writer, o *Observer) error {
	if o == nil {
		return obs.WriteOpenMetrics(w, nil)
	}
	return obs.WriteOpenMetrics(w, o.Metrics)
}

// PhaseTable renders the observer's phase self-time attribution (search →
// fol → smt → sat/simplex/euf) as an aligned table, or "" with nothing to
// attribute.
func PhaseTable(o *Observer) string {
	if o == nil {
		return ""
	}
	return obs.PhaseTable(o.Metrics)
}

// FormatStatusLine renders a headline map as a "k=v k=v" progress line in the
// given key order (absent keys are skipped).
func FormatStatusLine(headline map[string]int64, order []string) string {
	return obshttp.FormatStatusLine(headline, order)
}

// ServeIntrospection binds addr and serves the live introspection endpoints
// over the observer in the background, returning the bound address and a
// shutdown function. info (optional) contributes headline numbers to
// /statusz.
func ServeIntrospection(addr string, o *Observer, info func() map[string]int64) (string, func(), error) {
	srv := obshttp.New(o)
	srv.Info = info
	return obshttp.Serve(addr, srv)
}

// Explore performs the directed search (DART for the concretization modes,
// higher-order test generation for ModeHigherOrder). Tests run one at a time
// on the calling goroutine; SearchOptions.Workers goroutines discharge each
// expansion's proofs, with identical results at every worker count.
func Explore(eng *Engine, opts SearchOptions) *Stats { return search.Run(eng, opts) }

// Fuzz runs the blackbox random baseline.
func Fuzz(p *Program, opts FuzzOptions) *Stats { return fuzz.Run(p, opts) }

// ProveValidity attempts a constructive validity proof of POST(pc); see
// fol.Prove.
func ProveValidity(pc sym.Expr, samples *SampleStore, opts ProveOptions) (*Strategy, ProveOutcome) {
	return fol.Prove(pc, samples, opts)
}

// SaveSamples writes the engine's IOF store as JSON, so a later testing
// session can resume with every input–output pair observed so far
// (Sections 5.3 and 7).
func SaveSamples(eng *Engine, w io.Writer) error { return eng.Samples.Encode(w) }

// LoadSamples merges previously saved samples into the engine's IOF store,
// returning how many new pairs were added.
func LoadSamples(eng *Engine, r io.Reader) (int, error) {
	return sym.DecodeSamples(r, eng.Samples, eng.Pool)
}

// PostDescription renders POST(pc) in the paper's notation, e.g.
// "∀h ∃x,y: (h(42)=567) ⇒ (x - h(y) = 0)".
func PostDescription(pc sym.Expr, samples *SampleStore) string {
	return fol.PostString(pc, samples)
}

// GetWorkload returns a named workload: the paper examples ("obscure",
// "foo", "foo-bis", "bar", "pub", "eq-pair", "succ-pair", "kstep-2",
// "kstep-3", "delayed") and the Section 7 lexers ("lexer",
// "lexer-hardcoded").
func GetWorkload(name string) (*Workload, bool) { return lexapp.Get(name) }

// Workloads returns every registered workload.
func Workloads() []*Workload { return lexapp.All() }

// Experiments returns the full table/figure reproduction suite.
func Experiments() []Experiment { return eval.Experiments() }

// GetExperiment returns one experiment by ID (e.g. "E12").
func GetExperiment(id string) (Experiment, bool) { return eval.Get(id) }

// OpenCampaign opens (creating if needed) a persistent campaign directory
// bound to one workload/mode pair, without its lock or any resume logic.
// Front ends run sessions through StartCampaign instead.
func OpenCampaign(dir, workload, mode string, o *Observer) (*Campaign, error) {
	return campaign.Open(dir, workload, mode, o)
}

// ActiveCampaign is a campaign session in progress; it holds the
// directory's lock until Finish.
type ActiveCampaign = campaign.Session

// StartCampaign starts a campaign session and wires opts to it: the search
// resumes an interrupted session or seeds from the corpus (DESIGN.md §9).
// Run the search with opts, then call Finish with its Stats.
func StartCampaign(dir, workload string, eng *Engine, opts *SearchOptions) (*ActiveCampaign, error) {
	return campaign.Start(dir, workload, eng, opts)
}

// WriteFileAtomic writes data to path via a same-directory temp file and an
// atomic rename, so readers never observe partial content.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return campaign.WriteFileAtomic(path, data, perm)
}
