// Command benchtab regenerates every table and figure of EXPERIMENTS.md:
// one experiment per artifact of the paper's evaluation, each with
// machine-checked claims mirroring the paper's qualitative statements.
//
// Usage:
//
//	benchtab                 # run the full suite with default budgets
//	benchtab -quick          # CI-sized budgets
//	benchtab -budget 3000    # bigger lexer budget
//	benchtab E12 E13         # selected experiments only
//	benchtab -json E12       # machine-readable results on stdout
//	benchtab -proof-timeout 5ms -degrade A4   # budgeted runs (see DESIGN.md §8)
//	benchtab -workers 1      # every search at one worker, as results_full.txt was captured
//	benchtab -diff old.json new.json          # perf-regression gate over two -json files
//	benchtab -diff -threshold 0.10 old.json new.json
//
// The budget flags apply to every search an experiment runs. Degraded rungs
// are allowed to diverge (DESIGN.md §8), so under tight budgets some claims
// that assume full-precision higher-order reasoning (e.g. E12's "never
// diverges") can legitimately fail — benchtab then exits nonzero, as for any
// failed claim. The checked-in EXPERIMENTS.md is generated unbudgeted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hotg"
)

// jsonResult is the machine-readable form of one experiment run. The headline
// observability numbers are hoisted to top-level fields; Metrics carries the
// experiment's full metric snapshot (fresh registry per experiment).
type jsonResult struct {
	ID               string             `json:"id"`
	Seconds          float64            `json:"seconds"`
	Workers          int64              `json:"workers"`
	ProofCacheHits   int64              `json:"proof_cache_hits"`
	ProofCacheMisses int64              `json:"proof_cache_misses"`
	WallSeconds      float64            `json:"wall_seconds"`
	SolveSeconds     float64            `json:"solve_seconds"`
	ProofTimeouts    int64              `json:"proof_timeouts,omitempty"`
	Degraded         int64              `json:"degraded,omitempty"`
	TestsProof       int64              `json:"tests_proof,omitempty"`
	TestsQF          int64              `json:"tests_qf,omitempty"`
	TestsConcretize  int64              `json:"tests_concretize,omitempty"`
	CorpusEntries    int64              `json:"corpus_entries,omitempty"`
	CorpusDedup      int64              `json:"corpus_dedup_hits,omitempty"`
	CrashBuckets     int64              `json:"crash_buckets,omitempty"`
	TriageDedup      int64              `json:"triage_dedup_hits,omitempty"`
	Checkpoints      int64              `json:"checkpoints_saved,omitempty"`
	CallbackTargets  int64              `json:"callback_targets,omitempty"`
	FuncsSynthesized int64              `json:"funcs_synthesized,omitempty"`
	Failed           []string           `json:"failed,omitempty"`
	Table            *hotg.Table        `json:"table"`
	Metrics          []hotg.MetricValue `json:"metrics,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the process exit code so tests can
// drive the CLI without spawning a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "CI-sized budgets")
		budget   = fs.Int("budget", 0, "execution budget for the lexer experiments (default 1500)")
		seed     = fs.Int64("seed", 1, "random seed")
		jsonOut  = fs.Bool("json", false, "emit one JSON array of results instead of rendered tables")
		proofTmo = fs.Duration("proof-timeout", 0, "per-proof wall-clock deadline applied to every search (0 = unlimited)")
		degrade  = fs.Bool("degrade", false, "degrade cut-short proofs down the precision ladder (DESIGN.md §8)")
		workers  = fs.Int("workers", 0, "worker count of every search (0 = GOMAXPROCS)")
		diffMode = fs.Bool("diff", false, "compare two -json result files (old new) and exit 1 on solver-time regression")
		thresh   = fs.Float64("threshold", 0.25, "relative solve-time regression threshold for -diff (0.25 = 25%)")
		minSecs  = fs.Float64("min-seconds", 0.05, "absolute noise floor for -diff: deltas below this many seconds never regress")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *diffMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchtab: -diff needs exactly two arguments: old.json new.json")
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1), *thresh, *minSecs, stdout, stderr)
	}

	baseCfg := hotg.ExperimentConfig{
		Quick: *quick, Budget: *budget, Seed: *seed,
		ProofTimeout: *proofTmo, Degrade: *degrade, Workers: *workers,
	}

	selected := fs.Args()
	run := func(e hotg.Experiment) bool {
		if len(selected) == 0 {
			return true
		}
		for _, id := range selected {
			if id == e.ID {
				return true
			}
		}
		return false
	}

	failures := 0
	results := []jsonResult{} // non-nil so -json always emits an array
	for _, e := range hotg.Experiments() {
		if !run(e) {
			continue
		}
		cfg := baseCfg
		if *jsonOut {
			// A fresh registry per experiment, so each snapshot reflects only
			// this experiment's searches.
			cfg.Obs = hotg.NewObserver()
		}
		t0 := time.Now()
		tab := e.Run(cfg)
		secs := time.Since(t0).Seconds()
		var failed []string
		for _, c := range tab.Failed() {
			failed = append(failed, c.Text)
		}
		failures += len(failed)
		if *jsonOut {
			m := cfg.Obs.Metrics
			results = append(results, jsonResult{
				ID:               e.ID,
				Seconds:          secs,
				Workers:          m.Get("search.workers"),
				ProofCacheHits:   m.Get("search.proof_cache.hits"),
				ProofCacheMisses: m.Get("search.proof_cache.misses"),
				WallSeconds:      float64(m.Get("search.wall_ns")) / 1e9,
				SolveSeconds:     float64(m.Get("search.solve_ns")) / 1e9,
				ProofTimeouts:    m.Get("search.budget.proof_timeouts"),
				Degraded:         m.Get("search.budget.degraded_qf") + m.Get("search.budget.degraded_concretize"),
				TestsProof:       m.Get("search.budget.tests.proof"),
				TestsQF:          m.Get("search.budget.tests.qf"),
				TestsConcretize:  m.Get("search.budget.tests.concretize"),
				CorpusEntries:    m.Get("campaign.corpus.entries"),
				CorpusDedup:      m.Get("campaign.corpus.dedup_hits"),
				CrashBuckets:     m.Get("campaign.triage.buckets"),
				TriageDedup:      m.Get("campaign.triage.dedup_hits"),
				Checkpoints:      m.Get("campaign.checkpoints.saved"),
				CallbackTargets:  m.Get("search.callback.targets"),
				FuncsSynthesized: m.Get("search.callback.funcs_synthesized"),
				Failed:           failed,
				Table:            tab,
				Metrics:          m.Snapshot(),
			})
			continue
		}
		fmt.Fprintln(stdout, tab.Render())
		fmt.Fprintf(stdout, "(%s finished in %.1fs)\n\n", e.ID, secs)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "benchtab: %d claim(s) FAILED\n", failures)
		return 1
	}
	return 0
}
