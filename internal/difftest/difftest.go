// Package difftest is the standing correctness harness of the pipeline: a
// differential + metamorphic oracle over randomly generated mini programs and
// randomly generated POST formulas. It checks the cross-cutting invariants no
// single package's unit tests see (DESIGN.md §10):
//
//	O1 — replay and differential execution: every input a search executed
//	     replays in the bytecode VM along its recorded path, a replay on the
//	     concolic tree walker agrees with the plain and the optimized VM, and
//	     every reported bug reproduces in both the walker and the VM.
//	O2 — ground truth on finite domains: fol.Prove verdicts for
//	     POST(pc) = ∃X: A ⇒ pc are cross-checked against exhaustive
//	     enumeration over all input values and all uninterpreted-function
//	     tables of a finite domain, making Theorems 1–4 executable.
//	O3 — metamorphic relations: variable renaming, conjunct reordering,
//	     sample-set supersets, and checkpoint/kill/resume never change
//	     verdicts, bug buckets, or canonical stats at any worker count.
//
// Failing programs are auto-minimized by the delta-debugging shrinker
// (shrink.go) and persisted as regression corpus entries under
// testdata/regress/ so a defect, once seen, is pinned forever. The cmd/difftest
// driver runs bounded oracle campaigns for CI and operators.
package difftest

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/smt"
)

// Finding is one oracle violation. The zero Detail is never valid: every
// finding names the relation that broke and the evidence.
type Finding struct {
	// Oracle is "O1", "O2", or "O3".
	Oracle string `json:"oracle"`
	// Relation names the specific invariant: "replay-path", "walker-vm",
	// "bug-reproduce", "enum-proved", "enum-invalid", "strategy-table",
	// "conjunct-reorder", "sample-superset", "prove-deterministic",
	// "rename-canonical", "rename-buckets", "workers-canonical",
	// "checkpoint-resume".
	Relation string `json:"relation"`
	// Detail is the human-readable evidence.
	Detail string `json:"detail"`
	// Seed identifies the generated case.
	Seed int64 `json:"seed"`
	// Source is the failing program (program-level findings only).
	Source string `json:"source,omitempty"`
	// Minimized is the shrunk reproducer, when the shrinker ran.
	Minimized string `json:"minimized,omitempty"`
	// Formula is the POST(pc) under test (formula-level findings only).
	Formula string `json:"formula,omitempty"`
	// Fault names the installed fault plan ("" = none).
	Fault string `json:"fault,omitempty"`
	// Input is the concrete input vector that witnessed the violation.
	Input []int64 `json:"input,omitempty"`
}

func (f Finding) String() string {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Sprintf("%s/%s seed=%d: %s", f.Oracle, f.Relation, f.Seed, f.Detail)
	}
	return string(b)
}

// Config tunes one oracle pass.
type Config struct {
	// MaxRuns is the per-technique execution budget (default 30).
	MaxRuns int
	// Workers lists the worker counts O3 compares (default {1, 2}).
	Workers []int
}

func (c Config) defaults() Config {
	if c.MaxRuns <= 0 {
		c.MaxRuns = 30
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2}
	}
	return c
}

// Case is one generated program under test, with the fixed native registry,
// seed inputs, and input bounds every technique shares.
type Case struct {
	Seed    int64
	Src     string
	Prog    *mini.Program
	Natives mini.Natives
	Seeds   [][]int64
	Bounds  []smt.Bound
}

// CaseNatives returns the native registry oracle cases are checked against:
// the scrambled hash of the lexer study, the pipeline's canonical "unknown
// function".
func CaseNatives() mini.Natives {
	ns := mini.Natives{}
	ns.Register("hash", 1, lexapp.ScrambledHash)
	return ns
}

// NewCase deterministically generates the program case for a seed: a random
// always-terminating mini program (every other case with a helper function),
// one random seed input, and the [-10, 10] input box the experiments use.
func NewCase(seed int64) *Case {
	r := rand.New(rand.NewSource(seed))
	cfg := mini.GenConfig{Natives: []string{"hash"}, NumHelpers: r.Intn(2)}
	src := mini.GenProgram(r, cfg)
	natives := CaseNatives()
	prog := mini.MustCheck(mini.MustParse(src), natives)

	n := len(prog.Shape().Names)
	in := make([]int64, n)
	bounds := make([]smt.Bound, n)
	for i := range in {
		in[i] = int64(r.Intn(21) - 10)
		bounds[i] = smt.Bound{Lo: -10, Hi: 10, HasLo: true, HasHi: true}
	}
	return &Case{
		Seed: seed, Src: src, Prog: prog, Natives: natives,
		Seeds: [][]int64{in}, Bounds: bounds,
	}
}

// NewCallbackCase deterministically generates a higher-order program case:
// main takes one or two fn(int) int parameters the generated body calls
// through, so the higher-order searcher must construct function inputs and
// every recorded run may carry decision tables.
func NewCallbackCase(seed int64) *Case {
	r := rand.New(rand.NewSource(seed))
	cfg := mini.GenConfig{
		Natives:    []string{"hash"},
		NumHelpers: r.Intn(2),
		NumInputs:  2,
		FuncParams: 1 + r.Intn(2),
	}
	src := mini.GenProgram(r, cfg)
	natives := CaseNatives()
	prog := mini.MustCheck(mini.MustParse(src), natives)

	n := len(prog.Shape().Names)
	in := make([]int64, n)
	bounds := make([]smt.Bound, n)
	for i := range in {
		in[i] = int64(r.Intn(21) - 10)
		bounds[i] = smt.Bound{Lo: -10, Hi: 10, HasLo: true, HasHi: true}
	}
	return &Case{
		Seed: seed, Src: src, Prog: prog, Natives: natives,
		Seeds: [][]int64{in}, Bounds: bounds,
	}
}

// CaseFromSource builds a case from explicit source text (regression corpus
// replay, shrinker candidates). The seed input is the zero vector plus the
// case bounds, so replay is fully deterministic given the source alone.
func CaseFromSource(src string, seed int64) (*Case, error) {
	natives := CaseNatives()
	prog, err := mini.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := mini.Check(prog, natives); err != nil {
		return nil, err
	}
	n := len(prog.Shape().Names)
	in := make([]int64, n)
	bounds := make([]smt.Bound, n)
	for i := range in {
		bounds[i] = smt.Bound{Lo: -10, Hi: 10, HasLo: true, HasHi: true}
	}
	return &Case{
		Seed: seed, Src: src, Prog: prog, Natives: natives,
		Seeds: [][]int64{in}, Bounds: bounds,
	}, nil
}

// CheckCase runs the full program-level oracle suite (O1 + O3) on one case.
func CheckCase(c *Case, cfg Config) []Finding {
	cfg = cfg.defaults()
	findings := CheckO1(c, cfg)
	findings = append(findings, CheckO3(c, cfg)...)
	return findings
}
