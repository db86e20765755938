// Package eval is the experiment harness: one runner per table/figure of
// EXPERIMENTS.md, each reproducing a claim of the paper (the worked examples,
// the theorems' measurable consequences, and the Section 7 lexer study).
// Every runner returns a Table carrying both the rendered rows and a list of
// machine-checked Claims, so the regression suite can assert the paper's
// qualitative shape — who finds which bug, who diverges, who is defeated —
// on every run.
package eval

import (
	"fmt"
	"strings"
	"time"

	"hotg/internal/obs"
)

// Claim is one machine-checked assertion about an experiment's outcome,
// mirroring a sentence of the paper.
type Claim struct {
	Text string
	OK   bool
}

// Table is the result of one experiment.
type Table struct {
	ID         string // e.g. "E12"
	Title      string
	PaperClaim string // the sentence(s) of the paper being reproduced
	Columns    []string
	Rows       [][]string
	Notes      []string
	Claims     []Claim
}

func (t *Table) addRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

func (t *Table) claim(ok bool, format string, args ...interface{}) {
	t.Claims = append(t.Claims, Claim{Text: fmt.Sprintf(format, args...), OK: ok})
}

func (t *Table) note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Failed returns the claims that did not hold.
func (t *Table) Failed() []Claim {
	var out []Claim
	for _, c := range t.Claims {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range t.Claims {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "claim [%s]: %s\n", mark, c.Text)
	}
	return b.String()
}

// Config tunes experiment budgets.
type Config struct {
	// Budget is the execution budget for the large (lexer) experiments
	// (default 1500; Quick reduces it).
	Budget int
	// Seed drives all randomized parts.
	Seed int64
	// Quick shrinks every experiment for CI-speed runs.
	Quick bool
	// Obs, when non-nil, collects metrics across every search the experiment
	// runs (benchtab -json snapshots it per experiment). Nil disables
	// observability.
	Obs *obs.Obs
	// ProofTimeout, when positive, applies a per-proof wall-clock deadline to
	// every search the experiments run (benchtab -proof-timeout). Tight
	// values can defeat paper claims — that is the point of setting it.
	ProofTimeout time.Duration
	// Degrade enables the precision-degradation ladder (benchtab -degrade)
	// on every search the experiments run.
	Degrade bool
	// Workers, when positive, is the worker count of every search the
	// experiments run (benchtab -workers); zero keeps the search default,
	// GOMAXPROCS. A search's summary line shows the count when it is above
	// one, so results_full.txt (captured at one worker) is reproduced
	// verbatim only with Workers = 1.
	Workers int
}

func (c Config) defaults() Config {
	// Zero and negative values both mean "unset": experiments must never see
	// a non-positive budget or seed (benchtab passes flag values through).
	if c.Budget <= 0 {
		c.Budget = 1500
	}
	if c.Seed <= 0 {
		c.Seed = 1
	}
	if c.Quick && c.Budget > 300 {
		c.Budget = 300
	}
	return c
}

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *Table
}

// Experiments returns every registered experiment in report order.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", "obscure: static vs dynamic test generation", E1Obscure},
		{"E2", "foo: unsound concretization and divergence", E2PathConstraints},
		{"E4", "foo-bis: the good divergence", E4GoodDivergence},
		{"E5", "bar: higher-order vs unsound are incomparable", E5Incomparable},
		{"E6", "pub: the sample antecedent is needed", E6SamplesNeeded},
		{"E7", "EUF validity: f(x)=f(y)", E7EUFEquality},
		{"E8", "sample pairs: f(x)=f(y)+1", E8SamplePairs},
		{"E9", "multi-step test generation", E9MultiStep},
		{"E10", "Theorem 2/3: path-constraint soundness rates", E10Soundness},
		{"E11", "Theorem 4: higher-order simulates sound concretization", E11Simulation},
		{"E12", "Section 7: lexer study (headline)", E12LexerStudy},
		{"E13", "Section 7: hard-coded hashes and sample persistence", E13SamplePersistence},
		{"E14", "checksummed packet parser (second application)", E14PacketParser},
		{"E15", "grammar-based whitebox fuzzing baseline", E15GrammarBaseline},
		{"E16", "function-valued inputs: synthesis vs concretization", E16Callbacks},
		{"E17", "Theorem 1: exhaustive search as verification", E17Verification},
		{"A1", "ablation: delayed concretization constraints", A1DelayedConc},
		{"A2", "ablation: divergence rates by mode", A2DivergenceRates},
		{"A3", "ablation: compositional summaries", A3Summaries},
		{"A4", "budgeted search: degradation down the precision ladder", A4BudgetedSearch},
		{"A5", "persistent campaigns: kill, resume, and triage across sessions", A5CampaignResume},
		{"A6", "differential oracle campaign: clean sweep and fault drill", A6OracleCampaign},
	}
}

// Get returns an experiment by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
