// Command hotgbench is the repository's benchmark. It runs the paper's §7
// lexer study through the public hotg facade in one of three workloads:
//
//	lexer-ho        higher-order test generation (validity proofs, proof cache)
//	lexer-dart      the same program and seeds under DART's unsound concretization
//	lexer-campaign  the lexer-ho search as a persistent campaign that is
//	                interrupted after its second checkpoint, resumed from disk
//	                and committed
//
// Every search has the same execution budget and runs at 1 worker and at W =
// min(4, NumCPU) workers with GOMAXPROCS pinned to match. The run measures for
// --seconds, checks every search (canonical digest across worker counts and
// against the committed reference, bug replay under two independent
// evaluators, resume equivalence) and prints one JSON line as its last line
// of output: the end-to-end metrics, or with --trace 1 the per-layer metrics
// of a traced run. README.md describes the metrics and how to run it.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultBudget is the execution budget of every search.
const defaultBudget = 300

// defaultSeed is the workload seed used when --seed is absent.
const defaultSeed = 1

// referenceJSON commits the canonical-stats digest each workload reaches at
// one seed and budget.
//
//go:embed reference.json
var referenceJSON []byte

// reference is the decoded reference.json.
type reference struct {
	Seed    int64             `json:"seed"`
	Budget  int               `json:"budget"`
	Digests map[string]string `json:"digests"`
}

type config struct {
	workload string
	seed     int64
	budget   int
	seconds  time.Duration
	trace    bool
	out      string // directory for campaign data and the span file, under the checkout
	ref      reference
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{budget: defaultBudget, out: filepath.Join(".bench_build", "hotgbench")}
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "lexer-ho", "workload: lexer-ho, lexer-dart or lexer-campaign")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed the initial junk inputs are drawn from")
	flag.Float64Var(&seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if err := json.Unmarshal(referenceJSON, &cfg.ref); err != nil {
		fmt.Fprintln(os.Stderr, "hotgbench: reference.json:", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotgbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotgbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
