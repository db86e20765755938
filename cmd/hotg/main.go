// Command hotg runs one test-generation technique on one workload and prints
// a report: coverage, generated tests, divergences, prover statistics, and
// every bug found (with the triggering input).
//
// Usage:
//
//	hotg -list
//	hotg -workload lexer -mode higher-order -runs 300
//	hotg -workload lexer -mode higher-order -runs 300 -workers 8
//	hotg -workload foo -mode dart-unsound -runs 50 -v
//	hotg -workload lexer -runs 300 -profile
//	hotg -workload lexer -runs 300 -trace trace.jsonl -trace-chrome trace.json
//	hotg -workload lexer -runs 300 -proof-timeout 50ms -degrade
//	hotg -workload lexer -runs 300 -budget 2s
//	hotg -workload lexer -runs 300 -corpus ./camp -checkpoint-every 50
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"hotg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// validModes are the -mode values, in ladder order, plus the special "all".
var validModes = []string{
	"static", "dart-unsound", "dart-sound", "dart-sound-delayed",
	"higher-order", "random", "all",
}

func validModeList() string { return strings.Join(validModes, ", ") }

// sortedWorkloads returns the registry in name order — the registry itself
// is in registration order, which is not stable as workloads are added, so
// every user-facing listing sorts first.
func sortedWorkloads() []*hotg.Workload {
	ws := append([]*hotg.Workload(nil), hotg.Workloads()...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	return ws
}

func validWorkloadList() string {
	var names []string
	for _, w := range sortedWorkloads() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// run is the whole command; it returns the process exit code so tests can
// drive the CLI without spawning a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hotg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list available workloads and modes")
		workload   = fs.String("workload", "obscure", "workload name (see -list)")
		mode       = fs.String("mode", "higher-order", "technique: "+validModeList())
		runs       = fs.Int("runs", 100, "execution budget")
		refute     = fs.Bool("refute", false, "enable the invalidity prover (higher-order mode)")
		seed       = fs.Int64("seed", 1, "random seed (random mode)")
		verbose    = fs.Bool("v", false, "print every bug input")
		samplesIn  = fs.String("samples-in", "", "load IOF samples from a previous session (JSON)")
		samplesOut = fs.String("samples-out", "", "save the IOF store at exit (JSON, written atomically)")
		summaries  = fs.Bool("summaries", false, "enable compositional path summaries (higher-order mode)")
		workers    = fs.Int("workers", 0, "proof worker goroutines (0 = GOMAXPROCS; tests run on the coordinator); results are identical at any count")
		tracePath  = fs.String("trace", "", "write a structured JSONL event trace to this file")
		profile    = fs.Bool("profile", false, "print a metrics profile (latency percentiles, cache traffic) after the run")
		chromePath = fs.String("trace-chrome", "", "write a Chrome trace_event JSON (Perfetto, chrome://tracing) to this file")
		budgetD    = fs.Duration("budget", 0, "wall-clock ceiling for the whole search (0 = unlimited); a fired ceiling returns partial results")
		proofTmo   = fs.Duration("proof-timeout", 0, "wall-clock deadline per validity proof / solver query (0 = unlimited)")
		degrade    = fs.Bool("degrade", false, "retry timed-out higher-order proofs with quantifier-free solving, then plain concretization (see README)")
		corpusDir  = fs.String("corpus", "", "campaign directory: persist corpus, crash buckets, and checkpoints here across sessions (resumes an interrupted search, else seeds from the corpus)")
		ckptEvery  = fs.Int("checkpoint-every", 0, "checkpoint the search every N runs into the campaign directory (requires -corpus)")
		httpAddr   = fs.String("http", "", "serve live introspection (/statusz, /metrics, /events, /debug/pprof) on this address, e.g. :8080")
		statusTick = fs.Duration("status-every", 0, "print a one-line progress report every interval while the search runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:")
		for _, w := range sortedWorkloads() {
			fmt.Fprintf(stdout, "  %-16s %s\n", w.Name, w.Description)
		}
		fmt.Fprintln(stdout, "modes:", validModeList())
		return 0
	}

	w, ok := hotg.GetWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "hotg: unknown workload %q\nvalid workloads: %s\n", *workload, validWorkloadList())
		return 2
	}
	m, modeErr := hotg.ParseMode(*mode)
	if modeErr != nil && *mode != "random" && *mode != "all" {
		fmt.Fprintf(stderr, "hotg: unknown mode %q\nvalid modes: %s\n", *mode, validModeList())
		return 2
	}
	if *corpusDir == "" && *ckptEvery > 0 {
		fmt.Fprintln(stderr, "hotg: -checkpoint-every requires -corpus")
		return 2
	}
	if *corpusDir != "" && (*mode == "random" || *mode == "all") {
		fmt.Fprintf(stderr, "hotg: -corpus requires a concolic mode, not %q\n", *mode)
		return 2
	}
	prog := w.Build()

	if *mode == "all" {
		compareAll(stdout, w, *runs, *seed, *workers, *refute, *summaries)
		return 0
	}

	o, traceFile, err := buildObs(*tracePath, *chromePath, *profile, *httpAddr != "" || *statusTick > 0)
	if err != nil {
		fmt.Fprintln(stderr, "hotg:", err)
		return 2
	}
	if *httpAddr != "" {
		addr, shutdown, err := hotg.ServeIntrospection(*httpAddr, o, headlineFrom(o))
		if err != nil {
			fmt.Fprintln(stderr, "hotg:", err)
			return 2
		}
		defer shutdown()
		fmt.Fprintf(stdout, "introspection: http://%s/statusz\n", addr)
	}
	if *statusTick > 0 {
		stop := startStatusTicker(stderr, o, *statusTick)
		defer stop()
	}

	var stats *hotg.Stats
	var cache *hotg.SummaryCache
	var camp *hotg.ActiveCampaign
	if *mode == "random" {
		if *tracePath != "" || *chromePath != "" || *profile {
			fmt.Fprintln(stderr, "hotg: -trace/-profile/-trace-chrome instrument the concolic pipeline and are ignored in random mode")
		}
		stats = hotg.Fuzz(prog, hotg.FuzzOptions{
			MaxRuns: *runs, Seeds: w.Seeds, Bounds: w.Bounds,
			Rand: rand.New(rand.NewSource(*seed)),
		})
	} else {
		eng := hotg.NewEngine(prog, m)
		if *summaries {
			cache = hotg.NewSummaryCache()
			eng.Summaries = cache
		}
		if *samplesIn != "" {
			f, err := os.Open(*samplesIn)
			if err != nil {
				fmt.Fprintln(stderr, "hotg:", err)
				return 2
			}
			n, err := hotg.LoadSamples(eng, f)
			f.Close()
			if err != nil {
				fmt.Fprintln(stderr, "hotg:", err)
				return 2
			}
			fmt.Fprintf(stdout, "loaded %d samples from %s\n", n, *samplesIn)
		}
		opts := hotg.SearchOptions{
			MaxRuns: *runs, Seeds: w.Seeds, Bounds: w.Bounds, Refute: *refute,
			Workers: *workers, Obs: o,
			Budget: hotg.SearchBudget{ProofTimeout: *proofTmo, Degrade: *degrade},
		}
		if *corpusDir != "" {
			// Resume an interrupted search, or else warm-start from the
			// corpus, holding the directory's lock until Finish.
			opts.Checkpoint.Every = *ckptEvery
			var err error
			camp, err = hotg.StartCampaign(*corpusDir, w.Name, eng, &opts)
			if err != nil {
				fmt.Fprintln(stderr, "hotg:", err)
				return 2
			}
			if camp.Rejected != nil {
				fmt.Fprintf(stderr, "hotg: not resuming from the latest checkpoint: %v\n", camp.Rejected)
			}
			switch {
			case opts.Restore != nil:
				fmt.Fprintf(stdout, "resuming campaign %s at run %d (session %d)\n", *corpusDir, opts.Restore.Runs, camp.Session)
			case camp.Seeded:
				fmt.Fprintf(stdout, "seeding from corpus: %d ranked inputs (session %d)\n", len(opts.Seeds), camp.Session)
			}
		}
		if *budgetD > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), *budgetD)
			defer cancel()
			opts.Ctx = ctx
		}
		stats = hotg.Explore(eng, opts)
		if camp != nil {
			if err := camp.Finish(stats); err != nil {
				fmt.Fprintln(stderr, "hotg:", err)
				return 1
			}
		}
		if *samplesOut != "" {
			if err := writeSamples(eng, *samplesOut); err != nil {
				fmt.Fprintln(stderr, "hotg:", err)
				return 2
			}
			fmt.Fprintf(stdout, "saved %d samples to %s\n", eng.Samples.Len(), *samplesOut)
		}
	}

	if o != nil {
		// Surface emission errors as soon as the run ends, not only at Close:
		// a truncated trace should be flagged next to the results it taints.
		if err := o.Trace.Err(); err != nil {
			fmt.Fprintln(stderr, "hotg: trace: emission error during run:", err)
		}
	}
	fmt.Fprintln(stdout, stats.Summary())
	if ps := stats.ParallelSummary(); ps != "" {
		fmt.Fprintln(stdout, ps)
	}
	if bs := stats.BudgetSummary(); bs != "" {
		fmt.Fprintln(stdout, bs)
	}
	if stats.CheckpointError != "" {
		fmt.Fprintf(stderr, "hotg: checkpointing disabled mid-run: %s\n", stats.CheckpointError)
	}
	if cache != nil {
		fmt.Fprintf(stdout, "summaries: hits=%d misses=%d fallbacks=%d cases=%d\n",
			cache.Hits, cache.Misses, cache.Fallbacks, cache.Cases())
	}
	if camp != nil {
		fmt.Fprintf(stdout, "campaign: %d corpus entries, %d crash buckets (%d new), %d checkpoints\n",
			len(camp.Entries()), len(camp.Buckets()), camp.NewBuckets(), stats.Checkpoints)
	}
	if len(stats.Bugs) == 0 {
		fmt.Fprintln(stdout, "no bugs found")
	} else {
		fmt.Fprintf(stdout, "%d bug(s):\n", len(stats.Bugs))
		for _, b := range stats.Bugs {
			// Function-valued inputs are part of the reproducer: without the
			// decision tables the scalar input alone does not reach the bug, so
			// they print (canonical form, declaration order) even when -v is off.
			funcs := ""
			if len(b.Funcs) > 0 {
				funcs = " funcs=[" + strings.Join(b.Funcs, "; ") + "]"
			}
			if *verbose {
				fmt.Fprintf(stdout, "  run %-5d %-10s %-20q input=%v%s\n", b.Run, b.Kind, b.Msg, b.Input, funcs)
			} else {
				fmt.Fprintf(stdout, "  run %-5d %-10s %q%s\n", b.Run, b.Kind, b.Msg, funcs)
			}
		}
	}

	return finishObs(stdout, stderr, o, traceFile, *tracePath, *chromePath, *profile)
}

// buildObs assembles the observer requested by -trace/-profile/-trace-chrome,
// or returns nil when none is set so the search runs on the zero-overhead
// path. live (set by -http / -status-every) forces an observer — metrics feed
// /statusz — and attaches a flight recorder so /events has a tail to serve.
// The returned file (if any) is the open -trace output, closed by finishObs.
func buildObs(tracePath, chromePath string, profile, live bool) (*hotg.Observer, *os.File, error) {
	if tracePath == "" && chromePath == "" && !profile && !live {
		return nil, nil, nil
	}
	o := hotg.NewObserver()
	var f *os.File
	if tracePath != "" {
		var err error
		f, err = os.Create(tracePath)
		if err != nil {
			return nil, nil, err
		}
		o.Trace = hotg.NewTracer(f)
	} else if chromePath != "" || live {
		o.Trace = hotg.NewTracer(nil)
	}
	if chromePath != "" {
		o.Trace.Keep()
	}
	if live {
		o.Trace.WithRecorder(hotg.NewFlightRecorder(hotg.DefaultFlightRecorderSize))
	}
	return o, f, nil
}

// statusKeys orders the live gauges in the -status-every report.
var statusKeys = []string{"runs", "runs_remaining", "tests", "bugs", "frontier_hot", "frontier_cold"}

// headlineFrom builds the /statusz headline callback: the search's live
// progress gauges, read straight from the registry.
func headlineFrom(o *hotg.Observer) func() map[string]int64 {
	return func() map[string]int64 {
		return map[string]int64{
			"runs":           o.Metrics.Get("search.live.runs"),
			"runs_remaining": o.Metrics.Get("search.live.runs_remaining"),
			"tests":          o.Metrics.Get("search.live.tests"),
			"bugs":           o.Metrics.Get("search.live.bugs"),
			"frontier_hot":   o.Metrics.Get("search.frontier.hot"),
			"frontier_cold":  o.Metrics.Get("search.frontier.cold"),
		}
	}
}

// startStatusTicker prints a one-line progress report every interval until
// the returned stop function is called.
func startStatusTicker(w io.Writer, o *hotg.Observer, every time.Duration) (stop func()) {
	headline := headlineFrom(o)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintf(w, "status: %s\n", hotg.FormatStatusLine(headline(), statusKeys))
			}
		}
	}()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(done)
			<-exited
		}
	}
}

// finishObs flushes and closes the trace outputs and prints the profile,
// returning the exit code (1 on any output failure).
func finishObs(stdout, stderr io.Writer, o *hotg.Observer, traceFile *os.File, tracePath, chromePath string, profile bool) int {
	if o == nil {
		return 0
	}
	failed := false
	if err := o.Trace.Close(); err != nil {
		fmt.Fprintln(stderr, "hotg: trace:", err)
		failed = true
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(stderr, "hotg: trace:", err)
			failed = true
		} else {
			fmt.Fprintf(stdout, "trace written to %s\n", tracePath)
		}
	}
	if chromePath != "" {
		if err := writeChrome(o, chromePath); err != nil {
			fmt.Fprintln(stderr, "hotg: trace-chrome:", err)
			failed = true
		} else {
			fmt.Fprintf(stdout, "chrome trace written to %s (load in Perfetto or chrome://tracing)\n", chromePath)
		}
	}
	if profile {
		fmt.Fprintln(stdout, "\nprofile:")
		fmt.Fprint(stdout, o.Metrics.ProfileTable())
		if pt := hotg.PhaseTable(o); pt != "" {
			fmt.Fprintln(stdout, "\n\nphase self-time:")
			fmt.Fprint(stdout, pt)
		}
		fmt.Fprintln(stdout)
	}
	if failed {
		return 1
	}
	return 0
}

// writeChrome exports the retained events as a Chrome trace_event file.
func writeChrome(o *hotg.Observer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := hotg.WriteChromeTrace(f, o.Trace.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSamples saves the engine's IOF store to path atomically (temp file in
// the same directory + rename), so an interrupted save never leaves a
// truncated sample file behind.
func writeSamples(eng *hotg.Engine, path string) error {
	var buf bytes.Buffer
	if err := hotg.SaveSamples(eng, &buf); err != nil {
		return err
	}
	return hotg.WriteFileAtomic(path, buf.Bytes(), 0o644)
}

// compareAll runs every technique (random included) on the workload and
// prints one row per technique. The -workers, -refute, and -summaries flags
// apply to every technique's search (refute and summaries only change
// higher-order behavior but are threaded uniformly).
func compareAll(stdout io.Writer, w *hotg.Workload, runs int, seed int64, workers int, refute, summaries bool) {
	fmt.Fprintf(stdout, "%-20s %-6s %-10s %-6s %-6s %-6s\n", "technique", "runs", "coverage", "paths", "bugs", "div")
	fz := hotg.Fuzz(w.Build(), hotg.FuzzOptions{
		MaxRuns: runs, Seeds: w.Seeds, Bounds: w.Bounds, Rand: rand.New(rand.NewSource(seed)),
	})
	row := func(name string, st *hotg.Stats) {
		fmt.Fprintf(stdout, "%-20s %-6d %3d/%-6d %-6d %-6d %-6d\n", name, st.Runs,
			st.BranchSidesCovered(), st.BranchSidesTotal(), st.Paths(),
			len(st.ErrorSitesFound()), st.Divergences)
	}
	row("blackbox-random", fz)
	for _, m := range []hotg.Mode{
		hotg.ModeStatic, hotg.ModeUnsound, hotg.ModeSound,
		hotg.ModeSoundDelayed, hotg.ModeHigherOrder,
	} {
		wm, _ := hotg.GetWorkload(w.Name)
		eng := hotg.NewEngine(wm.Build(), m)
		if summaries {
			eng.Summaries = hotg.NewSummaryCache()
		}
		st := hotg.Explore(eng, hotg.SearchOptions{
			MaxRuns: runs, Seeds: wm.Seeds, Bounds: wm.Bounds,
			Workers: workers, Refute: refute,
		})
		row(m.String(), st)
	}
}
