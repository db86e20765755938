package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"hotg/internal/concolic"
	"hotg/internal/fuzz"
	"hotg/internal/mini"
	"hotg/internal/search"
)

// Techniques are the end-to-end test-generation techniques the oracle
// cross-checks, in the vocabulary of the paper's evaluation: blackbox random
// testing, DART with unsound constraint dropping, DART with sound
// concretization, and higher-order test generation.
var Techniques = []string{"random", "dart-unsound", "dart-concretize", "higher-order"}

// techMode maps a technique name to its concolic mode ("random" has none).
func techMode(name string) (concolic.Mode, bool) {
	switch name {
	case "dart-unsound":
		return concolic.ModeUnsound, true
	case "dart-concretize":
		return concolic.ModeSound, true
	case "higher-order":
		return concolic.ModeHigherOrder, true
	}
	return 0, false
}

// searchParams bundles the per-run knobs of runSearch; the zero value is a
// plain sequential search.
type searchParams struct {
	workers    int
	checkpoint search.CheckpointOptions
	restore    *search.Snapshot
	ctx        context.Context
	onRun      func(search.RunRecord)
}

// runSearch executes one directed search on a fresh engine built from the
// case source (re-parsing keeps engines independent, as snapshot restore
// requires).
func (c *Case) runSearch(mode concolic.Mode, cfg Config, p searchParams) *search.Stats {
	prog := mini.MustCheck(mini.MustParse(c.Src), c.Natives)
	eng := concolic.New(prog, mode)
	workers := p.workers
	if workers <= 0 {
		workers = 1
	}
	return search.Run(eng, search.Options{
		MaxRuns:    cfg.MaxRuns,
		Seeds:      c.Seeds,
		Bounds:     c.Bounds,
		Workers:    workers,
		Checkpoint: p.checkpoint,
		Restore:    p.restore,
		Ctx:        p.ctx,
		OnRun:      p.onRun,
	})
}

// runRandom executes the blackbox fuzzing baseline with the case seed.
func (c *Case) runRandom(cfg Config) *search.Stats {
	return fuzz.Run(c.Prog, fuzz.Options{
		MaxRuns: cfg.MaxRuns,
		Seeds:   c.Seeds,
		Bounds:  c.Bounds,
		Rand:    rand.New(rand.NewSource(c.Seed)),
	})
}

// CheckO1 runs every technique end-to-end and checks the replay and
// differential-execution invariants between two independent evaluators, the
// concolic tree walker and the VM: each recorded input replays along its
// recorded path in the VM, a tree-walker replay agrees with the plain and the
// optimized VM on every executed input, and every reported bug reproduces in
// the walker and the VM.
func CheckO1(c *Case, cfg Config) []Finding {
	cfg = cfg.defaults()
	var findings []Finding
	compiled := mini.CompileVM(c.Prog)
	optimized := mini.CompileVM(c.Prog).Optimize()
	// ModeUnsound records no samples, so one engine serves every replay.
	walker := concolic.New(c.Prog, concolic.ModeUnsound)

	report := func(relation, detail string, input []int64) {
		findings = append(findings, Finding{
			Oracle: "O1", Relation: relation, Detail: detail,
			Seed: c.Seed, Source: c.Src, Input: input,
		})
	}

	for _, tech := range Techniques {
		mode, ok := techMode(tech)
		var stats *search.Stats
		var recs []search.RunRecord
		if ok {
			stats = c.runSearch(mode, cfg, searchParams{
				onRun: func(r search.RunRecord) { recs = append(recs, r) },
			})
		} else {
			stats = c.runRandom(cfg)
		}

		for _, rec := range recs {
			opts, err := replayOpts(rec.Funcs)
			if err != nil {
				report("replay-funcs", fmt.Sprintf("%s run %d: %v", tech, rec.Run, err), rec.Input)
				continue
			}
			vmres := mini.RunVM(compiled, rec.Input, opts)
			if vmres.Path() != rec.Path {
				report("replay-path", fmt.Sprintf("%s run %d: recorded path %q, vm replays %q",
					tech, rec.Run, rec.Path, vmres.Path()), rec.Input)
				continue
			}
			walked := walker.RunWith(rec.Input, opts.Funcs).Result
			if d := diffResults(walked, vmres); d != "" {
				report("walker-vm", fmt.Sprintf("%s run %d: %s", tech, rec.Run, d), rec.Input)
			}
			optres := mini.RunVM(optimized, rec.Input, opts)
			if d := diffResults(walked, optres); d != "" {
				report("walker-vm", fmt.Sprintf("%s run %d (optimized): %s", tech, rec.Run, d), rec.Input)
			}
		}

		for _, bug := range stats.Bugs {
			opts, err := replayOpts(bug.Funcs)
			if err != nil {
				report("replay-funcs", fmt.Sprintf("%s bug: %v", tech, err), bug.Input)
				continue
			}
			walked := walker.RunWith(bug.Input, opts.Funcs).Result
			if d := diffBug(bug, walked); d != "" {
				report("bug-reproduce", fmt.Sprintf("%s: walker: %s", tech, d), bug.Input)
			}
			vmres := mini.RunVM(compiled, bug.Input, opts)
			if d := diffBug(bug, vmres); d != "" {
				report("bug-reproduce", fmt.Sprintf("%s: vm: %s", tech, d), bug.Input)
			}
		}
	}
	return findings
}

// replayOpts builds the replay options for a recorded run: the canonical
// function-input texts decode back into the decision tables the run executed
// under ("" entries are the default function).
func replayOpts(texts []string) (mini.RunOptions, error) {
	if len(texts) == 0 {
		return mini.RunOptions{}, nil
	}
	funcs := make([]*mini.FuncValue, len(texts))
	for i, s := range texts {
		if s == "" {
			continue
		}
		fv, err := mini.ParseFuncValue(s)
		if err != nil {
			return mini.RunOptions{}, err
		}
		funcs[i] = fv
	}
	return mini.RunOptions{Funcs: funcs}, nil
}

// faultCategory normalizes a runtime-fault message to its class, since the
// tree walker reports source positions and the VM does not.
func faultCategory(msg string) string {
	switch {
	case strings.Contains(msg, "division by zero"):
		return "div0"
	case strings.Contains(msg, "modulo by zero"):
		return "mod0"
	case strings.Contains(msg, "out of bounds"):
		return "oob"
	case strings.Contains(msg, "step budget"):
		return "steps"
	case strings.Contains(msg, "recursion"):
		return "depth"
	}
	return msg
}

// budgetLimited reports a result cut short by a step or recursion budget;
// the tree walker and the VM count steps differently, so such runs are
// excluded from strict comparison.
func budgetLimited(r *mini.Result) bool {
	return r.Kind == mini.StopRuntime &&
		(faultCategory(r.RuntimeMsg) == "steps" || faultCategory(r.RuntimeMsg) == "depth")
}

// diffResults compares a tree-walker and a VM result for observable
// equivalence, returning "" on agreement.
func diffResults(walked, vm *mini.Result) string {
	if budgetLimited(walked) || budgetLimited(vm) {
		return ""
	}
	if walked.Kind != vm.Kind {
		return fmt.Sprintf("walker stopped with %v, vm with %v", walked.Kind, vm.Kind)
	}
	if walked.Path() != vm.Path() {
		return fmt.Sprintf("walker path %q, vm path %q", walked.Path(), vm.Path())
	}
	switch walked.Kind {
	case mini.StopReturn:
		if walked.Return != vm.Return {
			return fmt.Sprintf("walker returned %d, vm returned %d", walked.Return, vm.Return)
		}
	case mini.StopError:
		if walked.ErrorSite != vm.ErrorSite || walked.ErrorMsg != vm.ErrorMsg {
			return fmt.Sprintf("walker error site %d %q, vm site %d %q",
				walked.ErrorSite, walked.ErrorMsg, vm.ErrorSite, vm.ErrorMsg)
		}
	case mini.StopRuntime:
		if faultCategory(walked.RuntimeMsg) != faultCategory(vm.RuntimeMsg) {
			return fmt.Sprintf("walker fault %q, vm fault %q", walked.RuntimeMsg, vm.RuntimeMsg)
		}
	}
	return ""
}

// diffBug checks that a replayed result reproduces a recorded bug,
// returning "" when it does.
func diffBug(bug search.Bug, res *mini.Result) string {
	if res.Kind != bug.Kind {
		return fmt.Sprintf("recorded %v %q, replay stopped with %v", bug.Kind, bug.Msg, res.Kind)
	}
	switch bug.Kind {
	case mini.StopError:
		if res.ErrorSite != bug.Site {
			return fmt.Sprintf("recorded error site %d, replay hit site %d", bug.Site, res.ErrorSite)
		}
	case mini.StopRuntime:
		if faultCategory(res.RuntimeMsg) != faultCategory(bug.Msg) {
			return fmt.Sprintf("recorded fault %q, replay faulted %q", bug.Msg, res.RuntimeMsg)
		}
	}
	return ""
}
