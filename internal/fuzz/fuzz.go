// Package fuzz implements the blackbox random-testing baseline of Section 7
// ("regular dynamic test generation is no better than blackbox random
// testing ..."): inputs are drawn uniformly from their domains with no
// feedback whatsoever, and executions are measured with the same statistics
// as the directed searches.
package fuzz

import (
	"math/rand"

	"hotg/internal/mini"
	"hotg/internal/search"
	"hotg/internal/smt"
)

// Options configures a fuzzing campaign.
type Options struct {
	// MaxRuns is the execution budget (default 100).
	MaxRuns int
	// Seeds are executed first, before random inputs.
	Seeds [][]int64
	// Bounds gives each flat input's domain, aligned with the program
	// shape. Missing or open bounds default to [-100, 100] — blackbox
	// fuzzing needs *some* finite domain to draw from.
	Bounds []smt.Bound
	// Rand is the randomness source (required for reproducibility).
	Rand *rand.Rand
}

// Run executes the random-testing baseline on the checked program.
func Run(prog *mini.Program, opts Options) *search.Stats {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 100
	}
	if opts.Rand == nil {
		opts.Rand = rand.New(rand.NewSource(1))
	}
	shape := prog.Shape()
	stats := search.NewFuzzStats(prog.NumBranches)
	// Pure concrete execution: run on the optimized bytecode VM (identical
	// observable behavior to the concolic tree walker, property-tested in
	// internal/mini).
	compiled := mini.CompileVM(prog).Optimize()

	lo := make([]int64, len(shape.Names))
	hi := make([]int64, len(shape.Names))
	for i := range shape.Names {
		lo[i], hi[i] = -100, 100
		if i < len(opts.Bounds) {
			if opts.Bounds[i].HasLo {
				lo[i] = opts.Bounds[i].Lo
			}
			if opts.Bounds[i].HasHi {
				hi[i] = opts.Bounds[i].Hi
			}
		}
	}

	runOne := func(input []int64) {
		res := mini.RunVM(compiled, input, mini.RunOptions{})
		stats.RecordFuzzRun(res, input)
	}
	for _, seed := range opts.Seeds {
		if stats.Runs >= opts.MaxRuns {
			break
		}
		runOne(seed)
	}
	for stats.Runs < opts.MaxRuns {
		input := make([]int64, len(shape.Names))
		for i := range input {
			span := hi[i] - lo[i] + 1
			input[i] = lo[i] + opts.Rand.Int63n(span)
		}
		runOne(input)
	}
	return stats
}
