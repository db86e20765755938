package search

import (
	"strconv"

	"hotg/internal/fol"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// proofCache memoizes the expensive half of test generation. Within one
// search, identical proof obligations recur constantly — the same negated
// constraint reached through different prefixes slices to the same ALT
// formula, and re-expansions after divergences re-derive earlier targets.
//
// Higher-order entries are keyed by sample-store version as well as formula:
// a validity proof of POST(pc) is constructed *from* the IOF samples, so the
// same formula can be unprovable before an intermediate run and provable
// after it. The store only grows (monotone), and it is frozen while an
// expansion's proofs are in flight, so Len() is a sound version stamp.
// Satisfiability entries need no version: the solver never reads samples.
//
// Only the coordinator goroutine reads or writes the cache (workers receive
// the already-filtered miss list), so it needs no lock. Cached strategies are
// shared across targets; consumers copy-on-extend (fol.FillFallback) rather
// than mutate.
type proofCache struct {
	prove map[string]proveEntry
	solve map[string]solveEntry
}

type proveEntry struct {
	strategy *fol.Strategy
	outcome  fol.Outcome
}

type solveEntry struct {
	status smt.Status
	model  *smt.Model
}

func newProofCache() *proofCache {
	return &proofCache{
		prove: make(map[string]proveEntry),
		solve: make(map[string]solveEntry),
	}
}

// size returns the total number of live entries across both maps.
func (c *proofCache) size() int { return len(c.prove) + len(c.solve) }

// proveKey is the higher-order cache key: sample-store version plus the
// formula's canonical string. Calling Key() here (on the coordinator, before
// fan-out) also memoizes the key fields of every shared subterm, so workers
// only ever read them.
func proveKey(alt sym.Expr, version int) string {
	return strconv.Itoa(version) + "|" + alt.Key()
}
