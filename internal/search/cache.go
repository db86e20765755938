package search

import (
	"fmt"
	"strconv"
	"strings"

	"hotg/internal/fol"
	"hotg/internal/smt"
)

// proofCache memoizes the expensive half of test generation. Within one
// search, identical proof obligations recur constantly — the same negated
// constraint reached through different prefixes slices to the same ALT
// formula, and re-expansions after divergences re-derive earlier targets.
//
// A validity proof of POST(pc) = ∃X: A ⇒ pc is built from the IOF samples A,
// so in general the same formula can be unprovable before an intermediate run
// and provable after it. Higher-order entries are therefore keyed on the
// formula and a sample-store version, except where the samples cannot change
// the verdict; such entries use the sentinel version anyVersion and hold at
// every version. Two rules say when:
//
//   - A formula without an uninterpreted application never reads the store:
//     the prover consults samples only to bind applications, and refuting an
//     apply-free formula is a single satisfiability check. Every cacheable
//     verdict of such a formula is stored under anyVersion.
//   - Validity is monotone in A: the store only grows, and more consistent
//     samples only strengthen the antecedent. A Proved verdict therefore
//     stays proved at every later version and is stored under anyVersion.
//
// Unknown and Invalid verdicts of formulas with applications stay keyed on
// the version they were proved at. Timed-out and panicked proofs are never
// cached. The store is frozen while an expansion's proofs are in flight, so
// Len() is a sound version stamp. Satisfiability entries need no version: the
// solver never reads samples. Every satisfiability check the search makes on
// a target formula — a lower-mode target, either rung of the degradation
// ladder, callback synthesis — shares the one solve map, keyed by the formula
// actually solved; timed-out solves are never cached.
//
// Only the coordinator goroutine reads or writes the cache (workers receive
// the already-filtered miss list), so it needs no lock. Cached strategies are
// shared across targets; consumers copy-on-extend (fol.FillFallback) rather
// than mutate. An entry, once stored, is never replaced, which is what lets
// checkpoints encode each entry once (see records).
type proofCache struct {
	prove map[proveKey]proveEntry
	solve map[string]solveEntry

	// track is set by a session's first snapshot (records). From then on
	// the cache lists the keys stored since the last snapshot (newProve,
	// newSolve) and keeps the snapshot records of every older entry,
	// sorted and encoded (proveRecs, solveRecs).
	track     bool
	newProve  []proveKey
	newSolve  []string
	proveRecs []proveRec
	solveRecs []solveRec
}

// proveKey keys a higher-order entry: the formula's canonical string and the
// sample-store version the verdict holds at, or anyVersion.
type proveKey struct {
	formula string
	version int
}

// anyVersion is the version of an entry that holds at every sample-store
// version.
const anyVersion = -1

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
		prove: make(map[proveKey]proveEntry),
		solve: make(map[string]solveEntry),
	}
}

// size returns the total number of live entries across both maps.
func (c *proofCache) size() int { return len(c.prove) + len(c.solve) }

// proveKeyOf returns the key alt's verdict is looked up under at the given
// store version: anyVersion if alt has no application.
func proveKeyOf(alt *altFormula, version int) proveKey {
	if !alt.hasApply {
		version = anyVersion
	}
	return proveKey{formula: alt.key, version: version}
}

// lookupProve returns the verdict cached for k's formula at k's version,
// preferring one that holds at every version.
func (c *proofCache) lookupProve(k proveKey) (proveEntry, bool) {
	if e, ok := c.prove[proveKey{formula: k.formula, version: anyVersion}]; ok {
		return e, true
	}
	if k.version == anyVersion {
		return proveEntry{}, false
	}
	e, ok := c.prove[k]
	return e, ok
}

// storeProve caches a verdict found under key k; a Proved verdict is stored
// for every version. A key already present keeps its entry.
func (c *proofCache) storeProve(k proveKey, e proveEntry) {
	if e.outcome == fol.OutcomeProved {
		k.version = anyVersion
	}
	c.putProve(k, e)
}

// putProve stores e under k exactly, reporting false (and keeping the old
// entry) if k is already present.
func (c *proofCache) putProve(k proveKey, e proveEntry) bool {
	if _, ok := c.prove[k]; ok {
		return false
	}
	c.prove[k] = e
	if c.track {
		c.newProve = append(c.newProve, k)
	}
	return true
}

// storeSolve caches a satisfiability verdict for formula, reporting false
// (and keeping the old entry) if formula is already present.
func (c *proofCache) storeSolve(formula string, e solveEntry) bool {
	if _, ok := c.solve[formula]; ok {
		return false
	}
	c.solve[formula] = e
	if c.track {
		c.newSolve = append(c.newSolve, formula)
	}
	return true
}

// String renders the key as a checkpoint writes it: "v|formula", or
// "*|formula" for anyVersion.
func (k proveKey) String() string {
	if k.version == anyVersion {
		return "*|" + k.formula
	}
	return strconv.Itoa(k.version) + "|" + k.formula
}

// parseProveKey is String's inverse. It accepts only what String writes, so a
// decoded key re-encodes byte for byte.
func parseProveKey(s string) (proveKey, error) {
	v, formula, ok := strings.Cut(s, "|")
	if !ok || formula == "" {
		return proveKey{}, fmt.Errorf("search: malformed prove cache key %q: want \"version|formula\"", s)
	}
	if v == "*" {
		return proveKey{formula: formula, version: anyVersion}, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || strconv.Itoa(n) != v {
		return proveKey{}, fmt.Errorf("search: malformed prove cache key %q: version %q is neither \"*\" nor a canonical count", s, v)
	}
	return proveKey{formula: formula, version: n}, nil
}
