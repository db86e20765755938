package search

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hotg/internal/mini"
	"hotg/internal/sym"
)

// formulas interns what expand derives from path constraints, after
// hash-consing (Filliâtre & Conchon, "Type-safe modular hash-consing", 2006).
// A search negates every branch of every run, but the same few conjuncts and
// alternate formulas recur across runs as pointer-distinct, structurally equal
// terms. Each conjunct maps, by sym.Hash and sym.Equal, to the record of its
// first occurrence, which holds its dependency IDs and its negation, computed
// once. Each alternate formula is keyed by the records it conjoins and holds
// the formula, its canonical key, its variables and whether it applies an
// unknown or a function-valued input, also computed once.
//
// The records are derived state: only the coordinator touches them, they are
// not snapshotted, and a resumed search rebuilds them. A record's terms have
// their keys memoized when it is made, so workers only ever read them.
type formulas struct {
	// fnInputs reports whether the program has function-valued inputs (see
	// depIDs).
	fnInputs bool
	// conjs buckets the conjunct records by sym.Hash; a bucket chains its
	// records through conjunct.next.
	conjs  map[uint64]*conjunct
	nconjs int
	// alts maps the packed IDs of a formula's negated and related conjuncts
	// (alt) to the formula's record.
	alts map[string]*altFormula
	buf  []byte
}

// conjunct is the record of one path-constraint conjunct.
type conjunct struct {
	id   int
	expr sym.Expr
	// deps are expr's dependency IDs (depIDs): what the slicer unites.
	deps []int
	// neg is expr's negation, negKey its canonical key and negVars its
	// variable IDs, sorted: the negated constraint of a target, its part of
	// the dedup key, and the slice's seeds.
	neg     sym.Expr
	negKey  string
	negVars []int
	// next is the next record in the same hash bucket.
	next *conjunct
}

// altFormula is the record of one alternate formula: a slice of a path
// constraint's prefix conjoined with a negated conjunct.
type altFormula struct {
	expr sym.Expr
	key  string
	// hasApply reports whether expr applies an uninterpreted function
	// (proveKeyOf), callback whether it applies a function-valued input (the
	// target goes to funcsynth.go).
	hasApply bool
	callback bool
	// vars are expr's variables in ID order, for fol.FillFallback.
	vars []*sym.Var
}

func newFormulas(fnInputs bool) *formulas {
	return &formulas{fnInputs: fnInputs, conjs: map[uint64]*conjunct{}, alts: map[string]*altFormula{}}
}

// conjunct returns the record of e, making it on e's first occurrence.
func (f *formulas) conjunct(e sym.Expr) *conjunct {
	h := sym.Hash(e)
	head := f.conjs[h]
	for c := head; c != nil; c = c.next {
		if sym.Equal(c.expr, e) {
			return c
		}
	}
	neg := sym.NotExpr(e)
	c := &conjunct{id: f.nconjs, expr: e, deps: depIDs(e, f.fnInputs),
		neg: neg, negKey: neg.Key(), negVars: varIDs(neg), next: head}
	f.nconjs++
	f.conjs[h] = c
	return c
}

// alt returns the record of the formula related ∧ ¬negated, with related in
// prefix order, making it on first use.
func (f *formulas) alt(related []*conjunct, negated *conjunct) *altFormula {
	b := binary.AppendUvarint(f.buf[:0], uint64(negated.id))
	for _, c := range related {
		b = binary.AppendUvarint(b, uint64(c.id))
	}
	f.buf = b
	if a, ok := f.alts[string(b)]; ok {
		return a
	}
	parts := make([]sym.Expr, 0, len(related)+1)
	for _, c := range related {
		parts = append(parts, c.expr)
	}
	e := sym.AndExpr(append(parts, negated.neg)...)
	a := &altFormula{expr: e, key: e.Key(), hasApply: sym.HasApply(e),
		callback: hasInputFn(e, f.fnInputs), vars: sym.Vars(e)}
	f.alts[string(b)] = a
	return a
}

// slicer computes the classic DART/SAGE "related constraints" optimization:
// from the alternate path constraint prefix ∧ ¬c_k, keep only the conjuncts
// that transitively share input variables with the negated constraint. The
// dropped conjuncts are satisfied by keeping their variables at the parent
// input's values (the parent run satisfied every prefix conjunct), so a
// solution of the slice extends to a solution of the full alternate
// constraint — at a fraction of the solving cost.
//
// expand slices one growing prefix against many negated constraints, so the
// slicer keeps the prefix's variable sharing in a union-find that grows with
// it: add merges a conjunct's dependency IDs into one set, and a conjunct is
// related to a negated constraint exactly when its set contains one of the
// constraint's variables.
type slicer struct {
	forms *formulas
	conjs []*conjunct
	// rep is, per prefix conjunct, a union-find node of its dependency set,
	// or -1 for a conjunct without dependencies (never related).
	rep    []int
	node   map[int]int // dependency ID → union-find node
	parent []int
	// mark[root] == query marks a set holding a variable of the current
	// query's negated constraint.
	mark    []int
	query   int
	related []*conjunct
}

func newSlicer(forms *formulas) *slicer { return &slicer{forms: forms, node: map[int]int{}} }

// reset empties the prefix, keeping the slicer's storage for the next one.
func (sl *slicer) reset() {
	clear(sl.node)
	sl.conjs, sl.rep, sl.parent, sl.mark = sl.conjs[:0], sl.rep[:0], sl.parent[:0], sl.mark[:0]
}

// add appends a conjunct to the prefix.
func (sl *slicer) add(c *conjunct) {
	r := -1
	for _, id := range c.deps {
		n, ok := sl.node[id]
		if !ok {
			n = len(sl.parent)
			sl.node[id] = n
			sl.parent = append(sl.parent, n)
			sl.mark = append(sl.mark, 0)
		}
		n = sl.find(n)
		if r < 0 {
			r = n
		} else if n != r {
			sl.parent[n] = r
		}
	}
	sl.conjs = append(sl.conjs, c)
	sl.rep = append(sl.rep, r)
}

// find returns n's root, halving the path on the way.
func (sl *slicer) find(n int) int {
	for sl.parent[n] != n {
		sl.parent[n] = sl.parent[sl.parent[n]]
		n = sl.parent[n]
	}
	return n
}

// slice returns the alternate formula of negating c: the prefix conjuncts
// related to c's negation, in prefix order, conjoined with it.
func (sl *slicer) slice(c *conjunct) *altFormula {
	sl.query++
	seeded := false
	for _, id := range c.negVars {
		if n, ok := sl.node[id]; ok {
			sl.mark[sl.find(n)] = sl.query
			seeded = true
		}
	}
	related := sl.related[:0]
	if seeded {
		for i, r := range sl.rep {
			if r >= 0 && sl.mark[sl.find(r)] == sl.query {
				related = append(related, sl.conjs[i])
			}
		}
	}
	sl.related = related
	return sl.forms.alt(related, c)
}

// varIDs returns the IDs of the variables occurring in e, sorted and distinct.
func varIDs(e sym.Expr) []int { return sortedIDs(appendDeps(nil, e, false)) }

// depIDs is varIDs extended with a pseudo-ID for every function-valued-input
// symbol the expression applies. Two constraints mentioning the same callback
// are coupled through the function table even when they share no scalar
// variables (p(3)==1 and p(5)==7 both constrain p), so variable-only slicing
// would unsoundly separate them. Input symbols map to the negative range
// -(ID+1), which cannot collide with variable IDs; environment functions
// (natives, unknown instructions) keep their ground truth across tests and
// need no coupling. fnInputs reports whether the program has function-valued
// inputs at all; without them there is nothing to couple.
func depIDs(e sym.Expr, fnInputs bool) []int { return sortedIDs(appendDeps(nil, e, fnInputs)) }

// appendDeps appends to ids the variable IDs occurring in e and, when
// fnInputs is set, the pseudo-ID of every function-valued input applied in
// e, in one walk and with repeats.
func appendDeps(ids []int, e sym.Expr, fnInputs bool) []int {
	switch x := e.(type) {
	case *sym.Sum:
		for _, t := range x.Terms {
			switch a := t.Atom.(type) {
			case *sym.Var:
				ids = append(ids, a.ID)
			case *sym.Apply:
				if fnInputs && a.Fn.Input {
					ids = append(ids, -(a.Fn.ID + 1))
				}
				for _, arg := range a.Args {
					ids = appendDeps(ids, arg, fnInputs)
				}
			}
		}
	case *sym.Cmp:
		ids = appendDeps(ids, x.S, fnInputs)
	case *sym.Not:
		ids = appendDeps(ids, x.X, fnInputs)
	case *sym.And:
		for _, y := range x.Xs {
			ids = appendDeps(ids, y, fnInputs)
		}
	case *sym.Or:
		for _, y := range x.Xs {
			ids = appendDeps(ids, y, fnInputs)
		}
	case *sym.Bool:
	default:
		panic(fmt.Sprintf("search: appendDeps: unexpected %T", e))
	}
	return ids
}

func sortedIDs(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// hasInputFn reports whether the formula applies any function-valued input —
// the marker routing a target to the callback-synthesis path. fnInputs is as
// for depIDs.
func hasInputFn(e sym.Expr, fnInputs bool) bool {
	if !fnInputs {
		return false
	}
	for _, a := range sym.Applies(e) {
		if a.Fn.Input {
			return true
		}
	}
	return false
}

// keyPacker computes the dedup keys of one execution's flip targets. A key
// identifies a flip attempt: the predicted trace (which encodes the path
// prefix and the flipped event) plus the negated constraint. Identical targets
// from different parents would generate identical tests, so they are solved at
// most once. The key is exact: the trace's events (appendKeyEvent), a zero
// byte, then the negated constraint's canonical key. It packs the
// execution's branch trace once, so a key costs a copy of the packed prefix
// instead of a copied trace. One packer serves every expansion of a search
// (reset).
type keyPacker struct {
	branches []mini.BranchEvent
	packed   []byte // events branches[:len(offs)], packed
	offs     []int  // offs[i]: offset of event i in packed
	buf      []byte
}

// reset points the packer at another execution's branch trace, keeping its
// buffers.
func (kb *keyPacker) reset(branches []mini.BranchEvent) {
	kb.branches, kb.packed, kb.offs = branches, kb.packed[:0], kb.offs[:0]
}

// key returns the key of the target that flips event idx of the trace and
// negates a constraint to the formula whose canonical key is negKey. The
// result is valid until the next call.
func (kb *keyPacker) key(idx int, negKey string) []byte {
	for len(kb.offs) <= idx {
		kb.offs = append(kb.offs, len(kb.packed))
		kb.packed = appendKeyEvent(kb.packed, kb.branches[len(kb.offs)-1])
	}
	flipped := kb.branches[idx]
	flipped.Taken = !flipped.Taken
	b := append(kb.buf[:0], kb.packed[:kb.offs[idx]]...)
	b = appendKeyEvent(b, flipped)
	b = append(b, 0)
	b = append(b, negKey...)
	kb.buf = b
	return b
}

// appendKeyEvent packs one branch event of a dedup key. With v = ID<<1 |
// taken, the event is the byte v+1 when that is below 0xff, and otherwise
// 0xff followed by uvarint(v). A zero byte therefore never starts an event
// and can end the trace. Programs with at most 127 branches pack one
// byte per event; keys that share a trace prefix share a byte prefix, which
// the checkpoint's front-coded key sets rely on.
func appendKeyEvent(dst []byte, ev mini.BranchEvent) []byte {
	v := uint64(ev.ID) << 1
	if ev.Taken {
		v |= 1
	}
	if v < 0xfe {
		return append(dst, byte(v+1))
	}
	return binary.AppendUvarint(append(dst, 0xff), v)
}
