package search

import (
	"encoding/binary"

	"hotg/internal/mini"
	"hotg/internal/sym"
)

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
	exprs []sym.Expr
	// rep is, per prefix conjunct, a union-find node of its dependency set,
	// or -1 for a conjunct without dependencies (never related).
	rep    []int
	node   map[int]int // dependency ID → union-find node
	parent []int
	// mark[root] == query marks a set holding a variable of the current
	// query's negated constraint.
	mark  []int
	query int
}

func newSlicer() *slicer { return &slicer{node: map[int]int{}} }

// add appends a conjunct with dependency IDs ids to the prefix.
func (sl *slicer) add(e sym.Expr, ids []int) {
	r := -1
	for _, id := range ids {
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
	sl.exprs = append(sl.exprs, e)
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

// slice returns the prefix conjuncts related to negated, in prefix order,
// conjoined with negated.
func (sl *slicer) slice(negated sym.Expr) sym.Expr {
	sl.query++
	seeded := false
	for _, id := range varIDs(negated) {
		if n, ok := sl.node[id]; ok {
			sl.mark[sl.find(n)] = sl.query
			seeded = true
		}
	}
	var parts []sym.Expr
	if seeded {
		for i, r := range sl.rep {
			if r >= 0 && sl.mark[sl.find(r)] == sl.query {
				parts = append(parts, sl.exprs[i])
			}
		}
	}
	return sym.AndExpr(append(parts, negated)...)
}

func varIDs(e sym.Expr) []int {
	vs := sym.Vars(e)
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = v.ID
	}
	return out
}

// depIDs is varIDs extended with a pseudo-ID for every function-valued-input
// symbol the expression applies. Two constraints mentioning the same callback
// are coupled through the function table even when they share no scalar
// variables (p(3)==1 and p(5)==7 both constrain p), so variable-only slicing
// would unsoundly separate them. Input symbols map to the negative range
// -(ID+1), which cannot collide with variable IDs; environment functions
// (natives, unknown instructions) keep their ground truth across tests and
// need no coupling.
func depIDs(e sym.Expr) []int {
	out := varIDs(e)
	for _, a := range sym.Applies(e) {
		if a.Fn.Input {
			out = append(out, -(a.Fn.ID + 1))
		}
	}
	return out
}

// hasInputFn reports whether the formula applies any function-valued input —
// the marker routing a target to the callback-synthesis path.
func hasInputFn(e sym.Expr) bool {
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
// instead of a copied trace.
type keyPacker struct {
	branches []mini.BranchEvent
	packed   []byte // events branches[:len(offs)], packed
	offs     []int  // offs[i]: offset of event i in packed
	buf      []byte
}

// key returns the key of the target that flips event idx of the trace and
// negates a constraint to negated. The result is valid until the next call.
func (kb *keyPacker) key(idx int, negated sym.Expr) []byte {
	for len(kb.offs) <= idx {
		kb.offs = append(kb.offs, len(kb.packed))
		kb.packed = appendKeyEvent(kb.packed, kb.branches[len(kb.offs)-1])
	}
	flipped := kb.branches[idx]
	flipped.Taken = !flipped.Taken
	b := append(kb.buf[:0], kb.packed[:kb.offs[idx]]...)
	b = appendKeyEvent(b, flipped)
	b = append(b, 0)
	b = append(b, negated.Key()...)
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
