package sym

// Structural hashing and equality, the two halves of a hash-consing table
// (Filliâtre & Conchon, "Type-safe modular hash-consing", 2006): a caller
// interns terms by looking up Hash and confirming with Equal. Both walk the
// term and build no strings. They agree with Key: Equal(a, b) holds exactly
// when a.Key() == b.Key(), and equal keys give equal hashes.

// Hash returns a structural hash of e. Equal terms hash alike.
func Hash(e Expr) uint64 { return hashExpr(hashSeed, e) }

// Equal reports whether a and b are structurally equal, which is when their
// keys are equal. It compares variables by ID and name, and function symbols
// by name, as Key does.
func Equal(a, b Expr) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *Sum:
		y, ok := b.(*Sum)
		return ok && equalSum(x, y)
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op && equalSum(x.S, y.S)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.X, y.X)
	case *And:
		y, ok := b.(*And)
		return ok && equalList(x.Xs, y.Xs)
	case *Or:
		y, ok := b.(*Or)
		return ok && equalList(x.Xs, y.Xs)
	case *Bool:
		y, ok := b.(*Bool)
		return ok && x.V == y.V
	}
	return false
}

func equalList(xs, ys []Expr) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i := range xs {
		if !Equal(xs[i], ys[i]) {
			return false
		}
	}
	return true
}

func equalSum(a, b *Sum) bool {
	if a == b {
		return true
	}
	if a.Const != b.Const || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i, ta := range a.Terms {
		tb := b.Terms[i]
		if ta.Coef != tb.Coef || !equalAtom(ta.Atom, tb.Atom) {
			return false
		}
	}
	return true
}

func equalAtom(a, b Atom) bool {
	switch x := a.(type) {
	case *Var:
		y, ok := b.(*Var)
		return ok && (x == y || x.ID == y.ID && x.Name == y.Name)
	case *Apply:
		y, ok := b.(*Apply)
		if !ok || len(x.Args) != len(y.Args) || x.Fn != y.Fn && x.Fn.Name != y.Fn.Name {
			return false
		}
		for i, arg := range x.Args {
			if !equalSum(arg, y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Node tags, so that different node kinds with equal contents hash apart.
const (
	tagBool uint64 = iota + 1
	tagCmp
	tagNot
	tagAnd
	tagOr
	tagSum
	tagVar
	tagApply
)

const hashSeed uint64 = 0xcbf29ce484222325

// mix folds v into h.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

func hashExpr(h uint64, e Expr) uint64 {
	switch x := e.(type) {
	case *Sum:
		return hashSum(h, x)
	case *Cmp:
		return hashSum(mix(mix(h, tagCmp), uint64(x.Op)), x.S)
	case *Not:
		return hashExpr(mix(h, tagNot), x.X)
	case *And:
		return hashList(mix(h, tagAnd), x.Xs)
	case *Or:
		return hashList(mix(h, tagOr), x.Xs)
	case *Bool:
		if x.V {
			return mix(mix(h, tagBool), 1)
		}
		return mix(h, tagBool)
	}
	return h
}

func hashList(h uint64, xs []Expr) uint64 {
	h = mix(h, uint64(len(xs)))
	for _, x := range xs {
		h = hashExpr(h, x)
	}
	return h
}

func hashSum(h uint64, s *Sum) uint64 {
	h = mix(mix(mix(h, tagSum), uint64(s.Const)), uint64(len(s.Terms)))
	for _, t := range s.Terms {
		h = mix(h, uint64(t.Coef))
		switch a := t.Atom.(type) {
		case *Var:
			// Equal keys imply equal IDs, so the ID alone is enough.
			h = mix(mix(h, tagVar), uint64(a.ID))
		case *Apply:
			// Key names the symbol, not its ID, so the name is hashed.
			h = mix(h, tagApply)
			for i := 0; i < len(a.Fn.Name); i++ {
				h = mix(h, uint64(a.Fn.Name[i]))
			}
			h = mix(h, uint64(len(a.Args)))
			for _, arg := range a.Args {
				h = hashSum(h, arg)
			}
		}
	}
	return h
}
