package sym

import (
	"fmt"
	"strings"
	"sync"
)

// Sample is one recorded input–output pair of an uninterpreted function: the
// paper's IOF entry (c, f(evalConcrete(args))), meaning f(Args) = Out was
// observed at execution time.
type Sample struct {
	Fn   *Func
	Args []int64
	Out  int64
}

func (s Sample) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = fmt.Sprintf("%d", a)
	}
	return fmt.Sprintf("%s(%s)=%d", s.Fn.Name, strings.Join(parts, ","), s.Out)
}

func argsKey(args []int64) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = fmt.Sprintf("%d", a)
	}
	return strings.Join(parts, ",")
}

// SampleStore is the IOF table of Figure 3: concrete input–output samples of
// uninterpreted functions, recorded during dynamic symbolic execution. The
// store can persist across runs ("include ... all value pairs observed during
// all previous runs", Section 5.3), which is what makes hard-coded keyword
// hashes learnable over a testing session (Section 7).
//
// A store is safe for concurrent use. A store may also be an *overlay* over a
// base store (NewOverlay): reads fall through to the base, writes stay local.
// The parallel search gives each worker an overlay over the shared store and
// merges the overlays back in deterministic batch order, so the merged store
// is sample-for-sample identical to what a sequential search would build.
type SampleStore struct {
	mu    sync.RWMutex
	base  *SampleStore // read-through parent; nil for a root store
	byFn  map[*Func]map[string]Sample
	order []Sample // insertion order, for deterministic iteration
}

// NewSampleStore returns an empty store.
func NewSampleStore() *SampleStore {
	return &SampleStore{byFn: make(map[*Func]map[string]Sample)}
}

// NewOverlay returns an empty store layered over base: lookups read through
// to base, additions are recorded locally (duplicates of base entries are
// dropped, conflicting outputs panic as in Add). The overlay never writes to
// base; merge it back explicitly with base.Merge(overlay).
func NewOverlay(base *SampleStore) *SampleStore {
	return &SampleStore{base: base, byFn: make(map[*Func]map[string]Sample)}
}

// Add records f(args)=out. It returns true if the pair was new. Recording a
// conflicting output for already-seen arguments panics: unknown functions are
// assumed deterministic (Theorem 3).
func (s *SampleStore) Add(f *Func, args []int64, out int64) bool {
	if len(args) != f.Arity {
		panic(fmt.Sprintf("sym: sample for %s has %d args, want %d", f.Name, len(args), f.Arity))
	}
	if s.base != nil {
		if prev, ok := s.base.Lookup(f, args); ok {
			if prev != out {
				panic(fmt.Sprintf("sym: nondeterministic unknown function %s: %s gave both %d and %d",
					f.Name, argsKey(args), prev, out))
			}
			return false
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.byFn[f]
	if m == nil {
		m = make(map[string]Sample)
		s.byFn[f] = m
	}
	k := argsKey(args)
	if prev, ok := m[k]; ok {
		if prev.Out != out {
			panic(fmt.Sprintf("sym: nondeterministic unknown function %s: %s gave both %d and %d",
				f.Name, k, prev.Out, out))
		}
		return false
	}
	cp := make([]int64, len(args))
	copy(cp, args)
	smp := Sample{Fn: f, Args: cp, Out: out}
	m[k] = smp
	s.order = append(s.order, smp)
	return true
}

// Lookup returns the recorded output of f on args.
func (s *SampleStore) Lookup(f *Func, args []int64) (int64, bool) {
	s.mu.RLock()
	if m := s.byFn[f]; m != nil {
		if smp, ok := m[argsKey(args)]; ok {
			s.mu.RUnlock()
			return smp.Out, true
		}
	}
	s.mu.RUnlock()
	if s.base != nil {
		return s.base.Lookup(f, args)
	}
	return 0, false
}

// ForFunc returns all samples of f in insertion order (base entries first for
// an overlay).
func (s *SampleStore) ForFunc(f *Func) []Sample {
	var out []Sample
	if s.base != nil {
		out = s.base.ForFunc(f)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, smp := range s.order {
		if smp.Fn == f {
			out = append(out, smp)
		}
	}
	return out
}

// All returns every sample in insertion order (base entries first for an
// overlay).
func (s *SampleStore) All() []Sample {
	var out []Sample
	if s.base != nil {
		out = s.base.All()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append(out, s.order...)
}

// Len reports the number of recorded samples (including base entries for an
// overlay).
func (s *SampleStore) Len() int {
	n := 0
	if s.base != nil {
		n = s.base.Len()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return n + len(s.order)
}

// LocalLen reports the number of samples recorded in this store itself,
// excluding any base store.
func (s *SampleStore) LocalLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.order)
}

// Clone returns an independent (root) copy of the store.
func (s *SampleStore) Clone() *SampleStore {
	c := NewSampleStore()
	for _, smp := range s.All() {
		c.Add(smp.Fn, smp.Args, smp.Out)
	}
	return c
}

// Merge adds every sample of other into s, in other's insertion order.
func (s *SampleStore) Merge(other *SampleStore) {
	for _, smp := range other.All() {
		s.Add(smp.Fn, smp.Args, smp.Out)
	}
}

// MergeLocal adds only other's locally recorded samples into s (skipping
// other's base), in insertion order. This is the merge step of the parallel
// search: each worker overlay's new samples land in the shared store exactly
// once, in batch order.
func (s *SampleStore) MergeLocal(other *SampleStore) {
	other.mu.RLock()
	local := append([]Sample(nil), other.order...)
	other.mu.RUnlock()
	for _, smp := range local {
		s.Add(smp.Fn, smp.Args, smp.Out)
	}
}

// FnEval adapts the store to the evaluation interface of Env.
func (s *SampleStore) FnEval(f *Func, args []int64) (int64, bool) {
	return s.Lookup(f, args)
}
