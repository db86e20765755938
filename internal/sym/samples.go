package sym

import (
	"fmt"
	"strconv"
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
	return fmt.Sprintf("%s(%s)=%d", s.Fn.Name, argsKey(s.Args), s.Out)
}

// argsKey is the store's index key for an argument vector: the decimal
// arguments joined by commas ("42", "-1,0,7").
func argsKey(args []int64) string { return string(appendArgsKey(nil, args)) }

// appendArgsKey appends argsKey(args) to dst. Lookups build the key in a stack
// buffer, so probing the index allocates nothing.
func appendArgsKey(dst []byte, args []int64) []byte {
	for i, a := range args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, a, 10)
	}
	return dst
}

// fnSamples is one function's samples: insertion order plus an index from
// argsKey to position in it.
type fnSamples struct {
	index map[string]int
	order []Sample
}

// SampleStore is the IOF table of Figure 3: concrete input–output samples of
// uninterpreted functions, recorded during dynamic symbolic execution. The
// store can persist across runs ("include ... all value pairs observed during
// all previous runs", Section 5.3), which is what makes hard-coded keyword
// hashes learnable over a testing session (Section 7).
//
// A store is safe for concurrent use: the search's coordinator records
// samples into its shared store between proof fan-outs, and proof workers
// read it during one. A store may also be an *overlay* over a base store
// (NewOverlay): reads fall through to the base, writes stay local. The
// callback tier of the search answers probes into one overlay per expansion,
// which is dropped, never merged back.
type SampleStore struct {
	mu    sync.RWMutex
	base  *SampleStore // read-through parent; nil for a root store
	byFn  map[*Func]*fnSamples
	order []Sample // insertion order, for deterministic iteration
}

// NewSampleStore returns an empty store.
func NewSampleStore() *SampleStore {
	return &SampleStore{byFn: make(map[*Func]*fnSamples)}
}

// NewOverlay returns an empty store layered over base: lookups read through
// to base, additions are recorded locally (duplicates of base entries are
// dropped, conflicting outputs panic as in Add). The overlay never writes to
// base.
func NewOverlay(base *SampleStore) *SampleStore {
	return &SampleStore{base: base, byFn: make(map[*Func]*fnSamples)}
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
	fs := s.byFn[f]
	if fs == nil {
		fs = &fnSamples{index: make(map[string]int)}
		s.byFn[f] = fs
	}
	// Probe with a stack-buffer key, as Lookup does: most calls re-record a
	// pair already stored, and only an insert needs the key as a string.
	var buf [64]byte
	k := appendArgsKey(buf[:0], args)
	if i, ok := fs.index[string(k)]; ok {
		if prev := fs.order[i].Out; prev != out {
			panic(fmt.Sprintf("sym: nondeterministic unknown function %s: %s gave both %d and %d",
				f.Name, argsKey(args), prev, out))
		}
		return false
	}
	cp := make([]int64, len(args))
	copy(cp, args)
	smp := Sample{Fn: f, Args: cp, Out: out}
	fs.index[string(k)] = len(fs.order)
	fs.order = append(fs.order, smp)
	s.order = append(s.order, smp)
	return true
}

// Lookup returns the recorded output of f on args.
func (s *SampleStore) Lookup(f *Func, args []int64) (int64, bool) {
	var buf [64]byte
	k := appendArgsKey(buf[:0], args)
	s.mu.RLock()
	if fs := s.byFn[f]; fs != nil {
		if i, ok := fs.index[string(k)]; ok {
			out := fs.order[i].Out
			s.mu.RUnlock()
			return out, true
		}
	}
	s.mu.RUnlock()
	if s.base != nil {
		return s.base.Lookup(f, args)
	}
	return 0, false
}

// ForFunc returns all samples of f in insertion order (base entries first for
// an overlay). The result may share the store's backing array: callers must
// not modify it. Later additions never change a returned slice.
func (s *SampleStore) ForFunc(f *Func) []Sample {
	var base []Sample
	if s.base != nil {
		base = s.base.ForFunc(f)
	}
	var local []Sample
	s.mu.RLock()
	if fs := s.byFn[f]; fs != nil {
		local = fs.order[:len(fs.order):len(fs.order)]
	}
	s.mu.RUnlock()
	switch {
	case len(local) == 0:
		return base
	case len(base) == 0:
		return local
	}
	return append(append(make([]Sample, 0, len(base)+len(local)), base...), local...)
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

// Clone returns an independent (root) copy of the store.
func (s *SampleStore) Clone() *SampleStore {
	c := NewSampleStore()
	for _, smp := range s.All() {
		c.Add(smp.Fn, smp.Args, smp.Out)
	}
	return c
}

// FnEval adapts the store to the evaluation interface of Env.
func (s *SampleStore) FnEval(f *Func, args []int64) (int64, bool) {
	return s.Lookup(f, args)
}
