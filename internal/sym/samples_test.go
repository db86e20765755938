package sym

import (
	"bytes"
	"strings"
	"testing"
)

func TestSampleStoreBasics(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	g := p.FuncSym("g", 2)
	s := NewSampleStore()

	if !s.Add(h, []int64{42}, 567) {
		t.Fatal("first add should be new")
	}
	if s.Add(h, []int64{42}, 567) {
		t.Fatal("duplicate add should not be new")
	}
	s.Add(h, []int64{10}, 66)
	s.Add(g, []int64{1, 2}, 3)

	if v, ok := s.Lookup(h, []int64{42}); !ok || v != 567 {
		t.Fatalf("lookup h(42) = %d %v", v, ok)
	}
	if _, ok := s.Lookup(h, []int64{99}); ok {
		t.Fatal("h(99) should be unknown")
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := len(s.ForFunc(h)); got != 2 {
		t.Fatalf("ForFunc(h) = %d", got)
	}
	if got := len(s.All()); got != 3 {
		t.Fatalf("All() = %d", got)
	}
	if v, ok := s.FnEval(g, []int64{1, 2}); !ok || v != 3 {
		t.Fatalf("FnEval = %d %v", v, ok)
	}
}

func TestSampleStoreDeterminismPanic(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	s := NewSampleStore()
	s.Add(h, []int64{1}, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting sample should panic")
		}
	}()
	s.Add(h, []int64{1}, 6)
}

func TestSampleStoreArityPanic(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	s := NewSampleStore()
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity should panic")
		}
	}()
	s.Add(h, []int64{1, 2}, 5)
}

func TestSampleStoreCloneAndMerge(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	a := NewSampleStore()
	a.Add(h, []int64{1}, 10)
	b := a.Clone()
	b.Add(h, []int64{2}, 20)
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("clone isolation: a=%d b=%d", a.Len(), b.Len())
	}
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatalf("merge: %d", a.Len())
	}
}

func TestSampleStoreArgsCopied(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	s := NewSampleStore()
	args := []int64{7}
	s.Add(h, args, 1)
	args[0] = 99 // must not corrupt the store
	if _, ok := s.Lookup(h, []int64{7}); !ok {
		t.Fatal("stored args were aliased")
	}
}

func TestSampleEncodeDecodeRoundTrip(t *testing.T) {
	var p Pool
	h := p.FuncSym("hash", 1)
	g := p.FuncSym("hashstr", 3)
	s := NewSampleStore()
	s.Add(h, []int64{42}, 567)
	s.Add(h, []int64{-3}, 12)
	s.Add(g, []int64{105, 102, 0}, 52)

	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}

	var p2 Pool
	dst := NewSampleStore()
	added, err := DecodeSamples(&buf, dst, &p2)
	if err != nil || added != 3 {
		t.Fatalf("decode: added=%d err=%v", added, err)
	}
	h2 := p2.FuncSym("hash", 1)
	if v, ok := dst.Lookup(h2, []int64{42}); !ok || v != 567 {
		t.Fatalf("round-trip lost hash(42): %d %v", v, ok)
	}
	g2 := p2.FuncSym("hashstr", 3)
	if v, ok := dst.Lookup(g2, []int64{105, 102, 0}); !ok || v != 52 {
		t.Fatalf("round-trip lost hashstr: %d %v", v, ok)
	}
}

func TestDecodeSamplesDuplicatesAndConflicts(t *testing.T) {
	var p Pool
	h := p.FuncSym("hash", 1)
	s := NewSampleStore()
	s.Add(h, []int64{1}, 5)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Decoding into a store that already has the sample: zero added, no error.
	var p2 Pool
	dst := NewSampleStore()
	dst.Add(p2.FuncSym("hash", 1), []int64{1}, 5)
	added, err := DecodeSamples(bytes.NewReader(buf.Bytes()), dst, &p2)
	if err != nil || added != 0 {
		t.Fatalf("idempotent decode: added=%d err=%v", added, err)
	}
	// Conflicting value: error, no panic.
	var p3 Pool
	dst3 := NewSampleStore()
	dst3.Add(p3.FuncSym("hash", 1), []int64{1}, 6)
	if _, err := DecodeSamples(bytes.NewReader(buf.Bytes()), dst3, &p3); err == nil {
		t.Fatal("conflicting decode should error")
	}
}

func TestDecodeSamplesMalformed(t *testing.T) {
	cases := []string{
		`not json`,
		`[{"fn":"","arity":1,"args":[1],"out":2}]`,
		`[{"fn":"h","arity":2,"args":[1],"out":2}]`,
		`[{"fn":"h","arity":0,"args":[],"out":2}]`,
	}
	for _, c := range cases {
		var p Pool
		if _, err := DecodeSamples(strings.NewReader(c), NewSampleStore(), &p); err == nil {
			t.Fatalf("decode %q should fail", c)
		}
	}
	// Arity clash with an existing symbol.
	var p Pool
	p.FuncSym("h", 3)
	if _, err := DecodeSamples(strings.NewReader(`[{"fn":"h","arity":1,"args":[1],"out":2}]`),
		NewSampleStore(), &p); err == nil {
		t.Fatal("arity clash should fail")
	}
}

func TestSampleString(t *testing.T) {
	var p Pool
	g := p.FuncSym("g", 2)
	smp := Sample{Fn: g, Args: []int64{1, -2}, Out: 7}
	if got := smp.String(); got != "g(1,-2)=7" {
		t.Fatalf("String = %q", got)
	}
}

// TestArgsKeyFormat pins the store's argument key: decimal arguments joined
// by commas, exactly as fmt's %d renders them, negative values and zero
// included.
func TestArgsKeyFormat(t *testing.T) {
	for _, tc := range []struct {
		args []int64
		want string
	}{
		{nil, ""},
		{[]int64{0}, "0"},
		{[]int64{42}, "42"},
		{[]int64{-1}, "-1"},
		{[]int64{-7, 0, 7}, "-7,0,7"},
		{[]int64{1, 23, 456}, "1,23,456"},
		{[]int64{-9223372036854775808, 9223372036854775807}, "-9223372036854775808,9223372036854775807"},
	} {
		if got := argsKey(tc.args); got != tc.want {
			t.Errorf("argsKey(%v) = %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestForFuncOverlay: an overlay lists the base's samples of a function
// before its own, and a returned slice is not disturbed by later additions.
func TestForFuncOverlay(t *testing.T) {
	var p Pool
	h, g := p.FuncSym("h", 1), p.FuncSym("g", 1)
	base := NewSampleStore()
	base.Add(h, []int64{1}, 10)
	base.Add(g, []int64{1}, 5)
	ov := NewOverlay(base)
	if got := ov.ForFunc(h); len(got) != 1 || got[0].Out != 10 {
		t.Fatalf("overlay without local samples: ForFunc(h) = %v", got)
	}
	ov.Add(h, []int64{2}, 20)
	ov.Add(h, []int64{1}, 10) // already in base: dropped
	got := ov.ForFunc(h)
	if len(got) != 2 || got[0].Out != 10 || got[1].Out != 20 {
		t.Fatalf("ForFunc(h) = %v, want h(1)=10 then h(2)=20", got)
	}
	held := base.ForFunc(h)
	base.Add(h, []int64{3}, 30)
	if len(held) != 1 || held[0].Out != 10 {
		t.Fatalf("earlier ForFunc result changed to %v", held)
	}
	if n := len(base.ForFunc(h)); n != 2 {
		t.Fatalf("ForFunc(h) after an addition has %d samples, want 2", n)
	}
}
