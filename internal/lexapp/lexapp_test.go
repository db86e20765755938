package lexapp

import (
	"strings"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/mini"
	"hotg/internal/search"
)

// runVM executes p concretely on the VM.
func runVM(p *mini.Program, input []int64) *mini.Result {
	return mini.RunVM(mini.CompileVM(p), input, mini.RunOptions{})
}

func TestAllWorkloadsBuild(t *testing.T) {
	for _, w := range All() {
		p := w.Build()
		if p.Main() == nil {
			t.Fatalf("%s: no main", w.Name)
		}
		sh := p.Shape()
		for _, seed := range w.Seeds {
			if len(seed) != len(sh.Names) {
				t.Fatalf("%s: seed length %d, shape %d", w.Name, len(seed), len(sh.Names))
			}
			res := runVM(p, seed)
			if res.Kind == mini.StopRuntime {
				t.Fatalf("%s: seed faults: %s", w.Name, res.RuntimeMsg)
			}
		}
		if w.Description == "" {
			t.Fatalf("%s: missing description", w.Name)
		}
	}
}

func TestGetWorkloads(t *testing.T) {
	for _, name := range []string{"obscure", "foo", "bar", "lexer", "lexer-hardcoded"} {
		if _, ok := Get(name); !ok {
			t.Fatalf("Get(%q) failed", name)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get(nope) should fail")
	}
}

func TestKeywordHashesDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, kw := range Keywords {
		h := KeywordHash(kw.Word)
		if prev, dup := seen[h]; dup {
			t.Fatalf("keyword hash collision: %q and %q both hash to %d", prev, kw.Word, h)
		}
		seen[h] = kw.Word
	}
}

func TestEncodeDecode(t *testing.T) {
	in := EncodeInput("set 7")
	if len(in) != LexerInputLen {
		t.Fatalf("len = %d", len(in))
	}
	if in[0] != 's' || in[3] != ' ' || in[4] != '7' || in[5] != 0 {
		t.Fatalf("encode = %v", in)
	}
	s := DecodeInput(in)
	if !strings.HasPrefix(s, "set 7") {
		t.Fatalf("decode = %q", s)
	}
	if DecodeInput([]int64{200}) != "?" {
		t.Fatal("non-printable decode")
	}
}

// TestLexerConcreteSemantics runs the lexer program on hand-built inputs and
// checks the parser reaches exactly the expected error sites.
func TestLexerConcreteSemantics(t *testing.T) {
	p := Lexer().Build()
	cases := []struct {
		input string
		want  string // expected error message, "" for clean return
	}{
		{"set 7", "parse-set-num"},
		{"while 1 do end", "parse-while-loop"},
		{"if 2 set 3 end", "parse-if-block"},
		{"not not", "parse-double-not"},
		{"let a 1", "parse-let-binding"},
		{"qp 4 xyz", ""},
		{"", ""},
		{"       ", ""},
		{"set x", ""},           // set IDENT: no rule
		{"do 1", ""},            // do NUM: no rule
		{"while 1 do", ""},      // incomplete while
		{"sett 7", ""},          // near-keyword must not match
		{"verylongchunkxx", ""}, // chunk longer than ChunkLen splits
	}
	for _, c := range cases {
		res := runVM(p, EncodeInput(c.input))
		if c.want == "" {
			if res.Kind != mini.StopReturn {
				t.Fatalf("%q: got %v %q, want clean return", c.input, res.Kind, res.ErrorMsg)
			}
			continue
		}
		if res.Kind != mini.StopError || res.ErrorMsg != c.want {
			t.Fatalf("%q: got %v %q, want error %q", c.input, res.Kind, res.ErrorMsg, c.want)
		}
	}
}

// TestWellFormedSeedsAreBenign: the hard-coded-variant corpus must teach the
// keyword hashes without triggering any parser bug itself.
func TestWellFormedSeedsAreBenign(t *testing.T) {
	p := LexerHardcoded().Build()
	for _, seed := range WellFormedSeeds() {
		res := runVM(p, seed)
		if res.Kind != mini.StopReturn {
			t.Fatalf("seed %q is not benign: %v %q", DecodeInput(seed), res.Kind, res.ErrorMsg)
		}
	}
	// Together the benign seeds must exercise every keyword.
	eng := concolic.New(p, concolic.ModeHigherOrder)
	for _, seed := range WellFormedSeeds() {
		eng.Run(seed)
	}
	hashstr := eng.FuncFor("hashstr")
	for _, kw := range Keywords {
		args := make([]int64, ChunkLen)
		copy(args, EncodeInput(kw.Word)[:ChunkLen])
		if _, ok := eng.Samples.Lookup(hashstr, args); !ok {
			t.Fatalf("keyword %q not sampled by the benign corpus", kw.Word)
		}
	}
}

// TestJunkSeedsContainNoKeywords guards experiment fairness.
func TestJunkSeedsContainNoKeywords(t *testing.T) {
	for _, seed := range JunkSeeds() {
		text := DecodeInput(seed)
		for _, kw := range Keywords {
			for _, chunk := range strings.Fields(strings.Trim(text, "·")) {
				if strings.Trim(chunk, "·") == kw.Word {
					t.Fatalf("junk seed %q contains keyword %q", text, kw.Word)
				}
			}
		}
	}
}

// TestLexerInitTeachesSamples checks that one run of the standard lexer
// records every keyword hash in the IOF store (the addsym loop of Section 7).
func TestLexerInitTeachesSamples(t *testing.T) {
	w := Lexer()
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	ex := eng.Run(JunkSeed())
	if ex.NewSamples < len(Keywords) {
		t.Fatalf("init should record ≥%d samples, got %d", len(Keywords), ex.NewSamples)
	}
	hashstr := eng.FuncFor("hashstr")
	for _, kw := range Keywords {
		args := make([]int64, ChunkLen)
		copy(args, EncodeInput(kw.Word)[:ChunkLen])
		out, ok := eng.Samples.Lookup(hashstr, args)
		if !ok || out != KeywordHash(kw.Word) {
			t.Fatalf("keyword %q: sample %d %v", kw.Word, out, ok)
		}
	}
}

// TestHardcodedLexerHasNoInitSamples: the variant must not leak keyword
// samples at initialization.
func TestHardcodedLexerHasNoInitSamples(t *testing.T) {
	w := LexerHardcoded()
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	eng.Run(JunkSeed())
	hashstr := eng.FuncFor("hashstr")
	for _, kw := range Keywords {
		args := make([]int64, ChunkLen)
		copy(args, EncodeInput(kw.Word)[:ChunkLen])
		if _, ok := eng.Samples.Lookup(hashstr, args); ok {
			t.Fatalf("hardcoded variant leaked keyword sample %q", kw.Word)
		}
	}
}

// TestLexerSearchSmoke is a quick end-to-end check that higher-order search
// reaches a keyword-guarded parser bug while DART-style search cannot.
func TestLexerSearchSmoke(t *testing.T) {
	w := Lexer()
	ho := search.Run(concolic.New(w.Build(), concolic.ModeHigherOrder),
		search.Options{MaxRuns: 120, Seeds: w.Seeds, Bounds: w.Bounds})
	if len(ho.ErrorSitesFound()) == 0 {
		t.Fatalf("higher-order found no parser bug in 120 runs: %s", ho.Summary())
	}
	if ho.Divergences != 0 {
		t.Fatalf("higher-order diverged: %s", ho.Summary())
	}

	w2 := Lexer()
	un := search.Run(concolic.New(w2.Build(), concolic.ModeUnsound),
		search.Options{MaxRuns: 120, Seeds: w2.Seeds, Bounds: w2.Bounds})
	if len(un.ErrorSitesFound()) != 0 {
		t.Fatalf("unsound DART cracked a hash guard?! %s", un.Summary())
	}
	if un.BranchSidesCovered() >= ho.BranchSidesCovered() {
		t.Fatalf("expected HO coverage (%d) > DART coverage (%d)",
			ho.BranchSidesCovered(), un.BranchSidesCovered())
	}
}

func TestKStepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KStep(5) should panic")
		}
	}()
	KStep(5)
}

func TestScrambledHashDeterministic(t *testing.T) {
	for i := int64(-5); i < 5; i++ {
		a := ScrambledHash([]int64{i})
		b := ScrambledHash([]int64{i})
		if a != b {
			t.Fatalf("nondeterministic at %d", i)
		}
		if a < 0 || a >= 1000 {
			t.Fatalf("out of range: %d", a)
		}
	}
}

func TestHashStrRange(t *testing.T) {
	v := HashStr(make([]int64, ChunkLen))
	if v < 0 || v >= 4093 {
		t.Fatalf("HashStr out of range: %d", v)
	}
}

func TestPacketEncodeAndParse(t *testing.T) {
	p := Packet().Build()
	// A well-formed benign packet parses cleanly.
	res := runVM(p, EncodePacket(PktControl, "x"))
	if res.Kind != mini.StopReturn {
		t.Fatalf("benign packet: %v %s", res.Kind, res.ErrorMsg)
	}
	// Each crafted packet reaches its error site.
	cases := []struct {
		pkt  []int64
		want string
	}{
		{EncodePacket(PktData, "1234567"), "data-overflow"},
		{EncodePacket(PktControl, "R"), "control-reboot"},
		{EncodePacket(PktEcho, "hi"), "echo-magic"},
	}
	for _, c := range cases {
		res := runVM(p, c.pkt)
		if res.Kind != mini.StopError || res.ErrorMsg != c.want {
			t.Fatalf("packet %v: got %v %q, want %q", c.pkt, res.Kind, res.ErrorMsg, c.want)
		}
	}
	// A corrupted checksum is rejected before dispatch.
	bad := EncodePacket(PktControl, "R")
	bad[PacketLen-1] = (bad[PacketLen-1] + 1) % 256
	res = runVM(p, bad)
	if res.Kind != mini.StopReturn {
		t.Fatalf("corrupted packet should be rejected: %v %s", res.Kind, res.ErrorMsg)
	}
	// Wrong version and oversized length are rejected.
	v := EncodePacket(PktData, "a")
	v[0] = 1
	if res := runVM(p, v); res.Kind != mini.StopReturn {
		t.Fatalf("wrong version: %v", res.Kind)
	}
}

func TestCrc8Properties(t *testing.T) {
	// Deterministic and byte-ranged.
	args := []int64{3, 'a', 'b', 'c', 0, 0, 0, 0, 0}
	a, b := Crc8(args), Crc8(args)
	if a != b || a < 0 || a > 255 {
		t.Fatalf("crc8 = %d, %d", a, b)
	}
	// Sensitive to payload changes (the property that defeats concretization).
	args2 := append([]int64(nil), args...)
	args2[1] = 'z'
	if Crc8(args) == Crc8(args2) {
		t.Fatal("crc8 collision on single-byte change (possible but must not happen here)")
	}
}

// TestPacketSearchSmoke: higher-order finds all three packet bugs quickly
// and cleanly; sound concretization finds none.
func TestPacketSearchSmoke(t *testing.T) {
	w := Packet()
	ho := search.Run(concolic.New(w.Build(), concolic.ModeHigherOrder),
		search.Options{MaxRuns: 100, Seeds: w.Seeds, Bounds: w.Bounds})
	if got := len(ho.ErrorSitesFound()); got != 3 {
		t.Fatalf("higher-order found %d/3 packet bugs: %s", got, ho.Summary())
	}
	if ho.Divergences != 0 || ho.MultiStepChains == 0 {
		t.Fatalf("expected clean multi-step runs: %s", ho.Summary())
	}
	w2 := Packet()
	so := search.Run(concolic.New(w2.Build(), concolic.ModeSound),
		search.Options{MaxRuns: 100, Seeds: w2.Seeds, Bounds: w2.Bounds})
	if len(so.ErrorSitesFound()) != 0 {
		t.Fatalf("sound concretization should be blocked: %s", so.Summary())
	}
}
