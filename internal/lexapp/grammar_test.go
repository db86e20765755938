package lexapp

import (
	"testing"

	"hotg/internal/mini"
)

func TestTokenParserBuilds(t *testing.T) {
	w := TokenParser()
	p := w.Build()
	sh := p.Shape()
	if len(sh.Names) != MaxTokens+1 {
		t.Fatalf("shape = %v", sh.Names)
	}
	if len(w.Seeds[0]) != MaxTokens+1 {
		t.Fatalf("seed = %v", w.Seeds[0])
	}
	res := runVM(p, w.Seeds[0])
	if res.Kind != mini.StopReturn {
		t.Fatalf("seed run: %+v", res)
	}
}

func TestTokenParserReachesBugs(t *testing.T) {
	p := TokenParser().Build()
	mk := func(toks ...int64) []int64 {
		in := make([]int64, MaxTokens+1)
		for i := range in[:MaxTokens] {
			in[i] = TokIdent
		}
		copy(in, toks)
		in[MaxTokens] = int64(len(toks))
		return in
	}
	cases := []struct {
		in   []int64
		want string
	}{
		{mk(TokKwSet, TokNum), "parse-set-num"},
		{mk(TokKwIf, TokNum, TokKwSet, TokNum, TokKwEnd), "parse-if-block"},
		{mk(TokKwWhile, TokNum, TokKwDo, TokKwEnd), "parse-while-loop"},
		{mk(TokKwNot, TokKwNot), "parse-double-not"},
		{mk(TokKwLet, TokIdent, TokNum), "parse-let-binding"},
	}
	for _, c := range cases {
		res := runVM(p, c.in)
		if res.Kind != mini.StopError || res.ErrorMsg != c.want {
			t.Fatalf("tokens %v: got %v %q, want %q", c.in, res.Kind, res.ErrorMsg, c.want)
		}
	}
	// A benign sequence parses cleanly.
	res := runVM(p, mk(TokKwDo, TokNum))
	if res.Kind != mini.StopReturn {
		t.Fatalf("benign: %+v", res)
	}
}

func TestTokenWordTotalOnAlphabet(t *testing.T) {
	for tok := int64(TokKwIf); tok <= TokIdent; tok++ {
		w, ok := TokenWord(tok)
		if !ok || w == "" {
			t.Fatalf("no production for token %d", tok)
		}
	}
	if _, ok := TokenWord(0); ok {
		t.Fatal("token 0 must have no production")
	}
	if _, ok := TokenWord(99); ok {
		t.Fatal("token 99 must have no production")
	}
}

func TestUnliftTokens(t *testing.T) {
	in := make([]int64, MaxTokens+1)
	in[0], in[1], in[2] = TokKwSet, TokNum, TokIdent
	in[MaxTokens] = 2
	s, ok := UnliftTokens(in)
	if !ok || s != "set 1" {
		t.Fatalf("unlift = %q %v", s, ok)
	}
	// Count out of range.
	in[MaxTokens] = 99
	if _, ok := UnliftTokens(in); ok {
		t.Fatal("bad count must fail")
	}
	// Unknown symbol inside the counted region.
	in[MaxTokens] = 2
	in[1] = 0
	if _, ok := UnliftTokens(in); ok {
		t.Fatal("unknown token must fail")
	}
	// Too long for the lexer buffer: 8 × "while".
	for i := 0; i < MaxTokens; i++ {
		in[i] = TokKwWhile
	}
	in[MaxTokens] = MaxTokens
	if _, ok := UnliftTokens(in); ok {
		t.Fatal("overlong unlift must fail")
	}
}

// TestUnliftRoundTrip: every grammar production re-lexes to its own token.
func TestUnliftRoundTrip(t *testing.T) {
	for tok := int64(TokKwIf); tok <= TokIdent; tok++ {
		in := make([]int64, MaxTokens+1)
		in[0] = tok
		in[MaxTokens] = 1
		s, ok := UnliftTokens(in)
		if !ok {
			t.Fatalf("unlift token %d failed", tok)
		}
		// The real lexer must classify the word back to the same token; we
		// check via the full-pipeline validator on a token-level bug that
		// the word participates in only for representative cases below.
		_ = s
	}
	// End-to-end validation for one representative of each command form.
	mk := func(toks ...int64) []int64 {
		in := make([]int64, MaxTokens+1)
		copy(in, toks)
		in[MaxTokens] = int64(len(toks))
		return in
	}
	if !ValidateOnLexer(mk(TokKwSet, TokNum), "parse-set-num") {
		t.Fatal("set-num does not validate end-to-end")
	}
	if !ValidateOnLexer(mk(TokKwWhile, TokNum, TokKwDo, TokKwEnd), "parse-while-loop") {
		t.Fatal("while-loop does not validate end-to-end")
	}
	if ValidateOnLexer(mk(TokKwSet, TokNum), "parse-while-loop") {
		t.Fatal("validator must check the error site")
	}
}
