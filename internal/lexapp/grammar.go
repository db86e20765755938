package lexapp

import (
	"fmt"
	"strings"

	"hotg/internal/mini"
	"hotg/internal/smt"
)

// Grammar-based whitebox fuzzing (Godefroid, Kiezun, Levin, PLDI 2008 — [14]
// in the paper) is the alternative Section 7 discusses for getting past a
// hash-based lexer: (1) instrument the lexer so its return symbols become
// symbolic inputs, and (2) lift the input space from character strings to
// token sequences using a user-supplied grammar. This file implements that
// baseline: a token-level variant of the parser whose inputs are the token
// IDs directly, plus the "grammar" needed to unlift token sequences back to
// concrete input strings for end-to-end validation on the real lexer.
//
// The contrast drawn by the paper: this works, but "instrumenting a lexer
// this way can be problematic for complex lexers, and this approach requires
// a user-supplied input-grammar specification"; higher-order test generation
// only needs the name of the hash function.

// MaxTokens is the token-buffer length of the token-level parser.
const MaxTokens = 8

// tokenParserSource wraps the same parse() used by the lexer workloads, with
// the token stream as the direct program input — the "lexer bypassed" form.
func tokenParserSource() string {
	return fmt.Sprintf(`
// Token-level parser: inputs are token IDs (the lexer is bypassed).
fn parse(toks [8]int, n int) {
	if (n >= 2 && toks[0] == %d && toks[1] == %d) {
		error("parse-set-num");
	}
	if (n >= 5 && toks[0] == %d && toks[1] == %d && toks[2] == %d && toks[3] == %d && toks[4] == %d) {
		error("parse-if-block");
	}
	if (n >= 4 && toks[0] == %d && toks[1] == %d && toks[2] == %d && toks[3] == %d) {
		error("parse-while-loop");
	}
	if (n >= 2 && toks[0] == %d && toks[1] == %d) {
		error("parse-double-not");
	}
	if (n >= 3 && toks[0] == %d && toks[1] == %d && toks[2] == %d) {
		error("parse-let-binding");
	}
}

fn main(toks [8]int, n int) {
	if (n < 0 || n > 8) {
		return;
	}
	parse(toks, n);
}
`,
		TokKwSet, TokNum,
		TokKwIf, TokNum, TokKwSet, TokNum, TokKwEnd,
		TokKwWhile, TokNum, TokKwDo, TokKwEnd,
		TokKwNot, TokKwNot,
		TokKwLet, TokIdent, TokNum)
}

// TokenParser is the lexer-bypassed workload of the grammar-based approach.
// Its inputs are MaxTokens token IDs plus the token count.
func TokenParser() *Workload {
	// The grammar restricts the lifted input space to its own alphabet:
	// token IDs are contiguous (keywords 1..8, NUM 9, IDENT 10), so the
	// restriction is expressible as plain domain bounds.
	bounds := make([]smt.Bound, MaxTokens+1)
	seed := make([]int64, MaxTokens+1)
	for i := 0; i < MaxTokens; i++ {
		bounds[i] = smt.Bound{Lo: TokKwIf, Hi: TokIdent, HasLo: true, HasHi: true}
		seed[i] = TokIdent
	}
	bounds[MaxTokens] = smt.Bound{Lo: 0, Hi: MaxTokens, HasLo: true, HasHi: true}
	seed[MaxTokens] = 0
	return &Workload{
		Name:        "token-parser",
		Description: "grammar-based baseline: the parser with the lexer bypassed (token IDs as inputs)",
		Source:      tokenParserSource(),
		Natives:     mini.Natives{}, // no unknown functions remain
		Seeds:       [][]int64{seed},
		Bounds:      bounds,
	}
}

// TokenWord is the grammar production for one token ID: a concrete string
// the lexer maps back to that token. This table is the "user-supplied
// input-grammar specification" the grammar-based approach needs.
func TokenWord(tok int64) (string, bool) {
	for _, kw := range Keywords {
		if int64(kw.Tok) == tok {
			return kw.Word, true
		}
	}
	switch tok {
	case TokNum:
		return "1", true
	case TokIdent:
		return "a", true
	}
	return "", false
}

// UnliftTokens converts a token-level input back into a concrete input
// string via the grammar, or reports failure when some ID has no production
// or the string does not fit the lexer buffer.
func UnliftTokens(input []int64) (string, bool) {
	n := input[MaxTokens]
	if n < 0 || n > MaxTokens {
		return "", false
	}
	words := make([]string, 0, n)
	for i := int64(0); i < n; i++ {
		w, ok := TokenWord(input[i])
		if !ok {
			return "", false
		}
		words = append(words, w)
	}
	s := strings.Join(words, " ")
	if len(s) > LexerInputLen {
		return "", false
	}
	return s, true
}

// ValidateOnLexer replays an unlifted token-level bug against the real
// (hash-based) lexer program and reports whether it reproduces the same
// error site end-to-end.
func ValidateOnLexer(tokenInput []int64, wantMsg string) bool {
	s, ok := UnliftTokens(tokenInput)
	if !ok {
		return false
	}
	res := mini.RunVM(mini.CompileVM(Lexer().Build()), EncodeInput(s), mini.RunOptions{})
	return res.Kind == mini.StopError && res.ErrorMsg == wantMsg
}
