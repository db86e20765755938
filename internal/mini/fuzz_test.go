package mini

import (
	"testing"
)

// FuzzFunctionValueRoundTrip: any string ParseFuncValue accepts renders back
// to an identical string (parse∘format is the identity on canonical text),
// and the resulting table is well-formed: rows sorted, no duplicate argument
// tuples, every row at the declared arity. Eval on a parsed table must agree
// with the row the text names.
func FuzzFunctionValueRoundTrip(f *testing.F) {
	f.Add("fn/1{_->0}")
	f.Add("fn/0{_->-7}")
	f.Add("fn/1{(0)->1, (1)->1, _->0}")
	f.Add("fn/2{(-1,-2)->-2, (0,-2)->0, (0,-1)->-1, _->0}")
	f.Add("fn/2{(2,1)->3, (1,2)->3, _->0}") // non-canonical order: parses, re-sorts
	f.Add("fn/1{(9223372036854775807)->-9223372036854775808, _->0}")
	f.Add("fn/1{(1)->2, (1)->3, _->0}") // conflicting duplicate: must be rejected
	f.Fuzz(func(t *testing.T, s string) {
		fv, err := ParseFuncValue(s)
		if err != nil {
			return
		}
		text := fv.String()
		fv2, err := ParseFuncValue(text)
		if err != nil {
			t.Fatalf("rendered value failed to parse: %v\n%q", err, text)
		}
		if got := fv2.String(); got != text {
			t.Fatalf("format/parse/format not byte-stable: %q then %q (from %q)", text, got, s)
		}
		for i, row := range fv.Rows {
			if len(row.Args) != fv.Arity {
				t.Fatalf("row %d has %d args, arity is %d: %q", i, len(row.Args), fv.Arity, text)
			}
			if i > 0 && !argsLess(fv.Rows[i-1].Args, row.Args) {
				t.Fatalf("rows %d,%d out of canonical order: %q", i-1, i, text)
			}
			if got := fv.Eval(row.Args); got != row.Out {
				t.Fatalf("Eval(%v) = %d, table says %d: %q", row.Args, got, row.Out, text)
			}
		}
	})
}

// FuzzLexRoundTrip: the token stream of any accepted input reassembles into
// an equally lexable string.
func FuzzLexRoundTrip(f *testing.F) {
	f.Add("fn main ( x int ) { }")
	f.Add("== != <= >= && || ! - + * / %")
	f.Add(`"str" 123 ident`)
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatalf("missing EOF token in %q", src)
		}
		rejoined := ""
		for _, tok := range toks[:len(toks)-1] {
			rejoined += tok.String() + " "
		}
		toks2, err := Lex(rejoined)
		if err != nil {
			t.Fatalf("rejoined token text failed to lex: %v\n%q", err, rejoined)
		}
		if len(toks2) != len(toks) {
			t.Fatalf("token count changed: %d vs %d\n%q vs %q", len(toks), len(toks2), src, rejoined)
		}
		for i := range toks {
			if toks[i].Kind != toks2[i].Kind {
				t.Fatalf("token %d kind changed: %v vs %v", i, toks[i].Kind, toks2[i].Kind)
			}
		}
	})
}
