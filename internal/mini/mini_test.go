package mini

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func stdNatives() Natives {
	ns := Natives{}
	ns.Register("hash", 1, func(a []int64) int64 { return (a[0]*a[0]*7 + 13) % 1000 })
	return ns
}

func mustProg(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Check(p, stdNatives()); err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`fn main(x int) { if (x == 42) { error("hit"); } } // done`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokFn, TokIdent, TokLParen, TokIdent, TokIntType, TokRParen,
		TokLBrace, TokIf, TokLParen, TokIdent, TokEq, TokInt, TokRParen, TokLBrace,
		TokError, TokLParen, TokString, TokRParen, TokSemi, TokRBrace, TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexPositionsAndErrors(t *testing.T) {
	toks, err := Lex("fn\nmain")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 1 {
		t.Fatalf("pos = %v", toks[1].Pos)
	}
	if _, err := Lex("@"); err == nil {
		t.Fatal("expected error for @")
	}
	if _, err := Lex(`"unterminated`); err == nil {
		t.Fatal("expected error for unterminated string")
	}
	if _, err := Lex(`"bad \q escape"`); err == nil {
		t.Fatal("expected error for bad escape")
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex(`"a\n\t\"\\"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\n\t\"\\" {
		t.Fatalf("text = %q", toks[0].Text)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                               // no main
		`fn f() {}`,                      // no main
		`fn main( {}`,                    // bad params
		`fn main() { var x = ; }`,        // bad expr
		`fn main() { if x { } }`,         // missing parens
		`fn main() { x = 1 }`,            // missing semicolon
		`fn main() {`,                    // unterminated
		`fn main() {} fn main() {}`,      // duplicate
		`fn main(a [0]int) {}`,           // zero-length array
		`fn main() { var a [70000]; }`,   // oversize array
		`fn main() { 1 + 2; }`,           // non-call statement
		`fn main() { var a [3]; a[0]; }`, // index without assignment
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	bad := []struct{ src, want string }{
		{`fn main() { x = 1; }`, "undefined"},
		{`fn main() { var x = 1; var x = 2; }`, "redeclared"},
		{`fn main() { var x = true + 1; }`, "bool"},
		{`fn main() { if (1) {} }`, "must be bool"},
		{`fn main() { while (2) {} }`, "must be bool"},
		{`fn main() { var x = hash(1, 2); }`, "expects 1 arguments"},
		{`fn main() { var x = nosuch(1); }`, "undefined function"},
		{`fn main() { var a [3]; var x = a; }`, "without an index"},
		{`fn main() { var x = 1; x[0] = 2; }`, "not an array"},
		{`fn main() { var a [3]; a[true] = 1; }`, "index must be int"},
		{`fn f() {} fn main() { var x = f(); }`, "no return value"},
		{`fn f() int { return 1; } fn main() { var x = f(1); }`, "expects 0 arguments"},
		{`fn main() int { return; }`, "must return int"},
		{`fn main() { return 1; }`, "no return value"},
		{`fn f(a [4]int) {} fn main() { var a [3]; f(a); }`, "array length 3, want 4"},
		{`fn f(a [4]int) {} fn main() { f(1); }`, "must be an array"},
		{`fn main() { var hash = 1; }`, "conflicts with a native"},
		{`fn f() {} fn main() { var f = 1; }`, "conflicts with a function"},
		{`fn main() { var x = true < false; }`, "compares ints"},
		{`fn main() { var x = 1 && 2; }`, "needs bool"},
		{`fn main() { var x = !3; }`, "needs bool"},
		{`fn main() { var x = -true; }`, "needs int"},
	}
	for _, c := range bad {
		p, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q) failed at parse time: %v", c.src, err)
			continue
		}
		err = Check(p, stdNatives())
		if err == nil {
			t.Errorf("Check(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Check(%q) error %q does not mention %q", c.src, err, c.want)
		}
	}
}

func TestCheckAssignsIDs(t *testing.T) {
	p := mustProg(t, `
fn main(x int) {
	if (x > 0) {
		error("a");
	} else {
		if (x < -5) { error("b"); }
	}
	while (x > 0) { x = x - 1; }
}`)
	if p.NumBranches != 3 {
		t.Fatalf("NumBranches = %d, want 3", p.NumBranches)
	}
	if len(p.ErrorSites) != 2 || p.ErrorSites[0] != "a" || p.ErrorSites[1] != "b" {
		t.Fatalf("ErrorSites = %v", p.ErrorSites)
	}
}

// TestCheckAssignsSlots pins the frame layout Check computes: parameters
// first, then each declaration in the next free slot of its block, with a
// later sibling block reusing the slots of an earlier one.
func TestCheckAssignsSlots(t *testing.T) {
	p := mustProg(t, `
fn get(buf [3]int, k int) int {
	return buf[k];
}
fn main(a int, f fn(int) int) int {
	var r = 0;
	if (a > 0) {
		var x = a + 1;
		var y = x;
		r = f(y);
	} else {
		var x [3];
		x[2] = a;
		r = get(x, 2);
	}
	while (r < 10) {
		var chunk [6];
		chunk[0] = r;
		r = r + chunk[0] + 1;
	}
	return r;
}`)
	if got := p.Funcs["get"].FrameSize; got != 2 {
		t.Errorf("get: FrameSize = %d, want 2", got)
	}
	main := p.Funcs["main"]
	if main.FrameSize != 5 {
		t.Errorf("main: FrameSize = %d, want 5", main.FrameSize)
	}
	body := main.Body.Stmts
	if s := body[0].(*VarDecl).Slot; s != 2 {
		t.Errorf("r: slot %d, want 2", s)
	}
	iff := body[1].(*If)
	then, els := iff.Then.Stmts, iff.Else.(*Block).Stmts
	if x, y := then[0].(*VarDecl), then[1].(*VarDecl); x.Slot != 3 || y.Slot != 4 || y.Init.(*Ident).Slot != 3 {
		t.Errorf("then block: x slot %d, y slot %d reading slot %d; want 3, 4 reading 3", x.Slot, y.Slot, y.Init.(*Ident).Slot)
	}
	call := then[2].(*Assign).Val.(*Call)
	if !call.Param || call.Slot != 1 || call.Args[0].(*Ident).Slot != 4 {
		t.Errorf("f(y): param %v slot %d, argument slot %d; want true, 1, 4", call.Param, call.Slot, call.Args[0].(*Ident).Slot)
	}
	if x := els[0].(*ArrDecl); x.Slot != 3 {
		t.Errorf("else block: array x slot %d, want 3 (reused)", x.Slot)
	}
	if st := els[1].(*IndexAssign); st.Slot != 3 || st.Val.(*Ident).Slot != 0 {
		t.Errorf("x[2] = a: slots %d and %d, want 3 and 0", st.Slot, st.Val.(*Ident).Slot)
	}
	get := els[2].(*Assign)
	if get.Slot != 2 || get.Val.(*Call).Args[0].(*Ident).Slot != 3 {
		t.Errorf("r = get(x, 2): slots %d and %d, want 2 and 3", get.Slot, get.Val.(*Call).Args[0].(*Ident).Slot)
	}
	loop := body[2].(*While).Body.Stmts
	if c := loop[0].(*ArrDecl); c.Slot != 3 {
		t.Errorf("chunk: slot %d, want 3", c.Slot)
	}
	read := loop[2].(*Assign).Val.(*Binary).X.(*Binary).Y.(*Index)
	if read.Slot != 3 {
		t.Errorf("chunk[0]: slot %d, want 3", read.Slot)
	}
}

func TestShape(t *testing.T) {
	p := mustProg(t, `fn main(x int, s [3]int, y int) {}`)
	sh := p.Shape()
	want := []string{"x", "s[0]", "s[1]", "s[2]", "y"}
	if len(sh.Names) != len(want) {
		t.Fatalf("shape = %v", sh.Names)
	}
	for i := range want {
		if sh.Names[i] != want[i] {
			t.Fatalf("shape[%d] = %s, want %s", i, sh.Names[i], want[i])
		}
	}
	if sh.ParamOf[2] != 1 || sh.ParamOf[4] != 2 {
		t.Fatalf("ParamOf = %v", sh.ParamOf)
	}
}

func TestFormatExpr(t *testing.T) {
	p := mustProg(t, `fn main(x int) { if (x + 1 == hash(x) * 2) { error("e"); } }`)
	ifStmt := p.Main().Body.Stmts[0].(*If)
	got := FormatExpr(ifStmt.Cond)
	if got != "((x + 1) == (hash(x) * 2))" {
		t.Fatalf("FormatExpr = %q", got)
	}
}

func TestMustParseAndCheckPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad source")
		}
	}()
	MustParse("not a program")
}

// TestGenProgramFuncParamsDeterministic pins the higher-order generator: a
// fixed seed yields byte-identical source on every call, the program
// typechecks against the standard natives, main carries exactly the requested
// function-typed parameters, and the generated body actually calls through at
// least one of them (so downstream property tests never silently degenerate
// to first-order programs).
func TestGenProgramFuncParamsDeterministic(t *testing.T) {
	cfg := GenConfig{Natives: []string{"hash"}, NumHelpers: 1, NumInputs: 2, FuncParams: 2}
	called := 0
	for seed := int64(1); seed <= 25; seed++ {
		a := GenProgram(rand.New(rand.NewSource(seed)), cfg)
		b := GenProgram(rand.New(rand.NewSource(seed)), cfg)
		if a != b {
			t.Fatalf("seed %d: generator not deterministic:\n%s\n---\n%s", seed, a, b)
		}
		prog := MustCheck(MustParse(a), stdNatives())
		shape := prog.FuncShape()
		if len(shape) != cfg.FuncParams {
			t.Fatalf("seed %d: %d function params, want %d\n%s", seed, len(shape), cfg.FuncParams, a)
		}
		for i, fp := range shape {
			if want := fmt.Sprintf("f%d", i); fp.Name != want || fp.Arity != 1 {
				t.Fatalf("seed %d: param %d is %s/%d, want %s/1", seed, i, fp.Name, fp.Arity, want)
			}
		}
		if strings.Contains(a, "f0(") || strings.Contains(a, "f1(") {
			called++
		}
	}
	if called < 12 {
		t.Fatalf("only %d/25 seeds call a function parameter; generator grammar regressed", called)
	}
}
