// Package mini implements the small imperative language in which all
// programs under test are written: a lexer, recursive-descent parser, static
// checker, and a bytecode compiler and VM for concrete execution. The
// language's one tree-walking evaluator is the concolic engine's
// (internal/concolic), which the VM is property-tested against.
//
// The language is deliberately close to the command language of the paper
// (assignments, conditionals, loops, calls) plus fixed-length integer arrays
// so that byte-string inputs — as needed by the Section 7 lexer application —
// can be modeled. "Unknown functions" (hash, crypto, CRC, OS calls...) are
// native Go callbacks registered with the program; their code is opaque
// to symbolic execution, exactly like library calls in the paper.
//
// Example program:
//
//	fn main(x int, y int) {
//	    if (x == hash(y)) {
//	        error("reached");
//	    }
//	}
package mini

import "fmt"

// TokKind enumerates token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokString

	TokFn
	TokVar
	TokIf
	TokElse
	TokWhile
	TokReturn
	TokError
	TokTrue
	TokFalse
	TokIntType
	TokBoolType

	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBrack
	TokRBrack
	TokComma
	TokSemi

	TokAssign // =
	TokEq     // ==
	TokNe     // !=
	TokLt
	TokLe
	TokGt
	TokGe
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokAndAnd
	TokOrOr
	TokBang
)

var tokNames = map[TokKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokInt: "integer", TokString: "string",
	TokFn: "fn", TokVar: "var", TokIf: "if", TokElse: "else", TokWhile: "while",
	TokReturn: "return", TokError: "error", TokTrue: "true", TokFalse: "false",
	TokIntType: "int", TokBoolType: "bool",
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBrack: "[", TokRBrack: "]", TokComma: ",", TokSemi: ";",
	TokAssign: "=", TokEq: "==", TokNe: "!=", TokLt: "<", TokLe: "<=",
	TokGt: ">", TokGe: ">=", TokPlus: "+", TokMinus: "-", TokStar: "*",
	TokSlash: "/", TokPercent: "%", TokAndAnd: "&&", TokOrOr: "||", TokBang: "!",
}

func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Pos  Pos
	Text string // identifier name, string literal contents
	Int  int64  // integer literal value
}

func (t Token) String() string {
	switch t.Kind {
	case TokIdent:
		return t.Text
	case TokInt:
		return fmt.Sprintf("%d", t.Int)
	case TokString:
		return QuoteString(t.Text)
	}
	return t.Kind.String()
}

// QuoteString renders s as a mini string literal. Mini strings hold raw
// bytes; only the four escapes the lexer understands are emitted, so
// Lex(QuoteString(s)) always yields s back (unlike Go's %q, whose \xNN
// escapes mini does not parse).
func QuoteString(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			out = append(out, '\\', '"')
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		case '\t':
			out = append(out, '\\', 't')
		default:
			out = append(out, c)
		}
	}
	return string(append(out, '"'))
}

// SyntaxError is a lexing, parsing, or checking error with a position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
