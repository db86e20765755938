package mini

import (
	"fmt"
	"strings"
)

// TypeKind discriminates mini types.
type TypeKind int

// Type kinds.
const (
	TInt TypeKind = iota
	TBool
	TArray // fixed-length int array
	TFunc  // function value: fn(int,...) int, callable only
)

// Type is a mini type. Arrays are always arrays of int with a fixed length.
// Function types reuse Len as the arity, which keeps Type comparable (the
// format round-trip tests compare Params with ==).
type Type struct {
	Kind TypeKind
	Len  int // for TArray: length; for TFunc: arity
}

func (t Type) String() string {
	switch t.Kind {
	case TInt:
		return "int"
	case TBool:
		return "bool"
	case TArray:
		return fmt.Sprintf("[%d]int", t.Len)
	case TFunc:
		args := make([]string, t.Len)
		for i := range args {
			args[i] = "int"
		}
		return fmt.Sprintf("fn(%s) int", strings.Join(args, ", "))
	}
	return "?"
}

// Expr is an expression node.
type Expr interface {
	Pos() Pos
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	P Pos
	V int64
}

// BoolLit is true or false.
type BoolLit struct {
	P Pos
	V bool
}

// Ident is a variable reference. Slot is the variable's index in its
// function's frame, assigned by Check (see FuncDecl.FrameSize).
type Ident struct {
	P    Pos
	Name string
	Slot int
}

// Unary is !x or -x.
type Unary struct {
	P  Pos
	Op TokKind
	X  Expr
}

// Binary is a binary operation. For the short-circuit operators && and ||,
// BranchID identifies the implicit branch point that decides whether the
// right operand is evaluated — exactly the conditional jump such operators
// compile to, which is the granularity at which binary-level concolic
// executors like SAGE observe branching.
type Binary struct {
	P        Pos
	Op       TokKind
	X, Y     Expr
	BranchID int
}

// Call is a function call. The checker resolves it to either a user function
// (Fn != nil), a native (Native true), or a call through a function-typed
// parameter (Param true) — a first-class callback input of the program.
type Call struct {
	P      Pos
	Name   string
	Args   []Expr
	Fn     *FuncDecl // user-defined callee, or nil
	Native bool
	Param  bool
	Slot   int // frame slot of the function-typed parameter, when Param
}

// Index is an array element read a[i].
type Index struct {
	P    Pos
	Name string
	Idx  Expr
	Slot int
}

// Pos implements Expr.
func (e *IntLit) Pos() Pos  { return e.P }
func (e *BoolLit) Pos() Pos { return e.P }
func (e *Ident) Pos() Pos   { return e.P }
func (e *Unary) Pos() Pos   { return e.P }
func (e *Binary) Pos() Pos  { return e.P }
func (e *Call) Pos() Pos    { return e.P }
func (e *Index) Pos() Pos   { return e.P }

func (*IntLit) exprNode()  {}
func (*BoolLit) exprNode() {}
func (*Ident) exprNode()   {}
func (*Unary) exprNode()   {}
func (*Binary) exprNode()  {}
func (*Call) exprNode()    {}
func (*Index) exprNode()   {}

// Stmt is a statement node.
type Stmt interface {
	Pos() Pos
	stmtNode()
}

// VarDecl declares and initializes a scalar: var x = e;
type VarDecl struct {
	P    Pos
	Name string
	Init Expr
	Slot int
}

// ArrDecl declares a zero-initialized array: var a [8];
type ArrDecl struct {
	P    Pos
	Name string
	Len  int
	Slot int
}

// Assign is x = e;
type Assign struct {
	P    Pos
	Name string
	Val  Expr
	Slot int
}

// IndexAssign is a[i] = e;
type IndexAssign struct {
	P    Pos
	Name string
	Idx  Expr
	Val  Expr
	Slot int
}

// If is a conditional; Else is nil, *Block, or *If (else-if chain).
// BranchID identifies this static branch point; it is assigned by Check.
type If struct {
	P        Pos
	Cond     Expr
	Then     *Block
	Else     Stmt
	BranchID int
}

// While is a loop. Its condition is a branch point like an if condition.
type While struct {
	P        Pos
	Cond     Expr
	Body     *Block
	BranchID int
}

// Return exits the current function; Val may be nil in void functions.
type Return struct {
	P   Pos
	Val Expr
}

// ErrorStmt marks a reachable bug, the analogue of the paper's
// "return -1; // error" sites. SiteID is assigned by Check.
type ErrorStmt struct {
	P      Pos
	Msg    string
	SiteID int
}

// ExprStmt evaluates an expression for effect (a call).
type ExprStmt struct {
	P Pos
	X Expr
}

// Block is a brace-delimited statement list.
type Block struct {
	P     Pos
	Stmts []Stmt
}

// Pos implements Stmt.
func (s *VarDecl) Pos() Pos     { return s.P }
func (s *ArrDecl) Pos() Pos     { return s.P }
func (s *Assign) Pos() Pos      { return s.P }
func (s *IndexAssign) Pos() Pos { return s.P }
func (s *If) Pos() Pos          { return s.P }
func (s *While) Pos() Pos       { return s.P }
func (s *Return) Pos() Pos      { return s.P }
func (s *ErrorStmt) Pos() Pos   { return s.P }
func (s *ExprStmt) Pos() Pos    { return s.P }
func (s *Block) Pos() Pos       { return s.P }

func (*VarDecl) stmtNode()     {}
func (*ArrDecl) stmtNode()     {}
func (*Assign) stmtNode()      {}
func (*IndexAssign) stmtNode() {}
func (*If) stmtNode()          {}
func (*While) stmtNode()       {}
func (*Return) stmtNode()      {}
func (*ErrorStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()    {}
func (*Block) stmtNode()       {}

// Param is a formal parameter.
type Param struct {
	Name string
	Type Type
}

// FuncDecl is a function definition. HasRet reports whether the function is
// declared to return an int (the only return type).
//
// FrameSize is the number of variable slots one activation needs, assigned by
// Check: parameters take slots 0..len(Params)-1 and every declaration in the
// body gets the next free slot of its block. A slot is reused only by a
// declaration in a later sibling block, after the first one's scope has
// ended (shadowing is rejected, so a name in scope has exactly one slot).
type FuncDecl struct {
	P         Pos
	Name      string
	Params    []Param
	HasRet    bool
	Body      *Block
	FrameSize int
}

// Program is a checked mini program.
type Program struct {
	Funcs map[string]*FuncDecl
	Order []string // declaration order, for deterministic iteration

	// Filled in by Check:
	NumBranches int      // number of static branch points (if/while conditions)
	ErrorSites  []string // SiteID → message
	Natives     Natives  // the registry the program was checked against
}

// Main returns the entry function.
func (p *Program) Main() *FuncDecl { return p.Funcs["main"] }

// InputShape describes the flattened input vector of a program: one entry per
// scalar input parameter and one per array element, in declaration order.
type InputShape struct {
	Names []string // e.g. "x", "s[0]", "s[1]"
	// ParamOf[i] is the index of the parameter that flat input i belongs to.
	ParamOf []int
}

// Shape computes the input shape of the program's main function.
// Function-typed parameters contribute no scalar slots: they are carried
// separately as FuncValue inputs (see FuncShape).
func (p *Program) Shape() InputShape {
	var sh InputShape
	m := p.Main()
	for pi, prm := range m.Params {
		switch prm.Type.Kind {
		case TArray:
			for i := 0; i < prm.Type.Len; i++ {
				sh.Names = append(sh.Names, fmt.Sprintf("%s[%d]", prm.Name, i))
				sh.ParamOf = append(sh.ParamOf, pi)
			}
		case TFunc:
			// no scalar slots
		default:
			sh.Names = append(sh.Names, prm.Name)
			sh.ParamOf = append(sh.ParamOf, pi)
		}
	}
	return sh
}

// FuncParam describes one function-typed parameter of main.
type FuncParam struct {
	Name  string
	Arity int
}

// FuncShape lists main's function-typed parameters in declaration order. A
// program's full input is the flat scalar vector of Shape plus one FuncValue
// per FuncShape entry.
func (p *Program) FuncShape() []FuncParam {
	var out []FuncParam
	for _, prm := range p.Main().Params {
		if prm.Type.Kind == TFunc {
			out = append(out, FuncParam{Name: prm.Name, Arity: prm.Type.Len})
		}
	}
	return out
}

// Native is a host-provided function opaque to symbolic execution — the
// paper's "unknown function". It must be deterministic (Theorem 3).
type Native struct {
	Name  string
	Arity int
	Fn    func(args []int64) int64
}

// Natives is a registry of native functions by name.
type Natives map[string]*Native

// Register adds a native function.
func (ns Natives) Register(name string, arity int, fn func([]int64) int64) {
	ns[name] = &Native{Name: name, Arity: arity, Fn: fn}
}

func opString(op TokKind) string { return op.String() }

// FormatExpr renders an expression as source text (for diagnostics).
func FormatExpr(e Expr) string {
	switch x := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", x.V)
	case *BoolLit:
		return fmt.Sprintf("%v", x.V)
	case *Ident:
		return x.Name
	case *Unary:
		return opString(x.Op) + FormatExpr(x.X)
	case *Binary:
		return fmt.Sprintf("(%s %s %s)", FormatExpr(x.X), opString(x.Op), FormatExpr(x.Y))
	case *Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = FormatExpr(a)
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(args, ", "))
	case *Index:
		return fmt.Sprintf("%s[%s]", x.Name, FormatExpr(x.Idx))
	}
	return "?"
}
