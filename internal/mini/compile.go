package mini

import "fmt"

// Bytecode compiler: lowers a checked program to a compact stack-machine
// form (vm.go). The VM produces results identical to the concolic engine's
// tree walker — same stop kind, return value, error site, and branch trace —
// which the property tests assert on random programs; only step counts
// differ (the VM counts instructions, the walker counts AST visits).
// Concrete-execution-heavy components (the blackbox fuzzing baseline) run on
// the VM.

// Opcode enumerates VM instructions.
type Opcode uint8

// VM instruction set.
const (
	OpPush   Opcode = iota // push A (constant)
	OpLoad                 // push locals[A]
	OpStore                // locals[A] = pop
	OpALoad                // idx = pop; push arrays[A][idx]
	OpAStore               // val = pop; idx = pop; arrays[A][idx] = val
	OpNewArr               // arrays[A] = zeroed array of length B

	OpAdd // binary arithmetic: r = pop, l = pop, push l∘r
	OpSub
	OpMul
	OpDiv // faults on zero divisor
	OpMod
	OpNeg // unary

	OpEq // comparisons push 0/1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpNot // logical negation of 0/1

	OpJmp // unconditional jump to A
	OpBrF // c = pop; record event (B, c≠0); if c == 0 jump A  (if/while)
	OpAnd // c = pop; record event (B, c≠0); if c == 0 push 0 and jump A
	OpOr  // c = pop; record event (B, c≠0); if c ≠ 0 push 1 and jump A

	OpCall    // call function A with call-site descriptor B
	OpCallNat // call native A with B int args
	OpRet     // return pop
	OpRetVoid // return (void / fall-off)
	OpError   // error site A (message table index A)
	OpPop     // discard the top of stack
	OpCallPar // apply function value in fn slot A to B int args
)

var opNames = [...]string{
	"push", "load", "store", "aload", "astore", "newarr",
	"add", "sub", "mul", "div", "mod", "neg",
	"eq", "ne", "lt", "le", "gt", "ge", "not",
	"jmp", "brf", "and", "or",
	"call", "callnat", "ret", "retvoid", "error", "pop",
	"callpar",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one VM instruction. The operand meanings depend on the opcode.
type Instr struct {
	Op   Opcode
	A, B int64
}

// callSite describes how one call's arguments map into the callee frame:
// int arguments are evaluated onto the stack (popped in reverse); array and
// function arguments are bound by reference from caller slots.
type callSite struct {
	intArgs int   // how many int args are on the stack
	arrFrom []int // caller array slots, in parameter order of array params
	fnFrom  []int // caller fn slots, in parameter order of function params
}

// compiledFn is one lowered function.
type compiledFn struct {
	name     string
	code     []Instr
	numInts  int   // int-local slot count (params first)
	numArrs  int   // array-local slot count (array params first)
	numFns   int   // fn slot count (function params only — no fn locals)
	arrLens  []int // static length per array slot (0 when bound by reference)
	intParam []int // int-param slot order (for CALL frame setup)
	arrParam int   // number of array parameters
	hasRet   bool
}

// Compiled is a program lowered to bytecode.
type Compiled struct {
	prog   *Program
	fns    []compiledFn
	byName map[string]int
	sites  []callSite
	nats   []*Native
	natIx  map[string]int
}

// CompileVM lowers a checked program to bytecode.
func CompileVM(p *Program) *Compiled {
	c := &Compiled{prog: p, byName: make(map[string]int), natIx: make(map[string]int)}
	for _, name := range p.Order {
		c.byName[name] = len(c.fns)
		c.fns = append(c.fns, compiledFn{name: name})
	}
	for _, name := range p.Order {
		fc := &fnCompiler{c: c, fd: p.Funcs[name]}
		c.fns[c.byName[name]] = fc.compile()
	}
	return c
}

func (c *Compiled) natIndex(name string) int {
	if ix, ok := c.natIx[name]; ok {
		return ix
	}
	ix := len(c.nats)
	c.natIx[name] = ix
	c.nats = append(c.nats, c.prog.Natives[name])
	return ix
}

// fnCompiler lowers one function.
type fnCompiler struct {
	c  *Compiled
	fd *FuncDecl

	code    []Instr
	scopes  []map[string]varSlot
	numInts int
	numArrs int
	numFns  int
	arrLens []int
}

type varSlot struct {
	slot  int
	isArr bool
	isFn  bool
}

func (f *fnCompiler) compile() compiledFn {
	out := compiledFn{name: f.fd.Name, hasRet: f.fd.HasRet}
	f.push()
	for _, prm := range f.fd.Params {
		switch prm.Type.Kind {
		case TArray:
			f.declare(prm.Name, true, 0)
			out.arrParam++
		case TFunc:
			f.declareFn(prm.Name)
		default:
			s := f.declare(prm.Name, false, 0)
			out.intParam = append(out.intParam, s)
		}
	}
	f.block(f.fd.Body)
	f.emit(Instr{Op: OpRetVoid})
	out.code = f.code
	out.numInts = f.numInts
	out.numArrs = f.numArrs
	out.numFns = f.numFns
	out.arrLens = f.arrLens
	return out
}

func (f *fnCompiler) push() { f.scopes = append(f.scopes, map[string]varSlot{}) }
func (f *fnCompiler) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }
func (f *fnCompiler) emit(i Instr) int {
	f.code = append(f.code, i)
	return len(f.code) - 1
}

func (f *fnCompiler) declare(name string, isArr bool, arrLen int) int {
	var s int
	if isArr {
		s = f.numArrs
		f.numArrs++
		f.arrLens = append(f.arrLens, arrLen)
	} else {
		s = f.numInts
		f.numInts++
	}
	f.scopes[len(f.scopes)-1][name] = varSlot{slot: s, isArr: isArr}
	return s
}

// declareFn assigns a function-value slot; only parameters occupy them.
func (f *fnCompiler) declareFn(name string) int {
	s := f.numFns
	f.numFns++
	f.scopes[len(f.scopes)-1][name] = varSlot{slot: s, isFn: true}
	return s
}

func (f *fnCompiler) lookup(name string) varSlot {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if vs, ok := f.scopes[i][name]; ok {
			return vs
		}
	}
	panic("mini: compile: unresolved variable " + name) // checker guarantees
}

func (f *fnCompiler) block(b *Block) {
	f.push()
	for _, s := range b.Stmts {
		f.stmt(s)
	}
	f.pop()
}

func (f *fnCompiler) stmt(s Stmt) {
	switch st := s.(type) {
	case *VarDecl:
		f.expr(st.Init)
		slot := f.declare(st.Name, false, 0)
		f.emit(Instr{Op: OpStore, A: int64(slot)})
	case *ArrDecl:
		slot := f.declare(st.Name, true, st.Len)
		f.emit(Instr{Op: OpNewArr, A: int64(slot), B: int64(st.Len)})
	case *Assign:
		f.expr(st.Val)
		f.emit(Instr{Op: OpStore, A: int64(f.lookup(st.Name).slot)})
	case *IndexAssign:
		// Evaluation order matches the tree walker: index, then value.
		f.expr(st.Idx)
		f.expr(st.Val)
		f.emit(Instr{Op: OpAStore, A: int64(f.lookup(st.Name).slot)})
	case *If:
		f.expr(st.Cond)
		brf := f.emit(Instr{Op: OpBrF, B: int64(st.BranchID)})
		f.block(st.Then)
		if st.Else == nil {
			f.code[brf].A = int64(len(f.code))
			return
		}
		jmp := f.emit(Instr{Op: OpJmp})
		f.code[brf].A = int64(len(f.code))
		switch e := st.Else.(type) {
		case *Block:
			f.block(e)
		case *If:
			f.stmt(e)
		}
		f.code[jmp].A = int64(len(f.code))
	case *While:
		top := len(f.code)
		f.expr(st.Cond)
		brf := f.emit(Instr{Op: OpBrF, B: int64(st.BranchID)})
		f.block(st.Body)
		f.emit(Instr{Op: OpJmp, A: int64(top)})
		f.code[brf].A = int64(len(f.code))
	case *Return:
		if st.Val == nil {
			f.emit(Instr{Op: OpRetVoid})
			return
		}
		f.expr(st.Val)
		f.emit(Instr{Op: OpRet})
	case *ErrorStmt:
		f.emit(Instr{Op: OpError, A: int64(st.SiteID)})
	case *ExprStmt:
		call := st.X.(*Call)
		f.call(call)
		// Discard the return value: natives and int functions leave one
		// word; void user functions leave a zero for uniformity.
		f.emit(Instr{Op: OpPop})
	case *Block:
		f.block(st)
	}
}

func (f *fnCompiler) expr(e Expr) {
	switch x := e.(type) {
	case *IntLit:
		f.emit(Instr{Op: OpPush, A: x.V})
	case *BoolLit:
		v := int64(0)
		if x.V {
			v = 1
		}
		f.emit(Instr{Op: OpPush, A: v})
	case *Ident:
		f.emit(Instr{Op: OpLoad, A: int64(f.lookup(x.Name).slot)})
	case *Index:
		f.expr(x.Idx)
		f.emit(Instr{Op: OpALoad, A: int64(f.lookup(x.Name).slot)})
	case *Unary:
		f.expr(x.X)
		if x.Op == TokBang {
			f.emit(Instr{Op: OpNot})
		} else {
			f.emit(Instr{Op: OpNeg})
		}
	case *Binary:
		switch x.Op {
		case TokAndAnd:
			f.expr(x.X)
			and := f.emit(Instr{Op: OpAnd, B: int64(x.BranchID)})
			f.expr(x.Y)
			f.code[and].A = int64(len(f.code))
			return
		case TokOrOr:
			f.expr(x.X)
			or := f.emit(Instr{Op: OpOr, B: int64(x.BranchID)})
			f.expr(x.Y)
			f.code[or].A = int64(len(f.code))
			return
		}
		f.expr(x.X)
		f.expr(x.Y)
		var op Opcode
		switch x.Op {
		case TokPlus:
			op = OpAdd
		case TokMinus:
			op = OpSub
		case TokStar:
			op = OpMul
		case TokSlash:
			op = OpDiv
		case TokPercent:
			op = OpMod
		case TokEq:
			op = OpEq
		case TokNe:
			op = OpNe
		case TokLt:
			op = OpLt
		case TokLe:
			op = OpLe
		case TokGt:
			op = OpGt
		case TokGe:
			op = OpGe
		default:
			panic("mini: compile: bad binary op")
		}
		f.emit(Instr{Op: op})
	case *Call:
		f.call(x)
	}
}

func (f *fnCompiler) call(x *Call) {
	if x.Param {
		for _, a := range x.Args {
			f.expr(a)
		}
		f.emit(Instr{Op: OpCallPar, A: int64(f.lookup(x.Name).slot), B: int64(len(x.Args))})
		return
	}
	if x.Native {
		for _, a := range x.Args {
			f.expr(a)
		}
		f.emit(Instr{Op: OpCallNat, A: int64(f.c.natIndex(x.Name)), B: int64(len(x.Args))})
		return
	}
	site := callSite{}
	for i, a := range x.Args {
		switch x.Fn.Params[i].Type.Kind {
		case TArray:
			id := a.(*Ident)
			site.arrFrom = append(site.arrFrom, f.lookup(id.Name).slot)
			continue
		case TFunc:
			id := a.(*Ident)
			site.fnFrom = append(site.fnFrom, f.lookup(id.Name).slot)
			continue
		}
		f.expr(a)
		site.intArgs++
	}
	siteIx := len(f.c.sites)
	f.c.sites = append(f.c.sites, site)
	f.emit(Instr{Op: OpCall, A: int64(f.c.byName[x.Name]), B: int64(siteIx)})
}
