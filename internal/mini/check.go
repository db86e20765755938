package mini

// Check resolves names, type-checks the program against the given native
// registry, and assigns stable IDs to branch points (if/while conditions) and
// error sites. It resolves every variable reference to its frame slot (see
// FuncDecl.FrameSize). It must be called once before interpretation or
// symbolic execution. Check mutates the AST in place.
func Check(prog *Program, natives Natives) error {
	c := &checker{prog: prog, natives: natives}
	prog.Natives = natives
	for _, name := range prog.Order {
		if err := c.checkFunc(prog.Funcs[name]); err != nil {
			return err
		}
	}
	prog.NumBranches = c.nextBranch
	prog.ErrorSites = c.errorSites
	return nil
}

// MustCheck panics on a check error; for embedded workload sources.
func MustCheck(prog *Program, natives Natives) *Program {
	if err := Check(prog, natives); err != nil {
		panic("mini.MustCheck: " + err.Error())
	}
	return prog
}

type checker struct {
	prog    *Program
	natives Natives

	nextBranch int
	errorSites []string

	scopes []map[string]binding
	fn     *FuncDecl
	// nextSlot is the first free frame slot of the current function;
	// FuncDecl.FrameSize collects its high-water mark.
	nextSlot int
}

// binding is a variable in scope: its type and its frame slot.
type binding struct {
	t    Type
	slot int
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]binding{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

// declare binds name in the innermost scope to the next free frame slot and
// returns that slot.
func (c *checker) declare(pos Pos, name string, t Type) (int, error) {
	for _, sc := range c.scopes {
		if _, ok := sc[name]; ok {
			return 0, errf(pos, "%s redeclared (shadowing is not allowed)", name)
		}
	}
	if _, ok := c.prog.Funcs[name]; ok {
		return 0, errf(pos, "%s conflicts with a function name", name)
	}
	if _, ok := c.natives[name]; ok {
		return 0, errf(pos, "%s conflicts with a native function name", name)
	}
	slot := c.nextSlot
	c.nextSlot++
	c.fn.FrameSize = max(c.fn.FrameSize, c.nextSlot)
	c.scopes[len(c.scopes)-1][name] = binding{t: t, slot: slot}
	return slot, nil
}

func (c *checker) lookup(name string) (binding, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if b, ok := c.scopes[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

func (c *checker) checkFunc(fd *FuncDecl) error {
	c.fn = fd
	c.scopes = nil
	c.nextSlot = 0
	fd.FrameSize = 0
	c.push()
	for _, prm := range fd.Params {
		if _, err := c.declare(fd.P, prm.Name, prm.Type); err != nil {
			return err
		}
	}
	return c.checkBlock(fd.Body)
}

// checkBlock checks a block in a scope of its own. The block's declarations
// take slots above those of the enclosing scopes and free them at its end,
// so a later sibling block reuses them.
func (c *checker) checkBlock(b *Block) error {
	c.push()
	mark := c.nextSlot
	defer func() {
		c.pop()
		c.nextSlot = mark
	}()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *VarDecl:
		t, err := c.checkExpr(st.Init)
		if err != nil {
			return err
		}
		if t.Kind == TArray {
			return errf(st.P, "cannot assign an array value")
		}
		st.Slot, err = c.declare(st.P, st.Name, t)
		return err

	case *ArrDecl:
		var err error
		st.Slot, err = c.declare(st.P, st.Name, Type{Kind: TArray, Len: st.Len})
		return err

	case *Assign:
		vb, ok := c.lookup(st.Name)
		if !ok {
			return errf(st.P, "undefined variable %s", st.Name)
		}
		vt := vb.t
		st.Slot = vb.slot
		if vt.Kind == TArray {
			return errf(st.P, "cannot assign to array %s without an index", st.Name)
		}
		if vt.Kind == TFunc {
			return errf(st.P, "cannot assign to function parameter %s", st.Name)
		}
		et, err := c.checkExpr(st.Val)
		if err != nil {
			return err
		}
		if et.Kind != vt.Kind {
			return errf(st.P, "assigning %s to %s variable %s", et, vt, st.Name)
		}
		return nil

	case *IndexAssign:
		vb, ok := c.lookup(st.Name)
		if !ok {
			return errf(st.P, "undefined variable %s", st.Name)
		}
		if vb.t.Kind != TArray {
			return errf(st.P, "%s is not an array", st.Name)
		}
		st.Slot = vb.slot
		it, err := c.checkExpr(st.Idx)
		if err != nil {
			return err
		}
		if it.Kind != TInt {
			return errf(st.P, "array index must be int, got %s", it)
		}
		et, err := c.checkExpr(st.Val)
		if err != nil {
			return err
		}
		if et.Kind != TInt {
			return errf(st.P, "array element must be int, got %s", et)
		}
		return nil

	case *If:
		ct, err := c.checkExpr(st.Cond)
		if err != nil {
			return err
		}
		if ct.Kind != TBool {
			return errf(st.P, "if condition must be bool, got %s", ct)
		}
		st.BranchID = c.nextBranch
		c.nextBranch++
		if err := c.checkBlock(st.Then); err != nil {
			return err
		}
		switch e := st.Else.(type) {
		case nil:
			return nil
		case *Block:
			return c.checkBlock(e)
		case *If:
			return c.checkStmt(e)
		default:
			return errf(st.P, "bad else branch")
		}

	case *While:
		ct, err := c.checkExpr(st.Cond)
		if err != nil {
			return err
		}
		if ct.Kind != TBool {
			return errf(st.P, "while condition must be bool, got %s", ct)
		}
		st.BranchID = c.nextBranch
		c.nextBranch++
		return c.checkBlock(st.Body)

	case *Return:
		if c.fn.HasRet {
			if st.Val == nil {
				return errf(st.P, "function %s must return int", c.fn.Name)
			}
			t, err := c.checkExpr(st.Val)
			if err != nil {
				return err
			}
			if t.Kind != TInt {
				return errf(st.P, "function %s returns int, got %s", c.fn.Name, t)
			}
			return nil
		}
		if st.Val != nil {
			return errf(st.P, "function %s has no return value", c.fn.Name)
		}
		return nil

	case *ErrorStmt:
		st.SiteID = len(c.errorSites)
		c.errorSites = append(c.errorSites, st.Msg)
		return nil

	case *ExprStmt:
		call, ok := st.X.(*Call)
		if !ok {
			return errf(st.P, "only calls may be used as statements")
		}
		_, err := c.checkCall(call, true)
		return err

	case *Block:
		return c.checkBlock(st)
	}
	return errf(s.Pos(), "unhandled statement")
}

func (c *checker) checkExpr(e Expr) (Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return Type{Kind: TInt}, nil
	case *BoolLit:
		return Type{Kind: TBool}, nil
	case *Ident:
		b, ok := c.lookup(x.Name)
		if !ok {
			return Type{}, errf(x.P, "undefined variable %s", x.Name)
		}
		t := b.t
		x.Slot = b.slot
		if t.Kind == TArray {
			return Type{}, errf(x.P, "array %s used without an index", x.Name)
		}
		if t.Kind == TFunc {
			return Type{}, errf(x.P, "function %s used without a call", x.Name)
		}
		return t, nil
	case *Index:
		b, ok := c.lookup(x.Name)
		if !ok {
			return Type{}, errf(x.P, "undefined variable %s", x.Name)
		}
		if b.t.Kind != TArray {
			return Type{}, errf(x.P, "%s is not an array", x.Name)
		}
		x.Slot = b.slot
		it, err := c.checkExpr(x.Idx)
		if err != nil {
			return Type{}, err
		}
		if it.Kind != TInt {
			return Type{}, errf(x.P, "array index must be int, got %s", it)
		}
		return Type{Kind: TInt}, nil
	case *Unary:
		t, err := c.checkExpr(x.X)
		if err != nil {
			return Type{}, err
		}
		switch x.Op {
		case TokBang:
			if t.Kind != TBool {
				return Type{}, errf(x.P, "! needs bool, got %s", t)
			}
			return Type{Kind: TBool}, nil
		case TokMinus:
			if t.Kind != TInt {
				return Type{}, errf(x.P, "unary - needs int, got %s", t)
			}
			return Type{Kind: TInt}, nil
		}
		return Type{}, errf(x.P, "bad unary operator %s", x.Op)
	case *Binary:
		lt, err := c.checkExpr(x.X)
		if err != nil {
			return Type{}, err
		}
		rt, err := c.checkExpr(x.Y)
		if err != nil {
			return Type{}, err
		}
		switch x.Op {
		case TokPlus, TokMinus, TokStar, TokSlash, TokPercent:
			if lt.Kind != TInt || rt.Kind != TInt {
				return Type{}, errf(x.P, "%s needs int operands, got %s and %s", x.Op, lt, rt)
			}
			return Type{Kind: TInt}, nil
		case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
			if lt.Kind != TInt || rt.Kind != TInt {
				return Type{}, errf(x.P, "%s compares ints, got %s and %s", x.Op, lt, rt)
			}
			return Type{Kind: TBool}, nil
		case TokAndAnd, TokOrOr:
			if lt.Kind != TBool || rt.Kind != TBool {
				return Type{}, errf(x.P, "%s needs bool operands, got %s and %s", x.Op, lt, rt)
			}
			x.BranchID = c.nextBranch
			c.nextBranch++
			return Type{Kind: TBool}, nil
		}
		return Type{}, errf(x.P, "bad binary operator %s", x.Op)
	case *Call:
		return c.checkCall(x, false)
	}
	return Type{}, errf(e.Pos(), "unhandled expression")
}

func (c *checker) checkCall(x *Call, asStmt bool) (Type, error) {
	if fd, ok := c.prog.Funcs[x.Name]; ok {
		x.Fn = fd
		if len(x.Args) != len(fd.Params) {
			return Type{}, errf(x.P, "%s expects %d arguments, got %d", x.Name, len(fd.Params), len(x.Args))
		}
		for i, a := range x.Args {
			want := fd.Params[i].Type
			if want.Kind == TArray {
				id, ok := a.(*Ident)
				if !ok {
					return Type{}, errf(a.Pos(), "argument %d of %s must be an array variable", i+1, x.Name)
				}
				ab, ok := c.lookup(id.Name)
				if !ok || ab.t.Kind != TArray {
					return Type{}, errf(a.Pos(), "argument %d of %s must be an array, got %s", i+1, x.Name, ab.t)
				}
				if ab.t.Len != want.Len {
					return Type{}, errf(a.Pos(), "argument %d of %s: array length %d, want %d", i+1, x.Name, ab.t.Len, want.Len)
				}
				id.Slot = ab.slot
				continue
			}
			if want.Kind == TFunc {
				// Function values pass by reference, like arrays: only a
				// function-typed parameter name is a valid argument.
				id, ok := a.(*Ident)
				if !ok {
					return Type{}, errf(a.Pos(), "argument %d of %s must be a function parameter", i+1, x.Name)
				}
				ab, ok := c.lookup(id.Name)
				if !ok || ab.t.Kind != TFunc {
					return Type{}, errf(a.Pos(), "argument %d of %s must be a function, got %s", i+1, x.Name, ab.t)
				}
				if ab.t.Len != want.Len {
					return Type{}, errf(a.Pos(), "argument %d of %s: function arity %d, want %d", i+1, x.Name, ab.t.Len, want.Len)
				}
				id.Slot = ab.slot
				continue
			}
			at, err := c.checkExpr(a)
			if err != nil {
				return Type{}, err
			}
			if at.Kind != want.Kind {
				return Type{}, errf(a.Pos(), "argument %d of %s: got %s, want %s", i+1, x.Name, at, want)
			}
		}
		if !fd.HasRet && !asStmt {
			return Type{}, errf(x.P, "%s has no return value", x.Name)
		}
		return Type{Kind: TInt}, nil
	}
	if b, ok := c.lookup(x.Name); ok && b.t.Kind == TFunc {
		// A call through a function-typed parameter: the callback input.
		x.Param = true
		x.Slot = b.slot
		if len(x.Args) != b.t.Len {
			return Type{}, errf(x.P, "function %s expects %d arguments, got %d", x.Name, b.t.Len, len(x.Args))
		}
		for i, a := range x.Args {
			at, err := c.checkExpr(a)
			if err != nil {
				return Type{}, err
			}
			if at.Kind != TInt {
				return Type{}, errf(a.Pos(), "argument %d of %s must be int, got %s", i+1, x.Name, at)
			}
		}
		return Type{Kind: TInt}, nil
	}
	if nat, ok := c.natives[x.Name]; ok {
		x.Native = true
		if len(x.Args) != nat.Arity {
			return Type{}, errf(x.P, "native %s expects %d arguments, got %d", x.Name, nat.Arity, len(x.Args))
		}
		for i, a := range x.Args {
			at, err := c.checkExpr(a)
			if err != nil {
				return Type{}, err
			}
			if at.Kind != TInt {
				return Type{}, errf(a.Pos(), "argument %d of native %s must be int, got %s", i+1, x.Name, at)
			}
		}
		return Type{Kind: TInt}, nil
	}
	return Type{}, errf(x.P, "call to undefined function %s", x.Name)
}
