package concolic

import (
	"fmt"
	"time"

	"hotg/internal/faults"
	"hotg/internal/mini"
	"hotg/internal/sym"
)

// sval is a symbolic value: an integer term, a boolean formula, or ⊥
// (bottom: statically unknown, ModeStatic only). pending carries the input
// variables whose concretization constraints were delayed (ModeSoundDelayed)
// and must be injected before this value is used in a path constraint.
type sval struct {
	sum     *sym.Sum
	b       sym.Expr
	bottom  bool
	pending []int
}

func intS(s *sym.Sum, pending []int) sval  { return sval{sum: s, pending: pending} }
func boolS(b sym.Expr, pending []int) sval { return sval{b: b, pending: pending} }
func bottomS() sval                        { return sval{bottom: true} }

func mergePending(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int, len(a), len(a)+len(b))
	copy(out, a)
	for _, id := range b {
		dup := false
		for _, have := range out {
			if have == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}

// cell is one array element in the symbolic store.
type cell struct {
	sum     *sym.Sum
	pending []int
	bottom  bool
}

// arrayObj is the concrete+symbolic contents of one array, shared by
// reference like a Go slice.
type arrayObj struct {
	con   []int64
	cells []cell
}

// slot is one variable binding: concrete value (M) and symbolic value (S)
// side by side, as in Section 2 of the paper. Function-typed slots carry the
// concrete decision table and the callback's uninterpreted symbol; both
// travel by reference through user calls, so a callback keeps its identity
// under parameter renaming.
type slot struct {
	kind  mini.TypeKind
	i     int64
	b     bool
	arr   *arrayObj
	fn    *mini.FuncValue
	fnSym *sym.Func
	s     sval
}

type frame map[string]*slot

type runtimeFault struct{ msg string }

func (f runtimeFault) Error() string { return f.msg }

// errStepBudget is the fault of a run that exhausts its step budget.
var errStepBudget = runtimeFault{"step budget exceeded (possible non-termination)"}

// runCanceled aborts a run when Engine.CheckCancel fires; unlike a
// runtimeFault it records no bug — the execution is simply marked Canceled.
type runCanceled struct{}

func (runCanceled) Error() string { return "execution canceled" }

type errorReached struct {
	site int
	msg  string
}

func (errorReached) Error() string { return "error site reached" }

type retval struct {
	i int64
	s sval
}

type runner struct {
	e        *Engine
	ex       *Execution
	res      *mini.Result
	steps    int
	depth    int
	maxSteps int // Engine.MaxSteps, or mini.DefaultMaxSteps when zero
	maxDepth int // Engine.MaxDepth, or mini.DefaultMaxDepth when zero
	pinned   map[int]bool
	inputVal map[int]int64 // input var ID → concrete value this run
	varByID  map[int]*sym.Var
}

// Run executes the program on the flattened input vector with every
// function-valued input left at the default function; see RunWith.
func (e *Engine) Run(input []int64) *Execution { return e.RunWith(input, nil) }

// RunWith executes the program on the flattened input vector and the given
// function-valued inputs (aligned with FuncShape; missing or nil entries run
// as the default function), producing the concrete result, the path
// constraint, and (in ModeHigherOrder) new samples. Callback applications
// are recorded into the per-execution CallbackSamples store, never the
// engine's persistent one — each test supplies its own function, so callback
// samples have no cross-run ground truth.
func (e *Engine) RunWith(input []int64, funcs []*mini.FuncValue) *Execution {
	if faults.Active().FireExecPanic() {
		panic("faults: injected executor failure")
	}
	if len(input) != len(e.InputVars) {
		panic(fmt.Sprintf("concolic: input length %d, want %d", len(input), len(e.InputVars)))
	}
	var t0 time.Time
	if e.Obs.Enabled() {
		t0 = time.Now()
	}
	r := &runner{
		e:        e,
		res:      &mini.Result{},
		maxSteps: e.MaxSteps,
		maxDepth: e.MaxDepth,
		pinned:   make(map[int]bool),
		inputVal: make(map[int]int64, len(input)),
		varByID:  make(map[int]*sym.Var, len(input)),
	}
	if r.maxSteps <= 0 {
		r.maxSteps = mini.DefaultMaxSteps
	}
	if r.maxDepth <= 0 {
		r.maxDepth = mini.DefaultMaxDepth
	}
	in := make([]int64, len(input))
	copy(in, input)
	r.ex = &Execution{Input: in, Funcs: funcs, Result: r.res}
	if len(e.funcShape) > 0 {
		r.ex.CallbackSamples = sym.NewSampleStore()
	}
	for i, v := range e.InputVars {
		r.inputVal[v.ID] = input[i]
		r.varByID[v.ID] = v
	}

	main := e.Prog.Main()
	fr := frame{}
	k := 0
	fnIdx := 0
	for _, prm := range main.Params {
		switch prm.Type.Kind {
		case mini.TArray:
			obj := &arrayObj{con: make([]int64, prm.Type.Len), cells: make([]cell, prm.Type.Len)}
			for i := 0; i < prm.Type.Len; i++ {
				obj.con[i] = input[k]
				obj.cells[i] = cell{sum: sym.VarTerm(e.InputVars[k])}
				k++
			}
			fr[prm.Name] = &slot{kind: mini.TArray, arr: obj}
		case mini.TFunc:
			var fv *mini.FuncValue // nil = default function
			if fnIdx < len(funcs) {
				fv = funcs[fnIdx]
			}
			fr[prm.Name] = &slot{kind: mini.TFunc, fn: fv, fnSym: e.CallbackFns[fnIdx]}
			fnIdx++
		default:
			fr[prm.Name] = &slot{kind: mini.TInt, i: input[k], s: intS(sym.VarTerm(e.InputVars[k]), nil)}
			k++
		}
	}

	ret, err := r.execBlock(main.Body, fr)
	r.res.Steps = r.steps
	switch e := err.(type) {
	case nil:
		r.res.Kind = mini.StopReturn
		if ret != nil {
			r.res.Return = ret.i
		}
	case errorReached:
		r.res.Kind = mini.StopError
		r.res.ErrorSite = e.site
		r.res.ErrorMsg = e.msg
	case runtimeFault:
		r.res.Kind = mini.StopRuntime
		r.res.RuntimeMsg = e.msg
	case runCanceled:
		r.res.Kind = mini.StopReturn
		r.ex.Canceled = true
	default:
		panic(err)
	}
	if o := r.e.Obs; o.Enabled() {
		o.Histogram("concolic.exec.ns").Observe(int64(time.Since(t0)))
		o.Histogram("concolic.path.len").Observe(int64(len(r.ex.PC)))
		o.Histogram("concolic.steps").Observe(int64(r.res.Steps))
		o.Counter("concolic.runs").Inc()
		o.Counter("concolic.samples.learned").Add(int64(r.ex.NewSamples))
		o.Counter("concolic.ufapps").Add(int64(r.ex.UFApps))
		o.Counter("concolic.concretizations").Add(int64(r.ex.Concretizations))
	}
	return r.ex
}

func (r *runner) tick() error {
	r.steps++
	if r.steps > r.maxSteps {
		return errStepBudget
	}
	// Cooperative cancellation: poll every 256 steps so even a long run
	// notices a cancelled search within microseconds, without paying a
	// function call per interpreter step.
	if r.steps&255 == 0 && r.e.CheckCancel != nil && r.e.CheckCancel() {
		return runCanceled{}
	}
	return nil
}

// pin injects the concretization constraint x_i = I_i (line 14 of Figure 1),
// at most once per run per variable.
func (r *runner) pin(varID int, pos mini.Pos) {
	if r.pinned[varID] {
		return
	}
	r.pinned[varID] = true
	v := r.varByID[varID]
	r.ex.PC = append(r.ex.PC, Constraint{
		Expr:             sym.Eq(sym.VarTerm(v), sym.Int(r.inputVal[varID])),
		IsConcretization: true,
		EventIndex:       -1,
		Pos:              pos,
	})
}

func (r *runner) pinSum(s *sym.Sum, pos mini.Pos) {
	for _, v := range sym.Vars(s) {
		r.pin(v.ID, pos)
	}
}

// branchConstraint records the path constraint conjunct for a branch event
// that evaluated cond to `taken` at Branches[idx].
func (r *runner) branchConstraint(cond sval, taken bool, idx int, pos mini.Pos) {
	if cond.bottom {
		r.ex.Incomplete = true
		return
	}
	// Delayed concretization constraints are injected as soon as the value
	// they guard is used in a branch — even when the residual constraint
	// folds to a constant, the branch outcome still depends on the pinned
	// inputs (e.g. `hash(y) > 0` folds to `567 > 0` ≡ true, but only under
	// y = 42).
	for _, id := range cond.pending {
		r.pin(id, pos)
	}
	c := cond.b
	if !taken {
		c = sym.NotExpr(c)
	}
	if _, ok := c.(*sym.Bool); ok {
		// The condition did not depend on inputs (beyond any pins above).
		// It folds to false only when a comparison overflowed int64: the
		// terms range over unbounded integers, the concrete values wrap,
		// and the concrete outcome is the one that ran.
		return
	}
	r.ex.PC = append(r.ex.PC, Constraint{Expr: c, EventIndex: idx, Pos: pos})
}

// imprecise handles an unknown instruction or function producing concrete
// value cres from arguments with at least one symbolic operand. ufName names
// the uninterpreted function to use in ModeHigherOrder.
func (r *runner) imprecise(ufName string, native bool, cres int64, argC []int64, argS []sval, pos mini.Pos) sval {
	switch r.e.Mode {
	case ModeStatic:
		return bottomS()
	case ModeUnsound:
		r.ex.Concretizations++
		return intS(sym.Int(cres), nil)
	case ModeSound:
		r.ex.Concretizations++
		for _, a := range argS {
			if a.sum != nil {
				r.pinSum(a.sum, pos)
			}
		}
		return intS(sym.Int(cres), nil)
	case ModeSoundDelayed:
		r.ex.Concretizations++
		var pending []int
		for _, a := range argS {
			if a.sum != nil {
				for _, v := range sym.Vars(a.sum) {
					pending = mergePending(pending, []int{v.ID})
				}
			}
			pending = mergePending(pending, a.pending)
		}
		return intS(sym.Int(cres), pending)
	case ModeHigherOrder:
		var f *sym.Func
		if native {
			f = r.e.FuncFor(ufName)
		} else {
			f = r.e.opFunc(ufName, len(argC))
		}
		sums := make([]*sym.Sum, len(argS))
		for i, a := range argS {
			sums[i] = a.sum
		}
		if r.e.Samples.Add(f, argC, cres) {
			r.ex.NewSamples++
		}
		r.ex.UFApps++
		return intS(sym.ApplyTerm(f, sums...), nil)
	}
	panic("concolic: bad mode")
}

func (r *runner) execBlock(b *mini.Block, fr frame) (*retval, error) {
	for _, s := range b.Stmts {
		ret, err := r.execStmt(s, fr)
		if err != nil || ret != nil {
			return ret, err
		}
	}
	return nil, nil
}

func (r *runner) execStmt(s mini.Stmt, fr frame) (*retval, error) {
	if err := r.tick(); err != nil {
		return nil, err
	}
	switch st := s.(type) {
	case *mini.VarDecl:
		ci, cb, sv, err := r.eval(st.Init, fr)
		if err != nil {
			return nil, err
		}
		fr[st.Name] = &slot{kind: exprKind(st.Init, fr), i: ci, b: cb, s: sv}
		return nil, nil

	case *mini.ArrDecl:
		obj := &arrayObj{con: make([]int64, st.Len), cells: make([]cell, st.Len)}
		for i := range obj.cells {
			obj.cells[i] = cell{sum: sym.Int(0)}
		}
		fr[st.Name] = &slot{kind: mini.TArray, arr: obj}
		return nil, nil

	case *mini.Assign:
		ci, cb, sv, err := r.eval(st.Val, fr)
		if err != nil {
			return nil, err
		}
		sl := fr[st.Name]
		sl.i, sl.b, sl.s = ci, cb, sv
		return nil, nil

	case *mini.IndexAssign:
		idxC, _, idxS, err := r.eval(st.Idx, fr)
		if err != nil {
			return nil, err
		}
		obj := fr[st.Name].arr
		if idxC < 0 || idxC >= int64(len(obj.con)) {
			return nil, runtimeFault{fmt.Sprintf("%s: index %d out of bounds [0,%d)", st.P, idxC, len(obj.con))}
		}
		valC, _, valS, err := r.eval(st.Val, fr)
		if err != nil {
			return nil, err
		}
		r.arrayWrite(obj, idxC, idxS, valC, valS, st.P)
		return nil, nil

	case *mini.If:
		_, cb, cs, err := r.eval(st.Cond, fr)
		if err != nil {
			return nil, err
		}
		idx := len(r.res.Branches)
		r.res.Branches = append(r.res.Branches, mini.BranchEvent{ID: st.BranchID, Taken: cb})
		r.branchConstraint(cs, cb, idx, st.P)
		if cb {
			return r.execBlock(st.Then, fr)
		}
		switch e := st.Else.(type) {
		case nil:
			return nil, nil
		case *mini.Block:
			return r.execBlock(e, fr)
		case *mini.If:
			return r.execStmt(e, fr)
		}
		return nil, nil

	case *mini.While:
		for {
			_, cb, cs, err := r.eval(st.Cond, fr)
			if err != nil {
				return nil, err
			}
			idx := len(r.res.Branches)
			r.res.Branches = append(r.res.Branches, mini.BranchEvent{ID: st.BranchID, Taken: cb})
			r.branchConstraint(cs, cb, idx, st.P)
			if !cb {
				return nil, nil
			}
			ret, err := r.execBlock(st.Body, fr)
			if err != nil || ret != nil {
				return ret, err
			}
			if err := r.tick(); err != nil {
				return nil, err
			}
		}

	case *mini.Return:
		if st.Val == nil {
			return &retval{}, nil
		}
		ci, _, sv, err := r.eval(st.Val, fr)
		if err != nil {
			return nil, err
		}
		return &retval{i: ci, s: sv}, nil

	case *mini.ErrorStmt:
		return nil, errorReached{site: st.SiteID, msg: st.Msg}

	case *mini.ExprStmt:
		_, _, _, err := r.eval(st.X, fr)
		return nil, err

	case *mini.Block:
		return r.execBlock(st, fr)
	}
	panic(fmt.Sprintf("concolic: execStmt: unhandled %T", s))
}

func (r *runner) arrayWrite(obj *arrayObj, idxC int64, idxS sval, valC int64, valS sval, pos mini.Pos) {
	if _, isConst := constOf(idxS); !isConst {
		// Symbolic index: an unknown instruction outside T.
		switch r.e.Mode {
		case ModeStatic:
			for i := range obj.cells {
				obj.cells[i] = cell{bottom: true}
			}
		case ModeUnsound:
			r.ex.Concretizations++
		default: // sound, delayed, higher-order: pin the index
			r.ex.Concretizations++
			if idxS.sum != nil {
				r.pinSum(idxS.sum, pos)
			}
			for _, id := range idxS.pending {
				r.pin(id, pos)
			}
		}
	}
	obj.con[idxC] = valC
	obj.cells[idxC] = cell{sum: valS.sum, pending: valS.pending, bottom: valS.bottom}
}

func (r *runner) arrayRead(obj *arrayObj, idxC int64, idxS sval, pos mini.Pos) (int64, sval, error) {
	if idxC < 0 || idxC >= int64(len(obj.con)) {
		return 0, sval{}, runtimeFault{fmt.Sprintf("%s: index %d out of bounds [0,%d)", pos, idxC, len(obj.con))}
	}
	cl := obj.cells[idxC]
	out := sval{sum: cl.sum, pending: cl.pending, bottom: cl.bottom}
	if _, isConst := constOf(idxS); !isConst {
		switch r.e.Mode {
		case ModeStatic:
			return obj.con[idxC], bottomS(), nil
		case ModeUnsound:
			r.ex.Concretizations++
		case ModeSound, ModeHigherOrder:
			r.ex.Concretizations++
			if idxS.sum != nil {
				r.pinSum(idxS.sum, pos)
			}
		case ModeSoundDelayed:
			r.ex.Concretizations++
			if idxS.sum != nil {
				for _, v := range sym.Vars(idxS.sum) {
					out.pending = mergePending(out.pending, []int{v.ID})
				}
			}
			out.pending = mergePending(out.pending, idxS.pending)
		}
	}
	return obj.con[idxC], out, nil
}

// constOf reports whether an sval is a known integer constant.
func constOf(s sval) (int64, bool) {
	if s.bottom || s.sum == nil {
		return 0, false
	}
	return s.sum.IsConst()
}

// exprKind returns the static kind of an expression (int or bool), which the
// checker has already validated.
func exprKind(e mini.Expr, fr frame) mini.TypeKind {
	switch x := e.(type) {
	case *mini.IntLit, *mini.Index, *mini.Call:
		return mini.TInt
	case *mini.BoolLit:
		return mini.TBool
	case *mini.Ident:
		return fr[x.Name].kind
	case *mini.Unary:
		if x.Op == mini.TokBang {
			return mini.TBool
		}
		return mini.TInt
	case *mini.Binary:
		switch x.Op {
		case mini.TokPlus, mini.TokMinus, mini.TokStar, mini.TokSlash, mini.TokPercent:
			return mini.TInt
		}
		return mini.TBool
	}
	return mini.TInt
}

// eval is the side-by-side evaluation of Figure 1: it returns the concrete
// value (int or bool) together with the symbolic value.
func (r *runner) eval(e mini.Expr, fr frame) (int64, bool, sval, error) {
	if err := r.tick(); err != nil {
		return 0, false, sval{}, err
	}
	switch x := e.(type) {
	case *mini.IntLit:
		return x.V, false, intS(sym.Int(x.V), nil), nil
	case *mini.BoolLit:
		return 0, x.V, boolS(boolConst(x.V), nil), nil
	case *mini.Ident:
		sl := fr[x.Name]
		return sl.i, sl.b, sl.s, nil
	case *mini.Index:
		idxC, _, idxS, err := r.eval(x.Idx, fr)
		if err != nil {
			return 0, false, sval{}, err
		}
		v, sv, err := r.arrayRead(fr[x.Name].arr, idxC, idxS, x.P)
		return v, false, sv, err
	case *mini.Unary:
		ci, cb, sv, err := r.eval(x.X, fr)
		if err != nil {
			return 0, false, sval{}, err
		}
		switch x.Op {
		case mini.TokBang:
			if sv.bottom {
				return 0, !cb, bottomS(), nil
			}
			return 0, !cb, boolS(sym.NotExpr(sv.b), sv.pending), nil
		case mini.TokMinus:
			if sv.bottom {
				return -ci, false, bottomS(), nil
			}
			return -ci, false, intS(sym.NegSum(sv.sum), sv.pending), nil
		}
	case *mini.Binary:
		return r.evalBinary(x, fr)
	case *mini.Call:
		ci, sv, err := r.evalCall(x, fr)
		return ci, false, sv, err
	}
	panic(fmt.Sprintf("concolic: eval: unhandled %T", e))
}

func boolConst(v bool) sym.Expr {
	if v {
		return sym.True
	}
	return sym.False
}

func (r *runner) evalBinary(x *mini.Binary, fr frame) (int64, bool, sval, error) {
	li, lb, ls, err := r.eval(x.X, fr)
	if err != nil {
		return 0, false, sval{}, err
	}

	// Short-circuit operators: implicit branch events (see mini.Binary).
	switch x.Op {
	case mini.TokAndAnd:
		idx := len(r.res.Branches)
		r.res.Branches = append(r.res.Branches, mini.BranchEvent{ID: x.BranchID, Taken: lb})
		r.branchConstraint(ls, lb, idx, x.P)
		if !lb {
			if ls.bottom {
				return 0, false, bottomS(), nil
			}
			return 0, false, boolS(sym.False, nil), nil
		}
		return r.eval(x.Y, fr)
	case mini.TokOrOr:
		idx := len(r.res.Branches)
		r.res.Branches = append(r.res.Branches, mini.BranchEvent{ID: x.BranchID, Taken: lb})
		r.branchConstraint(ls, lb, idx, x.P)
		if lb {
			if ls.bottom {
				return 0, true, bottomS(), nil
			}
			return 0, true, boolS(sym.True, nil), nil
		}
		return r.eval(x.Y, fr)
	}

	ri, _, rs, err := r.eval(x.Y, fr)
	if err != nil {
		return 0, false, sval{}, err
	}
	bothBottom := ls.bottom || rs.bottom
	pending := mergePending(ls.pending, rs.pending)

	switch x.Op {
	case mini.TokPlus:
		if bothBottom {
			return li + ri, false, bottomS(), nil
		}
		return li + ri, false, intS(sym.AddSum(ls.sum, rs.sum), pending), nil
	case mini.TokMinus:
		if bothBottom {
			return li - ri, false, bottomS(), nil
		}
		return li - ri, false, intS(sym.SubSum(ls.sum, rs.sum), pending), nil
	case mini.TokStar:
		cres := li * ri
		if bothBottom {
			return cres, false, bottomS(), nil
		}
		if prod, ok := sym.MulSum(ls.sum, rs.sum); ok {
			return cres, false, intS(prod, pending), nil
		}
		// Product of two symbolic terms: an unknown instruction.
		return cres, false, r.imprecise("$mul", false, cres, []int64{li, ri}, []sval{ls, rs}, x.P), nil
	case mini.TokSlash, mini.TokPercent:
		if ri == 0 {
			op := "division"
			if x.Op == mini.TokPercent {
				op = "modulo"
			}
			return 0, false, sval{}, runtimeFault{fmt.Sprintf("%s: %s by zero", x.P, op)}
		}
		var cres int64
		ufName := "$div"
		if x.Op == mini.TokSlash {
			cres = li / ri
		} else {
			cres = li % ri
			ufName = "$mod"
		}
		if bothBottom {
			return cres, false, bottomS(), nil
		}
		_, lc := ls.sum.IsConst()
		_, rc := rs.sum.IsConst()
		if lc && rc {
			return cres, false, intS(sym.Int(cres), pending), nil
		}
		// Integer division/modulo with a symbolic operand is outside T.
		return cres, false, r.imprecise(ufName, false, cres, []int64{li, ri}, []sval{ls, rs}, x.P), nil
	}

	// Comparisons.
	var cb bool
	var bex sym.Expr
	switch x.Op {
	case mini.TokEq:
		cb = li == ri
		if !bothBottom {
			bex = sym.Eq(ls.sum, rs.sum)
		}
	case mini.TokNe:
		cb = li != ri
		if !bothBottom {
			bex = sym.Ne(ls.sum, rs.sum)
		}
	case mini.TokLt:
		cb = li < ri
		if !bothBottom {
			bex = sym.Lt(ls.sum, rs.sum)
		}
	case mini.TokLe:
		cb = li <= ri
		if !bothBottom {
			bex = sym.Le(ls.sum, rs.sum)
		}
	case mini.TokGt:
		cb = li > ri
		if !bothBottom {
			bex = sym.Gt(ls.sum, rs.sum)
		}
	case mini.TokGe:
		cb = li >= ri
		if !bothBottom {
			bex = sym.Ge(ls.sum, rs.sum)
		}
	default:
		panic(fmt.Sprintf("concolic: bad binary op %v", x.Op))
	}
	if bothBottom {
		return 0, cb, bottomS(), nil
	}
	return 0, cb, boolS(bex, pending), nil
}

func (r *runner) evalCall(x *mini.Call, fr frame) (int64, sval, error) {
	if x.Param {
		return r.evalCallback(x, fr)
	}
	if x.Native {
		nat := r.e.Prog.Natives[x.Name]
		argC := make([]int64, len(x.Args))
		argS := make([]sval, len(x.Args))
		symbolic := false
		for i, a := range x.Args {
			ci, _, sv, err := r.eval(a, fr)
			if err != nil {
				return 0, sval{}, err
			}
			argC[i], argS[i] = ci, sv
			if _, isConst := constOf(sv); !isConst {
				symbolic = true
			}
		}
		cres := nat.Fn(argC)
		if !symbolic {
			// Not input-dependent: S(v) defaults to M(v). The IOF pair is
			// still recorded in higher-order mode — this is how lexer
			// initialization teaches the store all keyword hashes (§7).
			if r.e.Mode == ModeHigherOrder {
				f := r.e.FuncFor(x.Name)
				if r.e.Samples.Add(f, argC, cres) {
					r.ex.NewSamples++
				}
			}
			return cres, intS(sym.Int(cres), nil), nil
		}
		// Unknown function applied to symbolic arguments (line 10, Fig. 3).
		return cres, r.imprecise(x.Name, true, cres, argC, argS, x.P), nil
	}

	fd := x.Fn
	if r.e.summariesUsable() && r.e.Summaries.summarizable(fd) {
		return r.evalCallSummary(x, fr)
	}
	if err := r.enter(x.P); err != nil {
		return 0, sval{}, err
	}
	callee := frame{}
	for i, prm := range fd.Params {
		if prm.Type.Kind == mini.TArray || prm.Type.Kind == mini.TFunc {
			// Arrays and function values are passed by reference.
			id := x.Args[i].(*mini.Ident)
			callee[prm.Name] = fr[id.Name]
			continue
		}
		ci, cb, sv, err := r.eval(x.Args[i], fr)
		if err != nil {
			r.depth--
			return 0, sval{}, err
		}
		callee[prm.Name] = &slot{kind: prm.Type.Kind, i: ci, b: cb, s: sv}
	}
	return r.leave(r.execBlock(fd.Body, callee))
}

// enter charges one user-function call against the recursion budget; every
// successful enter is paired with a leave.
func (r *runner) enter(pos mini.Pos) error {
	r.depth++
	if r.depth > r.maxDepth {
		r.depth--
		return runtimeFault{fmt.Sprintf("%s: recursion budget exceeded", pos)}
	}
	return nil
}

// leave pops the call entered last and turns the callee's exit into its
// value: falling off the end returns 0 (the checker does not prove that all
// paths return).
func (r *runner) leave(ret *retval, err error) (int64, sval, error) {
	r.depth--
	if err != nil {
		return 0, sval{}, err
	}
	if ret == nil {
		return 0, intS(sym.Int(0), nil), nil
	}
	return ret.i, ret.s, nil
}

// evalCallback applies a function-valued input (a call through a
// function-typed parameter). In ModeHigherOrder the application ALWAYS
// becomes an uninterpreted term over the callback's Input symbol — even when
// every argument is concrete — because the function itself is an input:
// `p(5) == 7` must stay flippable by choosing a different p, which no
// concretizing mode can express. The observed pair is recorded in the
// per-execution CallbackSamples store. Every other mode treats the
// application like any unknown function: concretize (with the mode's pinning
// discipline), which is exactly the DART-style baseline E16 measures against.
func (r *runner) evalCallback(x *mini.Call, fr frame) (int64, sval, error) {
	sl := fr[x.Name]
	argC := make([]int64, len(x.Args))
	argS := make([]sval, len(x.Args))
	for i, a := range x.Args {
		ci, _, sv, err := r.eval(a, fr)
		if err != nil {
			return 0, sval{}, err
		}
		argC[i], argS[i] = ci, sv
	}
	cres := sl.fn.Eval(argC)
	if r.e.Mode == ModeHigherOrder {
		sums := make([]*sym.Sum, len(argS))
		for i, a := range argS {
			if a.bottom || a.sum == nil {
				sums[i] = sym.Int(argC[i])
			} else {
				sums[i] = a.sum
			}
		}
		r.ex.CallbackSamples.Add(sl.fnSym, argC, cres)
		r.ex.UFApps++
		return cres, intS(sym.ApplyTerm(sl.fnSym, sums...), nil), nil
	}
	return cres, r.imprecise("", false, cres, argC, argS, x.P), nil
}

// evalCallInline performs classic inlining of a summarizable call whose
// arguments have already been evaluated (the fallback path for abnormal
// callee exits under summaries).
func (r *runner) evalCallInline(x *mini.Call, argC []int64, argS []sval) (int64, sval, error) {
	fd := x.Fn
	if err := r.enter(x.P); err != nil {
		return 0, sval{}, err
	}
	callee := frame{}
	for i, prm := range fd.Params {
		callee[prm.Name] = &slot{kind: mini.TInt, i: argC[i], s: argS[i]}
	}
	return r.leave(r.execBlock(fd.Body, callee))
}
