package concolic

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"hotg/internal/faults"
	"hotg/internal/mini"
	"hotg/internal/sym"
)

// sval is a symbolic value: an integer term, a boolean formula, or ⊥
// (bottom: statically unknown, ModeStatic only). An sval with none of the
// three is input-independent: its symbolic value is its concrete one,
// S(v) = M(v), and no term is built for it. pending carries the input
// variables whose concretization constraints were delayed (ModeSoundDelayed)
// and must be injected before this value is used in a path constraint.
// Every evaluation step passes svals by value, so the rare parts stay small.
type sval struct {
	sum     *sym.Sum
	b       sym.Expr
	pending *pendingVars
	bottom  bool
}

// intS wraps an integer term. A term that folded to a constant carries no
// information beyond the concrete value (constant terms wrap like int64, so
// the two agree), and becomes an input-independent sval.
func intS(s *sym.Sum, pending *pendingVars) sval {
	if len(s.Terms) == 0 {
		return sval{pending: pending}
	}
	return sval{sum: s, pending: pending}
}

// boolS wraps a formula; one that folded to a constant becomes an
// input-independent sval. A comparison of overflowing constants may fold to
// the opposite of the concrete outcome, but a constant condition never
// reaches a path constraint, so only the concrete outcome matters.
func boolS(b sym.Expr, pending *pendingVars) sval {
	if _, ok := b.(*sym.Bool); ok {
		return sval{pending: pending}
	}
	return sval{b: b, pending: pending}
}

func bottomS() sval { return sval{bottom: true} }

// concrete reports whether s is input-independent: S(v) = M(v).
func (s sval) concrete() bool { return s.sum == nil && s.b == nil && !s.bottom }

// term returns the integer term of s, whose concrete value is c; an
// input-independent s materializes as the constant c.
func (s sval) term(c int64) *sym.Sum {
	if s.sum == nil {
		return sym.Int(c)
	}
	return s.sum
}

// pendingVars is an immutable, ordered set of input variable IDs; nil is
// the empty set.
type pendingVars struct{ ids []int }

// list returns the IDs of p in order.
func (p *pendingVars) list() []int {
	if p == nil {
		return nil
	}
	return p.ids
}

// varsOf returns the variables of s, ordered by ID, as a pending set.
func varsOf(s *sym.Sum) *pendingVars {
	vars := sym.Vars(s)
	if len(vars) == 0 {
		return nil
	}
	ids := make([]int, len(vars))
	for i, v := range vars {
		ids[i] = v.ID
	}
	return &pendingVars{ids: ids}
}

// mergePending returns a ∪ b, ordered as a then b's new IDs; it returns an
// operand itself when the other adds nothing.
func mergePending(a, b *pendingVars) *pendingVars {
	if b == nil {
		return a
	}
	if a == nil {
		return b
	}
	var out []int
	for _, id := range b.ids {
		if !slices.Contains(a.ids, id) && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	if out == nil {
		return a
	}
	return &pendingVars{ids: append(slices.Clip(a.ids), out...)}
}

// cell is one array element in the symbolic store; the zero cell is
// input-independent.
type cell struct {
	sum     *sym.Sum
	pending *pendingVars
	bottom  bool
}

// arrayObj is the concrete+symbolic contents of one array, shared by
// reference like a Go slice.
type arrayObj struct {
	con   []int64
	cells []cell
}

// slot is one variable binding: concrete value (M; a bool is 0 or 1) and
// symbolic value (S) side by side, as in Section 2 of the paper.
// Function-typed slots carry the concrete decision table and the callback's
// uninterpreted symbol; both travel by reference through user calls, so a
// callback keeps its identity under parameter renaming.
type slot struct {
	i     int64
	arr   *arrayObj
	fn    *mini.FuncValue
	fnSym *sym.Func
	s     sval
}

// frame is one activation's variables, indexed by the slots mini.Check
// assigned (FuncDecl.FrameSize long).
type frame []slot

// Scratch buffers for a run's branch trace and path constraint. A run
// appends to pooled buffers and keeps exact-size copies, so a trace costs
// one allocation whatever its length and retains no spare capacity.
var (
	branchBufs = sync.Pool{New: func() any { return new([]mini.BranchEvent) }}
	pcBufs     = sync.Pool{New: func() any { return new([]Constraint) }}
)

// exact returns a copy of buf of exactly its length, or nil when it is
// empty.
func exact[T any](buf []T) []T {
	if len(buf) == 0 {
		return nil
	}
	out := make([]T, len(buf))
	copy(out, buf)
	return out
}

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
	branchBuf := branchBufs.Get().(*[]mini.BranchEvent)
	pcBuf := pcBufs.Get().(*[]Constraint)
	r.res.Branches, r.ex.PC = (*branchBuf)[:0], (*pcBuf)[:0]

	main := e.Prog.Main()
	fr := make(frame, main.FrameSize)
	k := 0
	fnIdx := 0
	for pi, prm := range main.Params {
		switch prm.Type.Kind {
		case mini.TArray:
			obj := &arrayObj{con: make([]int64, prm.Type.Len), cells: make([]cell, prm.Type.Len)}
			for i := 0; i < prm.Type.Len; i++ {
				obj.con[i] = input[k]
				obj.cells[i] = cell{sum: sym.VarTerm(e.InputVars[k])}
				k++
			}
			fr[pi] = slot{arr: obj}
		case mini.TFunc:
			var fv *mini.FuncValue // nil = default function
			if fnIdx < len(funcs) {
				fv = funcs[fnIdx]
			}
			fr[pi] = slot{fn: fv, fnSym: e.CallbackFns[fnIdx]}
			fnIdx++
		default:
			fr[pi] = slot{i: input[k], s: intS(sym.VarTerm(e.InputVars[k]), nil)}
			k++
		}
	}

	ret, err := r.execBlock(main.Body, fr)
	branches, pc := r.res.Branches, r.ex.PC
	r.res.Branches, r.ex.PC = exact(branches), exact(pc)
	// Drop the buffer's references to this run's formulas before another
	// run reuses it.
	clear(pc)
	*branchBuf, *pcBuf = branches[:0], pc[:0]
	branchBufs.Put(branchBuf)
	pcBufs.Put(pcBuf)
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

// branch records the branch event of branch point id, whose condition
// evaluated to taken, and the path constraint conjunct it contributes. It
// returns taken.
func (r *runner) branch(id int, taken bool, cond sval, pos mini.Pos) bool {
	idx := len(r.res.Branches)
	r.res.Branches = append(r.res.Branches, mini.BranchEvent{ID: id, Taken: taken})
	if cond.bottom {
		r.ex.Incomplete = true
		return taken
	}
	// Delayed concretization constraints are injected as soon as the value
	// they guard is used in a branch — even when the residual constraint
	// folds to a constant, the branch outcome still depends on the pinned
	// inputs (e.g. `hash(y) > 0` folds to `567 > 0` ≡ true, but only under
	// y = 42).
	for _, v := range cond.pending.list() {
		r.pin(v, pos)
	}
	if cond.b == nil {
		// The condition did not depend on inputs (beyond any pins above):
		// its outcome is the concrete one that ran.
		return taken
	}
	c := cond.b
	if !taken {
		c = sym.NotExpr(c)
	}
	r.ex.PC = append(r.ex.PC, Constraint{Expr: c, EventIndex: idx, Pos: pos})
	return taken
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
		return sval{}
	case ModeSound:
		r.ex.Concretizations++
		for _, a := range argS {
			if a.sum != nil {
				r.pinSum(a.sum, pos)
			}
		}
		return sval{}
	case ModeSoundDelayed:
		r.ex.Concretizations++
		var pending *pendingVars
		for _, a := range argS {
			if a.sum != nil {
				pending = mergePending(pending, varsOf(a.sum))
			}
			pending = mergePending(pending, a.pending)
		}
		return sval{pending: pending}
	case ModeHigherOrder:
		var f *sym.Func
		if native {
			f = r.e.FuncFor(ufName)
		} else {
			f = r.e.opFunc(ufName, len(argC))
		}
		sums := make([]*sym.Sum, len(argS))
		for i, a := range argS {
			sums[i] = a.term(argC[i])
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
		ci, sv, err := r.eval(st.Init, fr)
		if err != nil {
			return nil, err
		}
		fr[st.Slot] = slot{i: ci, s: sv}
		return nil, nil

	case *mini.ArrDecl:
		fr[st.Slot] = slot{arr: &arrayObj{con: make([]int64, st.Len), cells: make([]cell, st.Len)}}
		return nil, nil

	case *mini.Assign:
		ci, sv, err := r.eval(st.Val, fr)
		if err != nil {
			return nil, err
		}
		sl := &fr[st.Slot]
		sl.i, sl.s = ci, sv
		return nil, nil

	case *mini.IndexAssign:
		idxC, idxS, err := r.eval(st.Idx, fr)
		if err != nil {
			return nil, err
		}
		obj := fr[st.Slot].arr
		if idxC < 0 || idxC >= int64(len(obj.con)) {
			return nil, runtimeFault{fmt.Sprintf("%s: index %d out of bounds [0,%d)", st.P, idxC, len(obj.con))}
		}
		valC, valS, err := r.eval(st.Val, fr)
		if err != nil {
			return nil, err
		}
		r.arrayWrite(obj, idxC, idxS, valC, valS, st.P)
		return nil, nil

	case *mini.If:
		c, cs, err := r.eval(st.Cond, fr)
		if err != nil {
			return nil, err
		}
		if r.branch(st.BranchID, c != 0, cs, st.P) {
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
			c, cs, err := r.eval(st.Cond, fr)
			if err != nil {
				return nil, err
			}
			if !r.branch(st.BranchID, c != 0, cs, st.P) {
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
		ci, sv, err := r.eval(st.Val, fr)
		if err != nil {
			return nil, err
		}
		return &retval{i: ci, s: sv}, nil

	case *mini.ErrorStmt:
		return nil, errorReached{site: st.SiteID, msg: st.Msg}

	case *mini.ExprStmt:
		_, _, err := r.eval(st.X, fr)
		return nil, err

	case *mini.Block:
		return r.execBlock(st, fr)
	}
	panic(fmt.Sprintf("concolic: execStmt: unhandled %T", s))
}

func (r *runner) arrayWrite(obj *arrayObj, idxC int64, idxS sval, valC int64, valS sval, pos mini.Pos) {
	if !idxS.concrete() {
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
			for _, id := range idxS.pending.list() {
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
	if !idxS.concrete() {
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
				out.pending = mergePending(out.pending, varsOf(idxS.sum))
			}
			out.pending = mergePending(out.pending, idxS.pending)
		}
	}
	return obj.con[idxC], out, nil
}

// eval is the side-by-side evaluation of Figure 1: it returns the concrete
// value (an int, or 0/1 for a bool) together with the symbolic value.
func (r *runner) eval(e mini.Expr, fr frame) (int64, sval, error) {
	if err := r.tick(); err != nil {
		return 0, sval{}, err
	}
	switch x := e.(type) {
	case *mini.IntLit:
		return x.V, sval{}, nil
	case *mini.BoolLit:
		return b2i(x.V), sval{}, nil
	case *mini.Ident:
		sl := &fr[x.Slot]
		return sl.i, sl.s, nil
	case *mini.Index:
		idxC, idxS, err := r.eval(x.Idx, fr)
		if err != nil {
			return 0, sval{}, err
		}
		return r.arrayRead(fr[x.Slot].arr, idxC, idxS, x.P)
	case *mini.Unary:
		c, sv, err := r.eval(x.X, fr)
		if err != nil {
			return 0, sval{}, err
		}
		// A bottom or input-independent operand passes through unchanged.
		switch x.Op {
		case mini.TokBang:
			if sv.b != nil {
				sv = boolS(sym.NotExpr(sv.b), sv.pending)
			}
			return 1 - c, sv, nil
		case mini.TokMinus:
			if sv.sum != nil {
				sv = intS(sym.NegSum(sv.sum), sv.pending)
			}
			return -c, sv, nil
		}
	case *mini.Binary:
		return r.evalBinary(x, fr)
	case *mini.Call:
		return r.evalCall(x, fr)
	}
	panic(fmt.Sprintf("concolic: eval: unhandled %T", e))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (r *runner) evalBinary(x *mini.Binary, fr frame) (int64, sval, error) {
	li, ls, err := r.eval(x.X, fr)
	if err != nil {
		return 0, sval{}, err
	}

	// Short-circuit operators: implicit branch events (see mini.Binary).
	switch x.Op {
	case mini.TokAndAnd, mini.TokOrOr:
		if r.branch(x.BranchID, li != 0, ls, x.P) == (x.Op == mini.TokOrOr) {
			// The left operand decided: false && _, true || _.
			if ls.bottom {
				return li, bottomS(), nil
			}
			return li, sval{}, nil
		}
		return r.eval(x.Y, fr)
	}

	ri, rs, err := r.eval(x.Y, fr)
	if err != nil {
		return 0, sval{}, err
	}

	// The concrete result (M).
	var ci int64
	switch x.Op {
	case mini.TokPlus:
		ci = li + ri
	case mini.TokMinus:
		ci = li - ri
	case mini.TokStar:
		ci = li * ri
	case mini.TokSlash, mini.TokPercent:
		if ri == 0 {
			op := "division"
			if x.Op == mini.TokPercent {
				op = "modulo"
			}
			return 0, sval{}, runtimeFault{fmt.Sprintf("%s: %s by zero", x.P, op)}
		}
		if x.Op == mini.TokSlash {
			ci = li / ri
		} else {
			ci = li % ri
		}
	case mini.TokEq:
		ci = b2i(li == ri)
	case mini.TokNe:
		ci = b2i(li != ri)
	case mini.TokLt:
		ci = b2i(li < ri)
	case mini.TokLe:
		ci = b2i(li <= ri)
	case mini.TokGt:
		ci = b2i(li > ri)
	case mini.TokGe:
		ci = b2i(li >= ri)
	default:
		panic(fmt.Sprintf("concolic: bad binary op %v", x.Op))
	}

	// The symbolic result (S).
	if ls.bottom || rs.bottom {
		return ci, bottomS(), nil
	}
	pending := mergePending(ls.pending, rs.pending)
	if ls.sum == nil && rs.sum == nil {
		// Both operands are input-independent, and so is the result.
		return ci, sval{pending: pending}, nil
	}
	switch x.Op {
	case mini.TokPlus:
		switch {
		case ls.sum == nil:
			return ci, intS(sym.AddConst(rs.sum, li), pending), nil
		case rs.sum == nil:
			return ci, intS(sym.AddConst(ls.sum, ri), pending), nil
		}
		return ci, intS(sym.AddSum(ls.sum, rs.sum), pending), nil
	case mini.TokMinus:
		switch {
		case ls.sum == nil:
			return ci, intS(sym.ConstSub(li, rs.sum), pending), nil
		case rs.sum == nil:
			return ci, intS(sym.AddConst(ls.sum, -ri), pending), nil
		}
		return ci, intS(sym.SubSum(ls.sum, rs.sum), pending), nil
	case mini.TokStar:
		switch {
		case ls.sum == nil:
			return ci, intS(sym.ScaleSum(li, rs.sum), pending), nil
		case rs.sum == nil:
			return ci, intS(sym.ScaleSum(ri, ls.sum), pending), nil
		}
		// Product of two symbolic terms: an unknown instruction.
		return ci, r.imprecise("$mul", false, ci, []int64{li, ri}, []sval{ls, rs}, x.P), nil
	case mini.TokSlash:
		// Integer division/modulo with a symbolic operand is outside T.
		return ci, r.imprecise("$div", false, ci, []int64{li, ri}, []sval{ls, rs}, x.P), nil
	case mini.TokPercent:
		return ci, r.imprecise("$mod", false, ci, []int64{li, ri}, []sval{ls, rs}, x.P), nil
	}

	// Comparisons. A concrete operand enters as its value, never as a
	// materialized constant term.
	rel := relOf(x.Op)
	var bex sym.Expr
	switch {
	case ls.sum == nil:
		bex = sym.ConstCompare(rel, li, rs.sum)
	case rs.sum == nil:
		bex = sym.CompareConst(rel, ls.sum, ri)
	default:
		bex = sym.Compare(rel, ls.sum, rs.sum)
	}
	return ci, boolS(bex, pending), nil
}

// relOf returns the relation of a comparison token.
func relOf(op mini.TokKind) sym.Rel {
	switch op {
	case mini.TokEq:
		return sym.RelEq
	case mini.TokNe:
		return sym.RelNe
	case mini.TokLt:
		return sym.RelLt
	case mini.TokLe:
		return sym.RelLe
	case mini.TokGt:
		return sym.RelGt
	}
	return sym.RelGe
}

func (r *runner) evalCall(x *mini.Call, fr frame) (int64, sval, error) {
	if x.Param {
		return r.evalCallback(x, fr)
	}
	if x.Native {
		argC, argS, err := r.evalArgs(x.Args, fr)
		if err != nil {
			return 0, sval{}, err
		}
		cres := r.e.Prog.Natives[x.Name].Fn(argC)
		if !slices.ContainsFunc(argS, func(s sval) bool { return !s.concrete() }) {
			// Not input-dependent: S(v) defaults to M(v). The IOF pair is
			// still recorded in higher-order mode — this is how lexer
			// initialization teaches the store all keyword hashes (§7).
			if r.e.Mode == ModeHigherOrder {
				f := r.e.FuncFor(x.Name)
				if r.e.Samples.Add(f, argC, cres) {
					r.ex.NewSamples++
				}
			}
			return cres, sval{}, nil
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
	callee := make(frame, fd.FrameSize)
	for i, prm := range fd.Params {
		if prm.Type.Kind == mini.TArray || prm.Type.Kind == mini.TFunc {
			// Arrays and function values are passed by reference.
			callee[i] = fr[x.Args[i].(*mini.Ident).Slot]
			continue
		}
		ci, sv, err := r.eval(x.Args[i], fr)
		if err != nil {
			r.depth--
			return 0, sval{}, err
		}
		callee[i] = slot{i: ci, s: sv}
	}
	return r.leave(r.execBlock(fd.Body, callee))
}

// evalArgs evaluates the arguments of a call, left to right.
func (r *runner) evalArgs(args []mini.Expr, fr frame) ([]int64, []sval, error) {
	argC := make([]int64, len(args))
	argS := make([]sval, len(args))
	for i, a := range args {
		c, s, err := r.eval(a, fr)
		if err != nil {
			return nil, nil, err
		}
		argC[i], argS[i] = c, s
	}
	return argC, argS, nil
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
		return 0, sval{}, nil
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
	argC, argS, err := r.evalArgs(x.Args, fr)
	if err != nil {
		return 0, sval{}, err
	}
	sl := &fr[x.Slot]
	cres := sl.fn.Eval(argC)
	if r.e.Mode == ModeHigherOrder {
		sums := make([]*sym.Sum, len(argS))
		for i, a := range argS {
			sums[i] = a.term(argC[i])
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
	callee := make(frame, fd.FrameSize)
	for i := range fd.Params {
		callee[i] = slot{i: argC[i], s: argS[i]}
	}
	return r.leave(r.execBlock(fd.Body, callee))
}
