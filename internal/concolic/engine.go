// Package concolic implements side-by-side concrete and symbolic execution of
// mini programs — the executeSymbolic procedure of Figures 1–3 of the paper —
// parameterized by how imprecision in symbolic execution is handled:
//
//	ModeStatic      static test generation: no concrete fallback; an unknown
//	                value poisons everything it touches (King-style symbolic
//	                execution, helpless on programs like obscure()).
//	ModeUnsound     DART's default concretization (Figure 1 without line 14):
//	                replace the unknown value by its runtime value and keep
//	                going. Path constraints may be unsound → divergences.
//	ModeSound       sound concretization (Figure 1 with line 14): additionally
//	                pin every symbolic variable occurring in the concretized
//	                expression with a concretization constraint x_i = I_i.
//	ModeSoundDelayed the Section 3.3 variant: concretization constraints are
//	                injected only when the concretized value actually flows
//	                into a branch condition.
//	ModeHigherOrder Figure 3: unknown functions/instructions become
//	                uninterpreted function applications, and concrete
//	                input–output samples are recorded in the IOF store.
//
// Sources of imprecision (the "default case" of Figure 1) are: calls to
// native functions, products of two symbolic terms, division/modulo with a
// symbolic operand, and array accesses at symbolic indices. The first three
// are deterministic functions of their arguments and are representable as
// uninterpreted functions in ModeHigherOrder; symbolic array indexing is
// handled by sound index concretization in every sound mode (cf. Section 6:
// only some sources of imprecision need be tracked as uninterpreted
// functions).
package concolic

import (
	"fmt"

	"hotg/internal/mini"
	"hotg/internal/obs"
	"hotg/internal/sym"
)

// Mode selects the imprecision-handling strategy.
type Mode int

const (
	// ModeStatic is static test generation (no runtime values).
	ModeStatic Mode = iota
	// ModeUnsound is DART's default unsound concretization.
	ModeUnsound
	// ModeSound is sound concretization (line 14 of Figure 1).
	ModeSound
	// ModeSoundDelayed delays concretization constraints until use.
	ModeSoundDelayed
	// ModeHigherOrder is symbolic execution with uninterpreted functions
	// and sample recording (Figure 3).
	ModeHigherOrder
)

func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeUnsound:
		return "dart-unsound"
	case ModeSound:
		return "dart-sound"
	case ModeSoundDelayed:
		return "dart-sound-delayed"
	case ModeHigherOrder:
		return "higher-order"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String: it maps a mode's name back to the
// mode, and rejects every other string.
func ParseMode(s string) (Mode, error) {
	for m := ModeStatic; m <= ModeHigherOrder; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// Constraint is one conjunct of a path constraint.
type Constraint struct {
	// Expr is the constraint formula over the input variables (and, in
	// ModeHigherOrder, uninterpreted function applications).
	Expr sym.Expr
	// IsConcretization marks a concretization constraint x_i = I_i; such
	// constraints must never be negated by the search (Section 3.3).
	IsConcretization bool
	// EventIndex is the index into Result.Branches of the branch event this
	// constraint was generated at, or -1 for concretization constraints.
	EventIndex int
	// Pos is the source position of the branch or concretization site.
	Pos mini.Pos
}

func (c Constraint) String() string {
	if c.IsConcretization {
		return fmt.Sprintf("[conc] %v", c.Expr)
	}
	return fmt.Sprintf("[b%d] %v", c.EventIndex, c.Expr)
}

// Execution is the outcome of one concolic run.
type Execution struct {
	Input []int64
	// Funcs are the function-valued inputs the run executed under, aligned
	// with the program's FuncShape (nil entries = the default function).
	Funcs  []*mini.FuncValue
	Result *mini.Result
	// PC is the path constraint, in generation order.
	PC []Constraint
	// Incomplete reports that at least one branch on a symbolic-but-unknown
	// value produced no constraint (always false outside ModeStatic; this is
	// DART's "completeness flag", Section 3.1).
	Incomplete bool
	// Concretizations counts imprecision events resolved by concretization.
	Concretizations int
	// UFApps counts uninterpreted applications created (ModeHigherOrder).
	UFApps int
	// NewSamples counts input–output pairs newly added to the IOF store.
	NewSamples int
	// CallbackSamples records the input–output pairs observed for callback
	// (function-valued input) applications during this run, keyed by the
	// engine's callback symbols ("@" + parameter name). They live in a
	// per-execution store, never the engine's persistent one: unlike
	// environment unknowns, a callback's ground truth changes per test (each
	// test supplies its own function), so merging across runs would corrupt
	// the IOF invariant. Nil when the program has no function parameters.
	CallbackSamples *sym.SampleStore
	// Canceled reports that the run was stopped early by Engine.CheckCancel
	// (cooperative cancellation). The Result and PC cover only the executed
	// prefix; no bug is recorded for the early stop.
	Canceled bool
}

// Formula returns the conjunction of the whole path constraint.
func (ex *Execution) Formula() sym.Expr {
	parts := make([]sym.Expr, len(ex.PC))
	for i, c := range ex.PC {
		parts[i] = c.Expr
	}
	return sym.AndExpr(parts...)
}

// Alt builds the alternate path constraint ALT(pc_k) of Section 5.2: the
// conjunction of all constraints before position k with the negation of the
// k-th constraint. It panics if PC[k] is a concretization constraint, which
// must never be negated.
func (ex *Execution) Alt(k int) sym.Expr {
	if ex.PC[k].IsConcretization {
		panic("concolic: Alt on a concretization constraint")
	}
	parts := make([]sym.Expr, 0, k+1)
	for i := 0; i < k; i++ {
		parts = append(parts, ex.PC[i].Expr)
	}
	parts = append(parts, sym.NotExpr(ex.PC[k].Expr))
	return sym.AndExpr(parts...)
}

// Prediction returns the branch trace an input satisfying Alt(k) is
// predicted to follow: the executed prefix up to the k-th constraint's branch
// event, with that event flipped. It is a view of ex.Result.Branches.
func (ex *Execution) Prediction(k int) Prediction {
	idx := ex.PC[k].EventIndex
	return Predict(ex.Result.Branches[:idx+1])
}

// Prediction is the branch trace a generated test is predicted to follow: its
// parent execution's branch events up to the negated one, with that one
// flipped. It is a view of the parent's events, not a copy, so every test
// generated from one execution shares that execution's array. The zero
// Prediction is no prediction at all (a seed input), which is distinct from
// an empty one.
type Prediction struct {
	// executed holds the parent's events through the flipped one, as the
	// parent took them; its capacity ends there, so an append through the
	// view cannot write into the parent's array.
	executed []mini.BranchEvent
}

// Predict returns the prediction that follows executed and flips its last
// event. It shares executed's array; nil gives the zero Prediction.
func Predict(executed []mini.BranchEvent) Prediction {
	n := len(executed)
	return Prediction{executed: executed[:n:n]}
}

// IsZero reports whether p is no prediction.
func (p Prediction) IsZero() bool { return p.executed == nil }

// Len returns the number of predicted events.
func (p Prediction) Len() int { return len(p.executed) }

// At returns the i-th predicted event.
func (p Prediction) At(i int) mini.BranchEvent {
	ev := p.executed[i]
	if i == len(p.executed)-1 {
		ev.Taken = !ev.Taken
	}
	return ev
}

// Executed returns the events p was built from (see Predict): the prediction
// with its last event not yet flipped. The slice is shared; do not modify it.
func (p Prediction) Executed() []mini.BranchEvent { return p.executed }

// Engine executes one program under one mode, owning the symbolic input
// variables (stable across runs, so path constraints from different runs
// share a vocabulary) and, in ModeHigherOrder, the persistent IOF store.
type Engine struct {
	Prog *mini.Program
	Mode Mode
	Pool *sym.Pool
	// InputVars are the symbolic variables x_i, aligned with Prog.Shape().
	InputVars []*sym.Var
	// Samples is the IOF store; it persists and grows across Run calls.
	Samples *sym.SampleStore
	// Summaries, when non-nil, enables compositional path summaries for
	// eligible user-function calls (ModeHigherOrder only); see summary.go.
	Summaries *SummaryCache
	// Obs, when non-nil, collects per-execution metrics (concolic.exec.ns,
	// concolic.path.len, samples learned, UF applications). Clones share it;
	// all updates are atomic. Never affects execution results.
	Obs *obs.Obs
	// CheckCancel, when non-nil, is polled every few hundred interpreter
	// steps; when it reports true the run stops early and the Execution is
	// marked Canceled (no bug is recorded, the partial path constraint is
	// kept). The search installs a probe backed by its context so in-flight
	// executions stop promptly on cancellation. Clones share it; it must be
	// safe for concurrent use.
	CheckCancel func() bool

	// MaxSteps and MaxDepth bound each run; zero means mini.DefaultMaxSteps
	// and mini.DefaultMaxDepth.
	MaxSteps int
	MaxDepth int

	// CallbackFns are the uninterpreted symbols standing for the program's
	// function-valued inputs, aligned with funcShape. Each is an Input symbol
	// named "@" + parameter name (the "@" keeps the namespace disjoint from
	// natives and unknown instructions).
	CallbackFns []*sym.Func

	shape     mini.InputShape
	funcShape []mini.FuncParam
	opFns     map[string]*sym.Func
	// vmCode is the optimized bytecode form of the program, compiled lazily
	// for the summary machinery's concrete probe passes.
	vmCode *mini.Compiled
}

// compiled returns the lazily built optimized bytecode of the program.
func (e *Engine) compiled() *mini.Compiled {
	if e.vmCode == nil {
		e.vmCode = mini.CompileVM(e.Prog).Optimize()
	}
	return e.vmCode
}

// New creates an engine for the checked program under the given mode.
func New(prog *mini.Program, mode Mode) *Engine {
	e := &Engine{
		Prog:     prog,
		Mode:     mode,
		Pool:     &sym.Pool{},
		Samples:  sym.NewSampleStore(),
		MaxSteps: mini.DefaultMaxSteps,
		MaxDepth: mini.DefaultMaxDepth,
		opFns:    make(map[string]*sym.Func),
	}
	e.shape = prog.Shape()
	for _, name := range e.shape.Names {
		e.InputVars = append(e.InputVars, e.Pool.NewVar(name))
	}
	e.funcShape = prog.FuncShape()
	for _, fp := range e.funcShape {
		e.CallbackFns = append(e.CallbackFns, e.Pool.InputFuncSym("@"+fp.Name, fp.Arity))
	}
	// Pre-register the unknown-instruction symbols so opFns is read-only from
	// here on (engine clones share the map).
	for _, name := range []string{"$mul", "$div", "$mod"} {
		e.opFns[name] = e.Pool.FuncSym(name, 2)
	}
	return e
}

// Clone returns an engine that shares the program, mode, pool, input
// variables, summary cache, and compiled bytecode with e but records samples
// into the given store. Snapshot.Validate uses one to trial-restore a
// checkpoint without touching e's store. Clones are not meant to run
// concurrently with e: the summary path compiles its bytecode lazily.
func (e *Engine) Clone(samples *sym.SampleStore) *Engine {
	clone := *e
	clone.Samples = samples
	return &clone
}

// Shape returns the program's flattened input shape.
func (e *Engine) Shape() mini.InputShape { return e.shape }

// FuncShape returns the program's function-valued input shape.
func (e *Engine) FuncShape() []mini.FuncParam { return e.funcShape }

// FuncFor returns the uninterpreted function symbol standing for the native
// function of that name (creating it on first use).
func (e *Engine) FuncFor(name string) *sym.Func {
	nat := e.Prog.Natives[name]
	if nat == nil {
		panic("concolic: no native named " + name)
	}
	return e.Pool.FuncSym(name, nat.Arity)
}

// opFunc returns the uninterpreted function symbol for an unknown
// instruction kind ($mul, $div, $mod), per footnote 3 of the paper.
func (e *Engine) opFunc(name string, arity int) *sym.Func {
	if f, ok := e.opFns[name]; ok {
		return f
	}
	f := e.Pool.FuncSym(name, arity)
	e.opFns[name] = f
	return f
}

// NativeEval evaluates a native function concretely; it is the ground-truth
// interpretation of the corresponding uninterpreted function symbol.
func (e *Engine) NativeEval(name string, args []int64) (int64, bool) {
	switch name {
	case "$mul":
		return args[0] * args[1], true
	case "$div":
		if args[1] == 0 {
			return 0, false
		}
		return args[0] / args[1], true
	case "$mod":
		if args[1] == 0 {
			return 0, false
		}
		return args[0] % args[1], true
	}
	if nat, ok := e.Prog.Natives[name]; ok {
		return nat.Fn(args), true
	}
	return 0, false
}
