package smt

import (
	"context"
	"time"

	"hotg/internal/faults"
	"hotg/internal/sym"
)

// ContextOptions configures an incremental solver session.
type ContextOptions struct {
	// Options configures every check of the session exactly as it would a
	// one-shot Solve. VarBounds in particular must stay fixed for the
	// session's lifetime: retained theory lemmas are consequences of the
	// theory *plus these bounds*, so changing bounds mid-session would
	// invalidate them.
	Options

	// Retain enables warm-start mode: the session keeps one SAT solver and
	// CNF compiler alive across checks, so clauses compiled for outer frames
	// are reused by every sibling check, theory lemmas learned in one check
	// survive pops into the next (when their literals are still live), and
	// VSIDS activity plus saved phases carry over. Warm checks are
	// *status-exact* but may return a different (equally valid) model than a
	// fresh Solve, so Retain is for status-only queries (refutation). It
	// engages only while every asserted conjunct is apply-free; a stack with
	// uninterpreted applications falls back to the exact path until the
	// offending frame is popped.
	Retain bool
}

// ctxFrame is one push/pop frame of a session.
type ctxFrame struct {
	start    int // index into conjs of this frame's first conjunct
	marked   bool
	satMark  SATMark
	compMark compMark
}

// ContextStats counts session activity; read it via Stats.
type ContextStats struct {
	Pushes          int
	Pops            int
	Checks          int
	WarmStartHits   int
	ClausesRetained int
}

// Context is an incremental solver session: a push/pop stack of asserted
// formulas with a Check that decides the conjunction of everything currently
// asserted. The default (exact) mode recompiles per check but shares the
// session's Ackermann expansion across checks, and guarantees the same
// Status and Model as a fresh Solve of the same conjunction. Retain mode
// additionally keeps SAT/CNF state warm across checks — see ContextOptions.
//
// A Context is not safe for concurrent use; sessions are cheap, so give each
// goroutine its own.
type Context struct {
	opts   ContextOptions
	frames []ctxFrame
	conjs  []sym.Expr
	ack    *ackState

	// Warm-start state (Retain mode).
	sat         *SAT
	comp        *compiler
	syncedConjs int // prefix of conjs compiled into the warm solver

	stats ContextStats
}

// NewContext starts an empty session.
func NewContext(opts ContextOptions) *Context {
	c := &Context{opts: opts}
	if opts.Pool != nil {
		c.ack = newAckState(opts.Pool)
	}
	if opts.Retain {
		c.sat = NewSAT(opts.MaxConflicts)
		c.sat.SavePhase(true)
		c.comp = newCompiler(c.sat)
		c.comp.journal = true
		// Allocate the constant-true literal before any frame mark so it is
		// never popped out from under a memoized *sym.Bool.
		c.comp.constLit(true)
	}
	return c
}

// Stats returns the session's activity counters.
func (c *Context) Stats() ContextStats { return c.stats }

// Push opens a new assertion frame.
func (c *Context) Push() {
	c.frames = append(c.frames, ctxFrame{start: len(c.conjs)})
	c.stats.Pushes++
	c.opts.Obs.Counter("smt.ctx.pushes").Inc()
}

// Pop discards the newest frame and every assertion made in it. Theory
// lemmas learned during the frame survive when all their literals predate it.
func (c *Context) Pop() {
	n := len(c.frames) - 1
	if n < 0 {
		panic("smt: Context.Pop on empty frame stack")
	}
	fr := c.frames[n]
	c.frames = c.frames[:n]
	c.conjs = c.conjs[:fr.start]
	if fr.marked {
		retained := c.sat.PopTo(fr.satMark)
		c.comp.popTo(fr.compMark)
		if c.syncedConjs > fr.start {
			c.syncedConjs = fr.start
		}
		c.stats.ClausesRetained += retained
		if retained > 0 {
			c.opts.Obs.Counter("smt.ctx.clauses_retained").Add(int64(retained))
		}
	}
	c.stats.Pops++
	c.opts.Obs.Counter("smt.ctx.pops").Inc()
}

// Assert adds f to the newest frame (or to the session base when no frame is
// open). Conjunctions are flattened so per-conjunct state can be shared.
func (c *Context) Assert(f sym.Expr) {
	c.conjs = append(c.conjs, sym.Conjuncts(f)...)
}

// Check decides the conjunction of all current assertions under the
// session's options.
func (c *Context) Check() (Status, *Model) {
	return c.CheckUnder(c.opts.Ctx, c.opts.Deadline)
}

// CheckUnder is Check with a per-call cancellation context and deadline
// overriding the session defaults (zero values fall back to them).
func (c *Context) CheckUnder(ctx context.Context, deadline time.Time) (Status, *Model) {
	if faults.Active().FireSolveTimeout() {
		return StatusTimeout, nil
	}
	opts := c.opts.Options
	if ctx != nil {
		opts.Ctx = ctx
	}
	if !deadline.IsZero() {
		opts.Deadline = deadline
	}
	c.stats.Checks++
	o := opts.Obs
	if !o.Enabled() {
		return c.check(opts)
	}
	t0 := time.Now()
	st, m := c.check(opts)
	o.Counter("smt.ctx.checks").Inc()
	o.Histogram("smt.ctx.check.ns").Observe(int64(time.Since(t0)))
	o.Counter("smt.ctx.check." + st.String()).Inc()
	// A session check answers the same question a one-shot Solve would, so it
	// feeds the same headline metrics — dashboards and the trace tests see
	// solver activity regardless of which path served it.
	o.Histogram("smt.solve.ns").Observe(int64(time.Since(t0)))
	o.Counter("smt.solve.calls").Inc()
	o.Counter("smt.solve." + st.String()).Inc()
	return st, m
}

// SolveUnder decides f in the current session context: push, assert, check,
// pop. It is the session drop-in for a one-shot Solve(f) call.
func (c *Context) SolveUnder(f sym.Expr, ctx context.Context, deadline time.Time) (Status, *Model) {
	c.Push()
	c.Assert(f)
	st, m := c.CheckUnder(ctx, deadline)
	c.Pop()
	return st, m
}

func (c *Context) check(opts Options) (Status, *Model) {
	if c.opts.Retain && c.syncWarm() {
		return c.checkWarm(opts)
	}
	return solveWith(sym.AndExpr(c.conjs...), opts, c.ack)
}

// syncWarm brings the warm solver up to date with the assertion stack,
// compiling any conjuncts pushed or asserted since the last check. It
// reports whether the stack is fully represented; a conjunct containing an
// uninterpreted application stops the sync, sending this check down the
// exact path instead.
func (c *Context) syncWarm() bool {
	c.sat.Reset() // marks must be taken at decision level 0
	reused := c.syncedConjs > 0
	// Compile conjuncts in stack order, taking each frame's mark just before
	// its first conjunct so Pop can restore the solver to that point.
	sync := func(end int) bool {
		for c.syncedConjs < end {
			e := c.conjs[c.syncedConjs]
			if sym.HasApply(e) {
				return false
			}
			top := c.comp.compile(e)
			c.sat.AddClause(top)
			c.syncedConjs++
		}
		return true
	}
	for fi := range c.frames {
		fr := &c.frames[fi]
		if !sync(fr.start) {
			return false
		}
		if !fr.marked {
			fr.satMark = c.sat.Mark()
			fr.compMark = c.comp.mark()
			fr.marked = true
		}
	}
	if !sync(len(c.conjs)) {
		return false
	}
	if reused {
		c.stats.WarmStartHits++
		c.opts.Obs.Counter("smt.ctx.warmstart_hits").Inc()
	}
	return true
}

// checkWarm runs the lazy SAT↔theory loop on the persistent solver. Blocking
// clauses from minimized theory cores are installed as retained theory
// lemmas; each check gets a fresh conflict budget but inherits clauses,
// lemmas, activity and phases from its predecessors.
func (c *Context) checkWarm(opts Options) (Status, *Model) {
	o := opts.Obs
	sat, comp := c.sat, c.comp
	stop := opts.stopProbe()
	sat.SetStop(stop)
	sat.ResetSearch()

	maxRounds := opts.MaxTheoryRounds
	if maxRounds <= 0 {
		maxRounds = 200
	}
	nvars := len(comp.varList)
	bounds := make([]Bound, nvars)
	for i, v := range comp.varList {
		if b, ok := opts.VarBounds[v.ID]; ok {
			bounds[i] = clampBound(b)
		} else {
			bounds[i] = Bound{Lo: -DefaultDomain, Hi: DefaultDomain, HasLo: true, HasHi: true}
		}
	}

	for round := 0; round < maxRounds; round++ {
		var tSAT time.Time
		if o.Enabled() {
			tSAT = time.Now()
		}
		satRes := sat.Solve()
		if o.Enabled() {
			o.Histogram("smt.sat.ns").Observe(int64(time.Since(tSAT)))
		}
		switch satRes {
		case SATUnsat:
			return StatusUnsat, nil
		case SATUnknown:
			if stop != nil && stop() {
				return StatusTimeout, nil
			}
			return StatusUnknown, nil
		}
		ineqs, lits := comp.assertedIneqs()
		var tLIA time.Time
		if o.Enabled() {
			tLIA = time.Now()
		}
		model, st := solveLIA(nvars, ineqs, bounds, opts.MaxNodes, stop)
		if o.Enabled() {
			o.Histogram("smt.lia.ns").Observe(int64(time.Since(tLIA)))
		}
		switch st {
		case StatusSat:
			m := &Model{Vars: make(map[int]int64, nvars), Funcs: map[string]int64{}}
			for i, v := range comp.varList {
				m.Vars[v.ID] = model[i]
			}
			return StatusSat, m
		case StatusUnknown, StatusTimeout:
			return st, nil
		}
		o.Counter("smt.theory_conflicts").Inc()
		core := minimizeCore(nvars, ineqs, bounds, opts.MaxNodes)
		if stop != nil && stop() {
			return StatusTimeout, nil
		}
		block := make([]Lit, 0, len(core))
		for _, idx := range core {
			block = append(block, lits[idx].Flip())
		}
		sat.Reset()
		if !sat.AddTheoryLemma(block...) {
			return StatusUnsat, nil
		}
	}
	return StatusUnknown, nil
}
