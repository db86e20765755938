// Package faults is the pipeline's fault-injection harness. A test (or a
// chaos-style operator drill) installs a Plan describing which failures to
// force — solver timeouts, prover panics, executor crashes — and the
// instrumented layers consult it at their entry points. The production path
// pays one atomic pointer load per potential fault site; with no plan
// installed every probe is a nil check.
//
// The harness exists to *prove* the graceful-degradation story of DESIGN.md
// §8: the search coordinator must survive every injected failure, finish the
// run, and report partial Stats. The tests in internal/search/faults_test.go
// exercise each failure class under the race detector; `make test-faults`
// runs exactly those.
//
// Plans are process-global (the instrumented packages cannot depend on test
// state), so tests that install one must not run in parallel with other
// searches; Set returns a restore function to make scoping mechanical:
//
//	defer faults.Set(&faults.Plan{ProvePanic: true})()
package faults

import "sync/atomic"

// Plan describes which faults to force. Fields are read concurrently by
// worker goroutines; configure the plan fully before Set and do not mutate it
// afterwards (Skip is the one exception — it is decremented atomically by the
// firing probes themselves).
type Plan struct {
	// ProveTimeout makes every fol.ProveCore call report OutcomeTimeout
	// without searching, as if its wall-clock deadline had already expired.
	ProveTimeout bool
	// ProvePanic makes every fol.ProveCore call panic. The search worker
	// wrappers must recover and degrade the target.
	ProvePanic bool
	// SolveTimeout makes every smt.Solve call report StatusTimeout without
	// solving.
	SolveTimeout bool
	// ExecPanic makes every concolic Engine.Run call panic. The search
	// coordinator must recover, drop the item, and keep going.
	ExecPanic bool
	// VMWrongMod makes mini.RunVM compute floored (Python-style) modulo
	// instead of Go's truncated modulo, so results differ from the concolic
	// tree walker exactly when the dividend is negative and the remainder is
	// nonzero. Unlike the crash faults above, this is a *silent semantic*
	// defect: nothing panics and no Stats field flags it — only a
	// differential oracle comparing the VM against the tree walker
	// (internal/difftest, DESIGN.md §10) can catch it. One credit is
	// consumed per RunVM call, not per instruction.
	VMWrongMod bool

	// Skip lets the first Skip firings (across all fault kinds) pass through
	// unharmed before faults start triggering, so a search can make partial
	// progress first. Decremented atomically.
	Skip int64
}

// active is the installed plan; nil means no fault injection.
var active atomic.Pointer[Plan]

// Set installs the plan and returns a function restoring the previous one.
// A nil plan disables injection.
func Set(p *Plan) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// Active returns the installed plan, or nil.
func Active() *Plan { return active.Load() }

// fire consumes one Skip credit if any remain, returning whether the fault
// should trigger given its enable flag. The receiver is non-nil: the Fire*
// wrappers below guard before touching any field (the enable flag is a field
// access, so the nil check cannot live here).
func (p *Plan) fire(enabled bool) bool {
	if !enabled {
		return false
	}
	return atomic.AddInt64(&p.Skip, -1) < 0
}

// FireProveTimeout reports whether this ProveCore call must time out.
func (p *Plan) FireProveTimeout() bool { return p != nil && p.fire(p.ProveTimeout) }

// FireProvePanic reports whether this ProveCore call must panic.
func (p *Plan) FireProvePanic() bool { return p != nil && p.fire(p.ProvePanic) }

// FireSolveTimeout reports whether this smt.Solve call must time out.
func (p *Plan) FireSolveTimeout() bool { return p != nil && p.fire(p.SolveTimeout) }

// FireExecPanic reports whether this Engine.Run call must panic.
func (p *Plan) FireExecPanic() bool { return p != nil && p.fire(p.ExecPanic) }

// FireVMWrongMod reports whether this mini.RunVM call must miscompute modulo.
func (p *Plan) FireVMWrongMod() bool { return p != nil && p.fire(p.VMWrongMod) }
