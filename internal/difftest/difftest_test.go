package difftest

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"hotg/internal/concolic"
	"hotg/internal/faults"
	"hotg/internal/fol"
	"hotg/internal/mini"
	"hotg/internal/search"
	"hotg/internal/sym"
)

// quickCfg keeps the seeded pass fast enough for `make verify` under -race.
var quickCfg = Config{MaxRuns: 25, Workers: []int{1, 2}}

// TestFolOracleSeededPass is the deterministic O2/O3 formula pass: prover
// verdicts against exhaustive finite-domain enumeration, strategy replay per
// table, and the formula-level metamorphic relations. Every seed must be
// clean — any finding is a real prover/refuter bug.
func TestFolOracleSeededPass(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 20
	}
	for seed := int64(1); seed <= n; seed++ {
		c := NewFolCase(seed)
		for _, f := range CheckO2(c) {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// TestFolOracleKnownVerdicts anchors the enumeration on the worked examples:
// ∃x,y: h(x)=h(y) is valid (pick x=y — Example 5's EUF shape), and
// h(x) ≠ h(x) is invalid (any constant completion refutes it).
func TestFolOracleKnownVerdicts(t *testing.T) {
	c := &FolCase{Seed: 0, Pool: &sym.Pool{}}
	c.X = c.Pool.NewVar("x")
	c.Y = c.Pool.NewVar("y")
	c.H = c.Pool.FuncSym("h", 1)
	c.Samples = sym.NewSampleStore()

	hx := sym.ApplyTerm(c.H, sym.VarTerm(c.X))
	hy := sym.ApplyTerm(c.H, sym.VarTerm(c.Y))

	c.Conjs = []sym.Expr{sym.Eq(hx, hy)}
	c.PC = sym.AndExpr(c.Conjs...)
	if _, out := c.prove(c.PC, c.Samples); out != fol.OutcomeProved {
		t.Errorf("h(x)=h(y): got %v, want Proved", out)
	}
	if valid, _ := c.groundValid(c.PC, c.Samples); !valid {
		t.Error("h(x)=h(y): enumeration disagrees with validity")
	}
	for _, f := range CheckO2(c) {
		t.Errorf("h(x)=h(y): %s", f)
	}

	c.Conjs = []sym.Expr{sym.Ne(hx, hx)}
	c.PC = sym.AndExpr(c.Conjs...)
	if _, out := c.prove(c.PC, c.Samples); out != fol.OutcomeInvalid {
		t.Errorf("h(x)!=h(x): got %v, want Invalid", out)
	}
	if valid, _ := c.groundValid(c.PC, c.Samples); valid {
		t.Error("h(x)!=h(x): enumeration found a witness for an unsatisfiable pc")
	}
	for _, f := range CheckO2(c) {
		t.Errorf("h(x)!=h(x): %s", f)
	}
}

// TestProgramOracleSeededPass is the deterministic O1/O3 program pass: every
// technique end-to-end on generated programs, replay and walker/VM
// agreement, and the metamorphic relations (workers, renaming,
// checkpoint/kill/resume).
func TestProgramOracleSeededPass(t *testing.T) {
	n := int64(6)
	if testing.Short() {
		n = 2
	}
	for seed := int64(1); seed <= n; seed++ {
		c := NewCase(seed)
		for _, f := range CheckCase(c, quickCfg) {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// TestCallbackReplayProperty is the function-input replay property at scale:
// over 1000 generated higher-order programs, every run executed under
// synthesized function values replays — through the concolic tree walker AND
// the compiled VM — to the exact recorded path and verdict. This is the
// soundness half of witness construction: a decision table the search
// invented is only a test input if it deterministically reproduces the run
// that reported it.
func TestCallbackReplayProperty(t *testing.T) {
	n := int64(1000)
	if testing.Short() {
		n = 100
	}
	replayed := 0
	for seed := int64(1); seed <= n; seed++ {
		c := NewCallbackCase(seed)
		var recs []search.RunRecord
		// A tight per-proof deadline keeps the 1000-seed sweep bounded: a
		// timed-out target just generates no test, and replay fidelity is
		// checked on whatever tests the search did construct.
		eng := concolic.New(c.Prog, concolic.ModeHigherOrder)
		search.Run(eng, search.Options{
			MaxRuns: 8, Seeds: c.Seeds, Bounds: c.Bounds,
			OnRun:  func(r search.RunRecord) { recs = append(recs, r) },
			Budget: search.Budget{ProofTimeout: 50 * time.Millisecond, Degrade: true},
		})
		compiled := mini.CompileVM(c.Prog)
		walker := concolic.New(c.Prog, concolic.ModeUnsound)
		for _, rec := range recs {
			synthesized := false
			for _, s := range rec.Funcs {
				if s != "" {
					synthesized = true
				}
			}
			if !synthesized {
				continue
			}
			replayed++
			opts, err := replayOpts(rec.Funcs)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, rec.Run, err)
			}
			walked := walker.RunWith(rec.Input, opts.Funcs).Result
			if walked.Path() != rec.Path {
				t.Errorf("seed %d run %d: recorded path %q, walker replays %q under funcs %v",
					seed, rec.Run, rec.Path, walked.Path(), rec.Funcs)
				continue
			}
			vmres := mini.RunVM(compiled, rec.Input, opts)
			if d := diffResults(walked, vmres); d != "" {
				t.Errorf("seed %d run %d: %s (funcs %v)", seed, rec.Run, d, rec.Funcs)
			}
			for _, bug := range rec.Bugs {
				if d := diffBug(bug, walked); d != "" {
					t.Errorf("seed %d run %d: walker verdict: %s", seed, rec.Run, d)
				}
				if d := diffBug(bug, vmres); d != "" {
					t.Errorf("seed %d run %d: vm verdict: %s", seed, rec.Run, d)
				}
			}
		}
	}
	min := 200
	if testing.Short() {
		min = 20
	}
	if replayed < min {
		t.Fatalf("property is close to vacuous: only %d runs carried synthesized functions", replayed)
	}
}

// TestCallbackOracleSeededPass extends the O1 pass with a callback-workload
// row: the full replay and differential oracle on generated higher-order
// programs. Every seed must be clean.
func TestCallbackOracleSeededPass(t *testing.T) {
	n := int64(6)
	if testing.Short() {
		n = 2
	}
	for seed := int64(1); seed <= n; seed++ {
		c := NewCallbackCase(seed)
		for _, f := range CheckO1(c, quickCfg) {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// huntVMWrongMod finds the first generated program on which the injected
// silent VM defect (floored modulo) is caught by the O1 differential oracle.
func huntVMWrongMod(t *testing.T, maxSeed int64) (*Case, Finding) {
	t.Helper()
	for seed := int64(1); seed <= maxSeed; seed++ {
		c := NewCase(seed)
		restore := faults.Set(&faults.Plan{VMWrongMod: true})
		findings := CheckO1(c, quickCfg)
		restore()
		if len(findings) > 0 {
			f := findings[0]
			f.Fault = "vm-wrong-mod"
			return c, f
		}
	}
	t.Fatalf("no generated program up to seed %d exposes VMWrongMod", maxSeed)
	return nil, Finding{}
}

// TestInjectedVMFaultCaughtAndShrunk is the acceptance check of the whole
// subsystem: a seeded known-bad program (the VMWrongMod silent
// miscompilation) is caught by the oracle and the shrinker reduces the
// reproducer to at most 10 statements.
//
// Run with DIFFTEST_REGEN=1 to regenerate the committed corpus entry under
// testdata/regress.
func TestInjectedVMFaultCaughtAndShrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking re-runs searches; skipped in -short")
	}
	_, f := huntVMWrongMod(t, 50)

	min, stmts, err := MinimizeFinding(f, quickCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stmts > 10 {
		t.Errorf("shrunk reproducer has %d statements, want <= 10:\n%s", stmts, min)
	}

	// The minimized program must still be caught, and must be clean without
	// the fault.
	reg := Regression{
		Name: "vm-wrong-mod", Oracle: f.Oracle, Relation: f.Relation,
		Fault: "vm-wrong-mod", Source: min, Stmts: stmts, Seed: f.Seed,
		Detail: f.Detail,
	}
	got, err := ReplayRegression(reg, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("minimized reproducer no longer triggers the oracle under the fault")
	}
	clean, err := ReplayRegression(Regression{Name: reg.Name, Source: min, Seed: f.Seed}, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) != 0 {
		t.Fatalf("minimized reproducer fails the oracle even without the fault: %v", clean)
	}

	if os.Getenv("DIFFTEST_REGEN") != "" {
		path, err := WriteRegression(filepath.Join("testdata", "regress"), reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d statements)", path, stmts)
	}
}

// TestRegressionCorpusReplays pins every committed reproducer: each corpus
// entry must still trigger its oracle under its fault plan, must be clean
// without it, and must respect the <= 10 statement bound.
func TestRegressionCorpusReplays(t *testing.T) {
	regs, err := LoadRegressions(filepath.Join("testdata", "regress"))
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 {
		t.Fatal("regression corpus is empty; run with DIFFTEST_REGEN=1 to seed it")
	}
	foundInjected := false
	for _, reg := range regs {
		if reg.Fault == "vm-wrong-mod" {
			foundInjected = true
		}
		prog, err := mini.Parse(reg.Source)
		if err != nil {
			t.Errorf("%s: does not parse: %v", reg.Name, err)
			continue
		}
		if n := CountStmts(prog); n != reg.Stmts {
			t.Errorf("%s: statement count drifted: recorded %d, counted %d", reg.Name, reg.Stmts, n)
		}
		if reg.Stmts > 10 {
			t.Errorf("%s: corpus entry has %d statements, want <= 10", reg.Name, reg.Stmts)
		}
		findings, err := ReplayRegression(reg, quickCfg)
		if err != nil {
			t.Errorf("%s: %v", reg.Name, err)
			continue
		}
		if reg.Fault != "" {
			if len(findings) == 0 {
				t.Errorf("%s: no longer triggers the oracle under fault %q", reg.Name, reg.Fault)
			}
			clean, err := ReplayRegression(Regression{Name: reg.Name, Source: reg.Source, Seed: reg.Seed}, quickCfg)
			if err != nil {
				t.Errorf("%s: %v", reg.Name, err)
			} else if len(clean) != 0 {
				t.Errorf("%s: fails the oracle even without its fault: %v", reg.Name, clean)
			}
		} else if len(findings) == 0 {
			t.Errorf("%s: pinned genuine defect no longer reproduces", reg.Name)
		}
	}
	if !foundInjected {
		t.Error("corpus has no vm-wrong-mod entry (the seeded known-bad program)")
	}
}

// TestRenameSourcePreservesBehavior checks the renamer itself: the renamed
// program, run on the VM, behaves like the original on the tree walker.
func TestRenameSourcePreservesBehavior(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := NewCase(seed)
		renamed, err := RenameSource(c.Src, c.Natives)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog2 := mini.MustCheck(mini.MustParse(renamed), c.Natives)
		for _, in := range [][]int64{c.Seeds[0], make([]int64, len(c.Seeds[0]))} {
			a := concolic.New(c.Prog, concolic.ModeUnsound).Run(in).Result
			b := mini.RunVM(mini.CompileVM(prog2), in, mini.RunOptions{})
			if d := diffResults(a, b); d != "" {
				t.Errorf("seed %d input %v: %s", seed, in, d)
			}
		}
	}
}
