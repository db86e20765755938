package eval

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"hotg/internal/concolic"
	"hotg/internal/fol"
	"hotg/internal/fuzz"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/search"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// dynamicModes are the four execution-based techniques plus the static
// baseline, in report order.
var allModes = []concolic.Mode{
	concolic.ModeStatic,
	concolic.ModeUnsound,
	concolic.ModeSound,
	concolic.ModeSoundDelayed,
	concolic.ModeHigherOrder,
}

func runSearch(cfg Config, w *lexapp.Workload, mode concolic.Mode, opts search.Options) *search.Stats {
	eng := concolic.New(w.Build(), mode)
	if opts.Seeds == nil {
		opts.Seeds = w.Seeds
	}
	if opts.Bounds == nil {
		opts.Bounds = w.Bounds
	}
	if opts.Obs == nil {
		opts.Obs = cfg.Obs
	}
	if opts.Workers == 0 {
		opts.Workers = cfg.Workers
	}
	if !opts.Budget.Active() && (cfg.ProofTimeout > 0 || cfg.Degrade) {
		opts.Budget = search.Budget{ProofTimeout: cfg.ProofTimeout, Degrade: cfg.Degrade}
	}
	return search.Run(eng, opts)
}

func foundBug(st *search.Stats) string {
	if n := len(st.ErrorSitesFound()); n > 0 {
		return fmt.Sprintf("yes (%d)", n)
	}
	return "no"
}

func firstBugRun(st *search.Stats) string {
	best := -1
	for _, b := range st.Bugs {
		if b.Kind == mini.StopError && (best == -1 || b.Run < best) {
			best = b.Run
		}
	}
	if best == -1 {
		return "—"
	}
	return fmt.Sprintf("%d", best)
}

// E1Obscure reproduces the introduction: on obscure(), static test generation
// cannot generate tests for either branch, while every dynamic technique
// covers both branches within a couple of runs.
func E1Obscure(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E1",
		Title: "obscure(): static vs dynamic test generation",
		PaperClaim: "\"static test generation is unable to generate test inputs to control the " +
			"execution of the program obscure, while dynamic test generation can easily drive " +
			"the executions of that same program through all its feasible program paths\" (§1)",
		Columns: []string{"technique", "bug found", "first-bug run", "runs", "branch sides", "incomplete"},
	}
	w := lexapp.Obscure()
	st := fuzz.Run(w.Build(), fuzz.Options{MaxRuns: 50, Seeds: w.Seeds, Rand: rand.New(rand.NewSource(cfg.Seed))})
	t.addRow("blackbox-random", foundBug(st), firstBugRun(st), fmt.Sprintf("%d", st.Runs),
		fmt.Sprintf("%d/%d", st.BranchSidesCovered(), st.BranchSidesTotal()), "-")
	t.claim(len(st.ErrorSitesFound()) == 0, "blackbox random testing cannot crack the hash guard")

	for _, mode := range allModes {
		st := runSearch(cfg, lexapp.Obscure(), mode, search.Options{MaxRuns: 50})
		t.addRow(mode.String(), foundBug(st), firstBugRun(st), fmt.Sprintf("%d", st.Runs),
			fmt.Sprintf("%d/%d", st.BranchSidesCovered(), st.BranchSidesTotal()),
			fmt.Sprintf("%v", st.Incomplete))
		found := len(st.ErrorSitesFound()) > 0
		if mode == concolic.ModeStatic {
			t.claim(!found && st.Incomplete, "static test generation is helpless on obscure()")
		} else {
			t.claim(found && st.Runs <= 3, "%v finds the bug within 3 runs", mode)
		}
	}
	return t
}

// E2PathConstraints reproduces Sections 3.2, 3.3 and 4.1 on foo(): the exact
// path constraints of each technique, the fate of the alternate constraint,
// and whether negating it diverges.
func E2PathConstraints(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E2",
		Title: "foo(): path constraints, soundness, divergence (covers E3)",
		PaperClaim: "unsound pc \"x=567 ∧ y≠10\" diverges when negated (§3.2); sound pc " +
			"\"y=42 ∧ x=567 ∧ y≠10\" has an unsatisfiable ALT (Example 1); higher-order pc is " +
			"\"x=h(y) ∧ y≠10\" (§4.1)",
		Columns: []string{"mode", "path constraint", "ALT(last)", "negation outcome"},
	}
	w := lexapp.Foo()
	h42 := lexapp.ScrambledHash([]int64{42})
	seed := w.Seeds[0]

	// Unsound concretization.
	eng := concolic.New(w.Build(), concolic.ModeUnsound)
	ex := eng.Run(seed)
	t.claim(len(ex.PC) == 2 && !ex.PC[0].IsConcretization,
		"unsound pc is x=%d ∧ y≠10 with no concretization record", h42)
	alt := ex.Alt(len(ex.PC) - 1)
	st, model := smt.Solve(alt, smt.Options{Pool: eng.Pool})
	negOutcome := "—"
	if st == smt.StatusSat {
		in := []int64{seed[0], seed[1]}
		for i, v := range eng.InputVars {
			if val, ok := model.Vars[v.ID]; ok {
				in[i] = val
			}
		}
		ex2 := eng.Run(in)
		if ex2.Result.Path() != "11" { // predicted: both guards taken
			negOutcome = fmt.Sprintf("divergence (input x=%d y=%d)", in[0], in[1])
		} else {
			negOutcome = "reached target"
		}
	}
	t.addRow("dart-unsound", fmt.Sprint(ex.Formula()), st.String(), negOutcome)
	t.claim(st == smt.StatusSat && negOutcome != "reached target",
		"negating the unsound pc yields a divergent test")

	// Sound concretization.
	engS := concolic.New(w.Build(), concolic.ModeSound)
	exS := engS.Run(seed)
	altS := exS.Alt(len(exS.PC) - 1)
	stS, _ := smt.Solve(altS, smt.Options{Pool: engS.Pool})
	t.addRow("dart-sound", fmt.Sprint(exS.Formula()), stS.String(), "no test generated")
	t.claim(len(exS.PC) == 3 && exS.PC[0].IsConcretization,
		"sound pc records the concretization constraint y=42 first")
	t.claim(stS == smt.StatusUnsat, "the sound ALT is unsatisfiable (Example 1): no divergence possible")

	// Higher-order.
	engH := concolic.New(w.Build(), concolic.ModeHigherOrder)
	exH := engH.Run(seed)
	altH := exH.Alt(len(exH.PC) - 1)
	strat, out := fol.Prove(altH, engH.Samples, fol.Options{
		Pool: engH.Pool, Fallback: map[int]int64{engH.InputVars[0].ID: seed[0], engH.InputVars[1].ID: seed[1]},
	})
	hoOutcome := out.String()
	if out == fol.OutcomeProved {
		res := strat.Resolve(engH.Samples)
		if !res.Complete {
			hoOutcome = fmt.Sprintf("proved; needs sample %v (two-step)", res.Probes)
		}
	}
	t.addRow("higher-order", fmt.Sprint(exH.Formula()), "validity check", hoOutcome)
	t.claim(len(exH.PC) == 2 && exH.UFApps == 1,
		"higher-order pc is x=h(y) ∧ y≠10 with one uninterpreted application")
	t.claim(out == fol.OutcomeProved, "POST(ALT) is proved valid")
	t.note("POST(ALT) = %s", fol.PostString(altH, engH.Samples))
	return t
}

// E4GoodDivergence reproduces Example 2 on foo-bis.
func E4GoodDivergence(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E4",
		Title: "foo-bis(): the good divergence",
		PaperClaim: "\"no new test is generated ... and the error is missed [by sound " +
			"concretization]. In contrast, unsound concretization ... is likely (but not " +
			"guaranteed) to hit the error\" (Example 2)",
		Columns: []string{"mode", "bug found", "divergences", "runs"},
	}
	for _, mode := range []concolic.Mode{concolic.ModeSound, concolic.ModeUnsound, concolic.ModeHigherOrder} {
		st := runSearch(cfg, lexapp.FooBis(), mode, search.Options{MaxRuns: 50})
		t.addRow(mode.String(), foundBug(st), fmt.Sprintf("%d", st.Divergences), fmt.Sprintf("%d", st.Runs))
		found := len(st.ErrorSitesFound()) > 0
		switch mode {
		case concolic.ModeSound:
			t.claim(!found, "sound concretization misses the bug")
			t.claim(st.Divergences == 0, "sound concretization never diverges")
		case concolic.ModeUnsound:
			t.claim(found, "unsound concretization finds the bug (a good divergence)")
		case concolic.ModeHigherOrder:
			t.claim(found && st.Divergences == 0, "higher-order finds the bug without diverging")
		}
	}
	return t
}

// E5Incomparable reproduces Example 3 on bar.
func E5Incomparable(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E5",
		Title: "bar(): higher-order vs unsound concretization are incomparable",
		PaperClaim: "\"unsound concretization will generate an unsound path constraint ... which " +
			"will likely lead to a divergence. In contrast, ... no new test will be generated " +
			"since this formula is invalid\" (Example 3)",
		Columns: []string{"mode", "bug found", "divergences", "invalid verdicts"},
	}
	un := runSearch(cfg, lexapp.Bar(), concolic.ModeUnsound, search.Options{MaxRuns: 50})
	t.addRow("dart-unsound", foundBug(un), fmt.Sprintf("%d", un.Divergences), "-")
	t.claim(un.Divergences > 0, "unsound concretization diverges on bar")

	ho := runSearch(cfg, lexapp.Bar(), concolic.ModeHigherOrder, search.Options{MaxRuns: 50, Refute: true})
	t.addRow("higher-order", foundBug(ho), fmt.Sprintf("%d", ho.Divergences), fmt.Sprintf("%d", ho.ProverInvalid))
	t.claim(ho.ProverInvalid > 0, "higher-order proves ∃x,y: x=h(y) ∧ y=h(x) invalid")
	t.claim(ho.Divergences == 0 && len(ho.ErrorSitesFound()) == 0,
		"higher-order generates no bogus test and never diverges")
	return t
}

// E6SamplesNeeded reproduces Example 4: without the sample antecedent the
// post-processed formula is invalid; with h(1)=5 recorded it is proved.
func E6SamplesNeeded(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E6",
		Title: "pub(): uninterpreted function samples are necessary",
		PaperClaim: "\"no new test will be generated since this formula is invalid (... h(x)=0 for " +
			"all x) ... with uninterpreted function samples, we then obtain ... which is valid\" (Example 4)",
		Columns: []string{"antecedent", "formula", "outcome", "witness"},
	}
	var p sym.Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	h := p.FuncSym("h", 1)
	pc := sym.AndExpr(
		sym.Gt(sym.ApplyTerm(h, sym.VarTerm(x)), sym.Int(0)),
		sym.Eq(sym.VarTerm(y), sym.Int(10)),
	)

	empty := sym.NewSampleStore()
	_, out := fol.Prove(pc, empty, fol.Options{Pool: &p})
	t.addRow("(none)", fol.PostString(pc, empty), out.String(), "—")
	t.claim(out == fol.OutcomeInvalid, "without samples the formula is invalid (h ≡ 0 refutes it)")

	withS := sym.NewSampleStore()
	withS.Add(h, []int64{1}, 5)
	strat, out2 := fol.Prove(pc, withS, fol.Options{Pool: &p})
	witness := "—"
	if out2 == fol.OutcomeProved {
		res := strat.Resolve(withS)
		witness = fmt.Sprintf("x=%d y=%d", res.Values[x.ID], res.Values[y.ID])
	}
	t.addRow("h(1)=5", fol.PostString(pc, withS), out2.String(), witness)
	t.claim(out2 == fol.OutcomeProved && witness == "x=1 y=10",
		"with the sample antecedent the formula is valid with witness (x=1, y=10)")

	// End-to-end: the pub program under higher-order search.
	st := runSearch(cfg, lexapp.Pub(), concolic.ModeHigherOrder, search.Options{MaxRuns: 50})
	t.note("end-to-end on pub(): %s", st.Summary())
	t.claim(len(st.ErrorSitesFound()) == 1, "higher-order search reaches pub's error site")
	return t
}

// E7EUFEquality reproduces Example 5.
func E7EUFEquality(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E7",
		Title: "∃x,y: f(x)=f(y) — validity via EUF",
		PaperClaim: "\"Higher-order test generation can generate tests from validity proofs of ... " +
			"∃x,y: f(x)=f(y) ... (Solution strategy: set x = y). In contrast, sound concretization " +
			"... would not be able to generate a test\" (Example 5)",
		Columns: []string{"technique", "outcome", "strategy / result"},
	}
	var p sym.Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	f := p.FuncSym("f", 1)
	pc := sym.Eq(sym.ApplyTerm(f, sym.VarTerm(x)), sym.ApplyTerm(f, sym.VarTerm(y)))
	strat, out := fol.Prove(pc, sym.NewSampleStore(), fol.Options{Pool: &p})
	desc := "—"
	ok := false
	if out == fol.OutcomeProved {
		res := strat.Resolve(sym.NewSampleStore())
		ok = res.Complete && res.Values[x.ID] == res.Values[y.ID]
		desc = fmt.Sprintf("%v ⇒ x=%d y=%d", strat, res.Values[x.ID], res.Values[y.ID])
	}
	t.addRow("higher-order (fol)", out.String(), desc)
	t.claim(ok, "validity proved with strategy x := y")

	so := runSearch(cfg, lexapp.EqPair(), concolic.ModeSound, search.Options{MaxRuns: 50})
	t.addRow("dart-sound (search)", foundBug(so), so.Summary())
	t.claim(len(so.ErrorSitesFound()) == 0, "sound concretization cannot reach the hash(x)==hash(y) branch")

	ho := runSearch(cfg, lexapp.EqPair(), concolic.ModeHigherOrder, search.Options{MaxRuns: 50})
	t.addRow("higher-order (search)", foundBug(ho), ho.Summary())
	t.claim(len(ho.ErrorSitesFound()) == 1 && ho.Divergences == 0,
		"higher-order search reaches it divergence-free")
	return t
}

// E8SamplePairs reproduces Example 6.
func E8SamplePairs(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E8",
		Title: "∃x,y: f(x)=f(y)+1 — the antecedent enables validity",
		PaperClaim: "\"This formula is in general invalid ... assume that it is dynamically observed " +
			"that f(0)=0 and f(1)=1 ... This formula is valid (solution strategy: set x=1 and y=0)\" (Example 6)",
		Columns: []string{"antecedent", "outcome", "witness"},
	}
	var p sym.Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	f := p.FuncSym("f", 1)
	pc := sym.Eq(sym.ApplyTerm(f, sym.VarTerm(x)), sym.AddSum(sym.ApplyTerm(f, sym.VarTerm(y)), sym.Int(1)))

	_, out := fol.Prove(pc, sym.NewSampleStore(), fol.Options{Pool: &p})
	t.addRow("(none)", out.String(), "—")
	t.claim(out == fol.OutcomeInvalid, "without samples the formula is invalid (f ≡ 0 refutes it)")

	samples := sym.NewSampleStore()
	samples.Add(f, []int64{0}, 0)
	samples.Add(f, []int64{1}, 1)
	strat, out2 := fol.Prove(pc, samples, fol.Options{Pool: &p})
	witness := "—"
	if out2 == fol.OutcomeProved {
		res := strat.Resolve(samples)
		witness = fmt.Sprintf("x=%d y=%d", res.Values[x.ID], res.Values[y.ID])
	}
	t.addRow("f(0)=0 ∧ f(1)=1", out2.String(), witness)
	t.claim(out2 == fol.OutcomeProved && witness == "x=1 y=0",
		"with samples the formula is valid with witness (x=1, y=0)")

	ho := runSearch(cfg, lexapp.SuccPair(), concolic.ModeHigherOrder, search.Options{MaxRuns: 50})
	t.note("end-to-end on succ-pair: %s", ho.Summary())
	t.claim(len(ho.ErrorSitesFound()) == 1, "higher-order search reaches hash(x)==hash(y)+1")
	return t
}

// E9MultiStep reproduces Example 7 and its k-step generalization.
func E9MultiStep(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E9",
		Title: "multi-step test generation",
		PaperClaim: "\"A new intermediate test ... is necessary to learn the value of h(10) ... This " +
			"is an example of two-step test generation. Of course, such examples can easily be " +
			"generalized to k-step test generation\" (Example 7)",
		Columns: []string{"workload", "bug found", "first-bug run", "multi-step chains", "intermediate tests", "divergences"},
	}
	for _, w := range []*lexapp.Workload{lexapp.Foo(), lexapp.KStep(3)} {
		st := runSearch(cfg, w, concolic.ModeHigherOrder, search.Options{MaxRuns: 200, MaxMultiStep: 4})
		t.addRow(w.Name, foundBug(st), firstBugRun(st),
			fmt.Sprintf("%d", st.MultiStepChains), fmt.Sprintf("%d", st.IntermediateTests),
			fmt.Sprintf("%d", st.Divergences))
		t.claim(len(st.ErrorSitesFound()) == 1, "%s: the deep bug is reached", w.Name)
		t.claim(st.MultiStepChains > 0 && st.IntermediateTests > 0,
			"%s: intermediate sample-collecting tests were needed", w.Name)
		t.claim(st.Divergences == 0, "%s: no divergence", w.Name)
	}
	return t
}

// E10Soundness measures Theorems 2 and 3 empirically: the fraction of
// path-constraint models whose replay follows the original path.
func E10Soundness(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E10",
		Title: "path-constraint soundness rates (Theorems 2 and 3)",
		PaperClaim: "\"The algorithm ... with sound concretization ... generates sound path " +
			"constraints\" (Thm 2); \"The algorithm of Figure 3 generates sound path constraints\" (Thm 3)",
		Columns: []string{"mode", "programs", "models checked", "replays on-path", "soundness rate"},
	}
	nProgs := 30
	if cfg.Quick {
		nProgs = 12
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	natives := mini.Natives{}
	natives.Register("hash", 1, lexapp.ScrambledHash)

	type progCase struct {
		prog *mini.Program
		in   []int64
	}
	var cases []progCase
	// The foo program guarantees at least one deterministic unsoundness
	// witness for the unsound mode.
	fooW := lexapp.Foo()
	cases = append(cases, progCase{fooW.Build(), fooW.Seeds[0]})
	for i := 0; i < nProgs; i++ {
		src := mini.GenProgram(r, mini.GenConfig{Natives: []string{"hash"}})
		p := mini.MustCheck(mini.MustParse(src), natives)
		cases = append(cases, progCase{p, []int64{int64(r.Intn(21) - 10), int64(r.Intn(21) - 10), int64(r.Intn(21) - 10)}})
	}

	for _, mode := range []concolic.Mode{concolic.ModeUnsound, concolic.ModeSound, concolic.ModeSoundDelayed, concolic.ModeHigherOrder} {
		checked, onPath := 0, 0
		for _, c := range cases {
			eng := concolic.New(c.prog, mode)
			ex := eng.Run(c.in)
			if ex.Result.Kind == mini.StopRuntime {
				continue
			}
			if mode == concolic.ModeHigherOrder {
				// Sample mutants filtered through the pc under the real
				// native interpretation.
				f := ex.Formula()
				for trial := 0; trial < 20; trial++ {
					in2 := make([]int64, len(c.in))
					copy(in2, c.in)
					for k := range in2 {
						if r.Intn(2) == 0 {
							in2[k] = int64(r.Intn(21) - 10)
						}
					}
					env := sym.Env{Vars: map[int]int64{}, Fn: func(fn *sym.Func, args []int64) (int64, bool) {
						return eng.NativeEval(fn.Name, args)
					}}
					for i, v := range eng.InputVars {
						env.Vars[v.ID] = in2[i]
					}
					holds, err := sym.EvalBool(f, env)
					if err != nil || !holds {
						continue
					}
					checked++
					if eng.Run(in2).Result.Path() == ex.Result.Path() {
						onPath++
					}
				}
				continue
			}
			st, m := smt.Solve(ex.Formula(), smt.Options{Pool: eng.Pool})
			if st != smt.StatusSat {
				continue
			}
			in2 := make([]int64, len(c.in))
			copy(in2, c.in)
			for i, v := range eng.InputVars {
				if val, ok := m.Vars[v.ID]; ok {
					in2[i] = val
				}
			}
			checked++
			if eng.Run(in2).Result.Path() == ex.Result.Path() {
				onPath++
			}
		}
		rate := "—"
		if checked > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(onPath)/float64(checked))
		}
		t.addRow(mode.String(), fmt.Sprintf("%d", len(cases)), fmt.Sprintf("%d", checked),
			fmt.Sprintf("%d", onPath), rate)
		switch mode {
		case concolic.ModeUnsound:
			t.claim(onPath < checked, "unsound concretization produces unsound path constraints")
		default:
			t.claim(checked > 0 && onPath == checked, "%v path constraints are sound (100%% replay)", mode)
		}
	}
	return t
}

// E11Simulation checks Theorem 4: whenever sound concretization can flip a
// constraint (ALT satisfiable), higher-order test generation proves the
// corresponding POST(ALT) valid.
func E11Simulation(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E11",
		Title: "Theorem 4 (simulation): higher-order subsumes sound concretization",
		PaperClaim: "\"If ALT(pc_SC) is satisfiable, then POST(ALT(pc_UF)) is valid\" (Theorem 4, " +
			"with samples recorded)",
		Columns: []string{"suite", "targets", "sound-ALT sat", "higher-order proved", "violations"},
	}
	natives := mini.Natives{}
	natives.Register("hash", 1, lexapp.ScrambledHash)
	r := rand.New(rand.NewSource(cfg.Seed))

	nProgs := 25
	if cfg.Quick {
		nProgs = 10
	}
	type suite struct {
		name  string
		progs []*mini.Program
		ins   [][]int64
	}
	var suites []suite
	paper := suite{name: "paper examples"}
	for _, w := range []*lexapp.Workload{lexapp.Obscure(), lexapp.Foo(), lexapp.FooBis(), lexapp.Bar(), lexapp.Pub()} {
		paper.progs = append(paper.progs, w.Build())
		paper.ins = append(paper.ins, w.Seeds[0])
	}
	suites = append(suites, paper)
	random := suite{name: "random programs"}
	for i := 0; i < nProgs; i++ {
		src := mini.GenProgram(r, mini.GenConfig{Natives: []string{"hash"}})
		random.progs = append(random.progs, mini.MustCheck(mini.MustParse(src), natives))
		random.ins = append(random.ins, []int64{int64(r.Intn(21) - 10), int64(r.Intn(21) - 10), int64(r.Intn(21) - 10)})
	}
	suites = append(suites, random)

	for _, su := range suites {
		targets, satALT, proved, violations := 0, 0, 0, 0
		for pi, prog := range su.progs {
			in := su.ins[pi]
			engS := concolic.New(prog, concolic.ModeSound)
			exS := engS.Run(in)
			engH := concolic.New(prog, concolic.ModeHigherOrder)
			exH := engH.Run(in)

			// Index higher-order constraints by branch-event position.
			hoByEvent := map[int]int{}
			for k, c := range exH.PC {
				if !c.IsConcretization {
					hoByEvent[c.EventIndex] = k
				}
			}
			fb := map[int]int64{}
			for i, v := range engH.InputVars {
				fb[v.ID] = in[i]
			}
			for k, c := range exS.PC {
				if c.IsConcretization {
					continue
				}
				targets++
				st, _ := smt.Solve(exS.Alt(k), smt.Options{Pool: engS.Pool})
				if st != smt.StatusSat {
					continue
				}
				satALT++
				kh, ok := hoByEvent[c.EventIndex]
				if !ok {
					violations++
					continue
				}
				_, out := fol.Prove(exH.Alt(kh), engH.Samples, fol.Options{
					Pool: engH.Pool, Fallback: fb, NoRefute: true,
				})
				if out == fol.OutcomeProved {
					proved++
				} else {
					violations++
				}
			}
		}
		t.addRow(su.name, fmt.Sprintf("%d", targets), fmt.Sprintf("%d", satALT),
			fmt.Sprintf("%d", proved), fmt.Sprintf("%d", violations))
		t.claim(violations == 0 && satALT > 0,
			"%s: every satisfiable sound ALT has a valid higher-order POST (%d/%d)", su.name, proved, satALT)
	}
	return t
}

// lexerRow runs one technique on a lexer workload and renders its row.
func lexerRow(t *Table, w *lexapp.Workload, name string, st *search.Stats) {
	kwIDs := lexapp.KeywordBranchIDs(w.Build())
	kw := 0
	for _, id := range kwIDs {
		if st.SideCovered(id, true) {
			kw++
		}
	}
	t.addRow(name,
		fmt.Sprintf("%d", st.Runs),
		fmt.Sprintf("%d/%d", st.BranchSidesCovered(), st.BranchSidesTotal()),
		fmt.Sprintf("%d/%d", kw, len(kwIDs)),
		fmt.Sprintf("%d", st.Paths()),
		fmt.Sprintf("%d", len(st.ErrorSitesFound())),
		fmt.Sprintf("%d", st.Divergences))
}

func keywordSides(w *lexapp.Workload, st *search.Stats) int {
	kw := 0
	for _, id := range lexapp.KeywordBranchIDs(w.Build()) {
		if st.SideCovered(id, true) {
			kw++
		}
	}
	return kw
}

func covSeries(st *search.Stats) string {
	checkpoints := []int{10, 25, 50, 100, 200, 400, 800, 1500}
	out := ""
	for _, c := range checkpoints {
		if c > len(st.CovTrace) {
			break
		}
		out += fmt.Sprintf(" %d:%d", c, st.CovTrace[c-1])
	}
	return out
}

// E12LexerStudy is the headline Section 7 experiment.
func E12LexerStudy(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E12",
		Title: fmt.Sprintf("Section 7 lexer study (budget %d executions)", cfg.Budget),
		PaperClaim: "\"this partial implementation of higher-order test generation is sufficient to " +
			"accurately drive program executions through the lexer. In contrast, regular dynamic " +
			"test generation is no better than blackbox random testing\" (§7)",
		Columns: []string{"technique", "runs", "branch sides", "keywords hit", "paths", "parser bugs", "divergences"},
	}
	w := lexapp.Lexer()

	fz := fuzz.Run(w.Build(), fuzz.Options{MaxRuns: cfg.Budget, Seeds: w.Seeds, Bounds: w.Bounds,
		Rand: rand.New(rand.NewSource(cfg.Seed))})
	lexerRow(t, w, "blackbox-random", fz)
	t.note("coverage-vs-runs (figure series) blackbox-random:%s", covSeries(fz))

	results := map[concolic.Mode]*search.Stats{}
	for _, mode := range allModes {
		wm := lexapp.Lexer()
		st := runSearch(cfg, wm, mode, search.Options{MaxRuns: cfg.Budget})
		results[mode] = st
		lexerRow(t, wm, mode.String(), st)
		t.note("coverage-vs-runs (figure series) %s:%s", mode, covSeries(st))
	}

	// Random byte strings can, very rarely, contain a two-letter keyword, so
	// the robust baseline claims are: at most a stray short keyword, no
	// parser bug, and (far) fewer keywords than higher-order generation.
	t.claim(keywordSides(w, fz) <= 2,
		"blackbox random testing recognizes at most a stray short keyword (got %d)", keywordSides(w, fz))
	t.claim(len(fz.ErrorSitesFound()) == 0, "blackbox random testing finds no parser bug")
	for _, m := range []concolic.Mode{concolic.ModeStatic, concolic.ModeUnsound, concolic.ModeSound, concolic.ModeSoundDelayed} {
		t.claim(keywordSides(w, results[m]) == 0,
			"%v never recognizes a keyword (defeated by the hash)", m)
		t.claim(len(results[m].ErrorSitesFound()) == 0, "%v finds no parser bug", m)
	}
	ho := results[concolic.ModeHigherOrder]
	minKw := 4
	minBugs := 1
	if cfg.Budget < 500 {
		minKw = 2
	}
	t.claim(keywordSides(w, ho) >= minKw,
		"higher-order recognizes ≥%d keywords (got %d/8)", minKw, keywordSides(w, ho))
	t.claim(len(ho.ErrorSitesFound()) >= minBugs,
		"higher-order reaches ≥%d deep parser bug(s) (got %d)", minBugs, len(ho.ErrorSitesFound()))
	t.claim(ho.Divergences == 0, "higher-order never diverges")
	t.claim(ho.BranchSidesCovered() > results[concolic.ModeUnsound].BranchSidesCovered(),
		"higher-order coverage strictly exceeds DART's")
	t.claim(keywordSides(w, ho) > keywordSides(w, fz),
		"higher-order recognizes strictly more keywords than random testing")
	return t
}

// E13SamplePersistence is the hard-coded-hash variant: keyword hashes can
// only be learned by lexing well-formed inputs.
func E13SamplePersistence(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E13",
		Title: fmt.Sprintf("hard-coded hashes: learning samples from well-formed seeds (budget %d)", cfg.Budget),
		PaperClaim: "\"such input-output pairs could still be learned over time by starting the " +
			"testing session with a representative set of well-formed inputs, observing the hash " +
			"values of all the language keywords those inputs contain\" (§7)",
		Columns: []string{"seed corpus", "keywords hit", "samples learned", "parser bugs", "branch sides"},
	}
	w := lexapp.LexerHardcoded()

	junk := runSearch(cfg, lexapp.LexerHardcoded(), concolic.ModeHigherOrder,
		search.Options{MaxRuns: cfg.Budget, Seeds: lexapp.JunkSeeds()})
	t.addRow("junk only", fmt.Sprintf("%d/8", keywordSides(w, junk)),
		fmt.Sprintf("%d", junk.SamplesLearned), fmt.Sprintf("%d", len(junk.ErrorSitesFound())),
		fmt.Sprintf("%d/%d", junk.BranchSidesCovered(), junk.BranchSidesTotal()))
	t.claim(keywordSides(w, junk) == 0,
		"with hard-coded hashes and junk seeds, even higher-order cannot recognize keywords")

	full := runSearch(cfg, lexapp.LexerHardcoded(), concolic.ModeHigherOrder,
		search.Options{MaxRuns: cfg.Budget})
	t.addRow("junk + well-formed", fmt.Sprintf("%d/8", keywordSides(w, full)),
		fmt.Sprintf("%d", full.SamplesLearned), fmt.Sprintf("%d", len(full.ErrorSitesFound())),
		fmt.Sprintf("%d/%d", full.BranchSidesCovered(), full.BranchSidesTotal()))
	t.claim(keywordSides(w, full) == 8,
		"the benign well-formed corpus teaches all 8 keyword hashes")
	if cfg.Budget >= 500 {
		t.claim(len(full.ErrorSitesFound()) >= 1,
			"higher-order composes new bug-triggering keyword sequences from learned samples")
	}
	t.note("no well-formed seed triggers a parser bug itself; composed inputs are new")

	// Cross-session persistence: session 1 only lexes the benign corpus and
	// saves its IOF store; session 2 starts fresh with junk seeds but imports
	// the saved samples — keyword recognition works again.
	sess1 := concolic.New(lexapp.LexerHardcoded().Build(), concolic.ModeHigherOrder)
	for _, seed := range lexapp.WellFormedSeeds() {
		sess1.Run(seed)
	}
	var buf bytes.Buffer
	if err := sess1.Samples.Encode(&buf); err != nil {
		t.claim(false, "session store encodes: %v", err)
		return t
	}
	w2 := lexapp.LexerHardcoded()
	sess2 := concolic.New(w2.Build(), concolic.ModeHigherOrder)
	imported, err := sym.DecodeSamples(&buf, sess2.Samples, sess2.Pool)
	if err != nil {
		t.claim(false, "session store decodes: %v", err)
		return t
	}
	st2 := search.Run(sess2, search.Options{MaxRuns: cfg.Budget, Seeds: lexapp.JunkSeeds(), Bounds: w2.Bounds, Obs: cfg.Obs, Workers: cfg.Workers})
	t.addRow("junk + imported session", fmt.Sprintf("%d/8", keywordSides(w2, st2)),
		fmt.Sprintf("%d", st2.SamplesLearned), fmt.Sprintf("%d", len(st2.ErrorSitesFound())),
		fmt.Sprintf("%d/%d", st2.BranchSidesCovered(), st2.BranchSidesTotal()))
	t.claim(imported >= len(lexapp.Keywords),
		"the saved session carries ≥%d samples (got %d)", len(lexapp.Keywords), imported)
	t.claim(keywordSides(w2, st2) >= 4,
		"imported samples restore keyword recognition in a fresh session (got %d/8)", keywordSides(w2, st2))
	return t
}

// A1DelayedConc is the Section 3.3 variant ablation.
func A1DelayedConc(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "A1",
		Title: "ablation: delayed injection of concretization constraints",
		PaperClaim: "\"the injection of concretization constraints ... could be delayed ... This way, " +
			"examples such as x := hash(y); if (y == 10) ... could be handled with sound " +
			"concretization\" (§3.3)",
		Columns: []string{"mode", "bug found", "divergences"},
	}
	for _, mode := range []concolic.Mode{concolic.ModeSound, concolic.ModeSoundDelayed, concolic.ModeHigherOrder} {
		st := runSearch(cfg, lexapp.Delayed(), mode, search.Options{MaxRuns: 20})
		t.addRow(mode.String(), foundBug(st), fmt.Sprintf("%d", st.Divergences))
		found := len(st.ErrorSitesFound()) > 0
		switch mode {
		case concolic.ModeSound:
			t.claim(!found, "eager sound concretization pins y and misses the bug")
		case concolic.ModeSoundDelayed:
			t.claim(found && st.Divergences == 0, "delayed injection recovers the flip, still soundly")
		case concolic.ModeHigherOrder:
			t.claim(found && st.Divergences == 0, "higher-order handles it too")
		}
	}
	return t
}

// A2DivergenceRates aggregates divergences per mode over the whole workload
// suite.
func A2DivergenceRates(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "A2",
		Title: "divergence and bug totals across all paper workloads",
		PaperClaim: "\"Sound concretization generates sound path constraints and eliminates " +
			"divergences\" (§3.3); unsound concretization risks divergences (§3.2)",
		Columns: []string{"mode", "total tests", "total divergences", "error sites found", "workloads"},
	}
	workloads := lexapp.PaperExamples()
	for _, mode := range allModes {
		tests, div, sites := 0, 0, 0
		for _, w := range workloads {
			st := runSearch(cfg, w, mode, search.Options{MaxRuns: 60})
			tests += st.TestsGenerated
			div += st.Divergences
			sites += len(st.ErrorSitesFound())
		}
		t.addRow(mode.String(), fmt.Sprintf("%d", tests), fmt.Sprintf("%d", div),
			fmt.Sprintf("%d", sites), fmt.Sprintf("%d", len(workloads)))
		switch mode {
		case concolic.ModeUnsound:
			t.claim(div > 0, "unsound concretization diverges somewhere in the suite")
		case concolic.ModeSound, concolic.ModeSoundDelayed, concolic.ModeHigherOrder:
			t.claim(div == 0, "%v never diverges across the suite", mode)
		}
		if mode == concolic.ModeHigherOrder {
			t.claim(sites >= 8, "higher-order finds the most error sites (got %d)", sites)
		}
	}
	return t
}

// E14PacketParser is the second application: a checksummed packet parser
// where every deep bug couples payload content with a CRC-validated header.
func E14PacketParser(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E14",
		Title: "checksummed packet parser: content coupled with a CRC",
		PaperClaim: "\"complex functions (for hashing, encrypting, compressing, encoding, CRC-ing " +
			"data)\" are sources of imprecision (§6); higher-order generation handles them where " +
			"concretization pins (sound) or diverges (unsound)",
		Columns: []string{"technique", "runs", "bugs found", "divergences", "multi-step chains", "branch sides"},
	}
	w := lexapp.Packet()
	fz := fuzz.Run(w.Build(), fuzz.Options{MaxRuns: 400, Seeds: w.Seeds, Bounds: w.Bounds,
		Rand: rand.New(rand.NewSource(cfg.Seed))})
	t.addRow("blackbox-random", fmt.Sprintf("%d", fz.Runs), fmt.Sprintf("%d", len(fz.ErrorSitesFound())),
		"-", "-", fmt.Sprintf("%d/%d", fz.BranchSidesCovered(), fz.BranchSidesTotal()))
	t.claim(len(fz.ErrorSitesFound()) == 0, "random testing finds no packet bug in 400 runs")

	for _, mode := range []concolic.Mode{concolic.ModeUnsound, concolic.ModeSound, concolic.ModeHigherOrder} {
		wm := lexapp.Packet()
		st := runSearch(cfg, wm, mode, search.Options{MaxRuns: 400})
		t.addRow(mode.String(), fmt.Sprintf("%d", st.Runs), fmt.Sprintf("%d", len(st.ErrorSitesFound())),
			fmt.Sprintf("%d", st.Divergences), fmt.Sprintf("%d", st.MultiStepChains),
			fmt.Sprintf("%d/%d", st.BranchSidesCovered(), st.BranchSidesTotal()))
		switch mode {
		case concolic.ModeUnsound:
			t.claim(st.Divergences > 0,
				"unsound concretization diverges when payload flips invalidate the checksum")
		case concolic.ModeSound:
			t.claim(st.Divergences == 0 && len(st.ErrorSitesFound()) == 0,
				"sound concretization pins the payload and misses every bug")
		case concolic.ModeHigherOrder:
			t.claim(len(st.ErrorSitesFound()) == 3,
				"higher-order reaches all 3 deep bugs (got %d)", len(st.ErrorSitesFound()))
			t.claim(st.Divergences == 0 && st.MultiStepChains > 0,
				"…divergence-free, via multi-step CRC resampling")
		}
	}
	return t
}

// E15GrammarBaseline compares higher-order test generation against the
// grammar-based whitebox fuzzing of [14], the alternative Section 7
// discusses: bypass the lexer, search over token sequences, then unlift the
// findings through a user-supplied grammar.
func E15GrammarBaseline(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E15",
		Title: "grammar-based whitebox fuzzing [14] vs higher-order test generation",
		PaperClaim: "\"it is shown how such a problematic lexer can be bypassed altogether ... " +
			"Unfortunately, instrumenting a lexer this way can be problematic ... and this approach " +
			"requires a user-supplied input-grammar specification. In contrast, higher-order test " +
			"generation provides a more automated approach\" (§7)",
		Columns: []string{"technique", "runs", "parser bugs", "validated end-to-end", "needs"},
	}

	// Grammar-based: search the token-level program (plain sound DART — no
	// unknown functions remain once the lexer is bypassed), then unlift each
	// bug through the grammar and replay it on the real lexer.
	tp := lexapp.TokenParser()
	gb := runSearch(cfg, tp, concolic.ModeSound, search.Options{MaxRuns: cfg.Budget})
	validated := 0
	for _, b := range gb.Bugs {
		if b.Kind == mini.StopError && lexapp.ValidateOnLexer(b.Input, b.Msg) {
			validated++
		}
	}
	t.addRow("grammar-based [14]", fmt.Sprintf("%d", gb.Runs),
		fmt.Sprintf("%d", len(gb.ErrorSitesFound())), fmt.Sprintf("%d", validated),
		"lexer bypass + grammar spec")
	t.claim(len(gb.ErrorSitesFound()) == 5,
		"token-level search covers all 5 parser bugs (got %d)", len(gb.ErrorSitesFound()))
	t.claim(validated == 5,
		"every token-level bug unlifts through the grammar and reproduces on the real lexer (got %d)", validated)

	// Higher-order generation on the unmodified program.
	w := lexapp.Lexer()
	ho := runSearch(cfg, w, concolic.ModeHigherOrder, search.Options{MaxRuns: cfg.Budget})
	t.addRow("higher-order", fmt.Sprintf("%d", ho.Runs),
		fmt.Sprintf("%d", len(ho.ErrorSitesFound())), fmt.Sprintf("%d", len(ho.ErrorSitesFound())),
		"only the hash function's name")
	minBugs := 1
	if cfg.Budget >= 1500 {
		minBugs = 3
	}
	t.claim(len(ho.ErrorSitesFound()) >= minBugs,
		"higher-order reaches ≥%d of the same bugs with no instrumentation or grammar (got %d)",
		minBugs, len(ho.ErrorSitesFound()))
	t.note("higher-order inputs are real byte strings by construction — no unlifting step exists or is needed")
	return t
}

// A3Summaries is the compositional-summary ablation: higher-order search with
// and without the Section 8 summary cache must be observationally identical,
// with the cache absorbing the callee's symbolic re-execution.
func A3Summaries(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "A3",
		Title: "ablation: higher-order compositional summaries (Section 8)",
		PaperClaim: "\"Both types of uninterpreted functions could actually be used simultaneously, " +
			"as they are orthogonal, for higher-order compositional test generation\" (§8)",
		Columns: []string{"configuration", "runs", "bugs", "coverage", "divergences", "summary hits", "misses", "cases"},
	}
	budget := 200

	w1 := lexapp.Scanner()
	plain := runSearch(cfg, w1, concolic.ModeHigherOrder, search.Options{MaxRuns: budget})
	t.addRow("inlining", fmt.Sprintf("%d", plain.Runs), fmt.Sprintf("%d", len(plain.ErrorSitesFound())),
		fmt.Sprintf("%d/%d", plain.BranchSidesCovered(), plain.BranchSidesTotal()),
		fmt.Sprintf("%d", plain.Divergences), "-", "-", "-")

	w2 := lexapp.Scanner()
	eng := concolic.New(w2.Build(), concolic.ModeHigherOrder)
	eng.Summaries = concolic.NewSummaryCache()
	summ := search.Run(eng, search.Options{MaxRuns: budget, Seeds: w2.Seeds, Bounds: w2.Bounds, Obs: cfg.Obs, Workers: cfg.Workers})
	t.addRow("summaries", fmt.Sprintf("%d", summ.Runs), fmt.Sprintf("%d", len(summ.ErrorSitesFound())),
		fmt.Sprintf("%d/%d", summ.BranchSidesCovered(), summ.BranchSidesTotal()),
		fmt.Sprintf("%d", summ.Divergences),
		fmt.Sprintf("%d", eng.Summaries.Hits), fmt.Sprintf("%d", eng.Summaries.Misses),
		fmt.Sprintf("%d", eng.Summaries.Cases()))

	t.claim(len(plain.ErrorSitesFound()) == len(summ.ErrorSitesFound()) &&
		plain.BranchSidesCovered() == summ.BranchSidesCovered() &&
		plain.Paths() == summ.Paths(),
		"summaries change nothing observable (bugs %d=%d, coverage %d=%d, paths %d=%d)",
		len(plain.ErrorSitesFound()), len(summ.ErrorSitesFound()),
		plain.BranchSidesCovered(), summ.BranchSidesCovered(), plain.Paths(), summ.Paths())
	t.claim(summ.Divergences == 0, "summaries preserve soundness (no divergences)")
	t.claim(eng.Summaries.Hits > 5*eng.Summaries.Misses,
		"the cache absorbs the callee work (hits %d ≫ misses %d)", eng.Summaries.Hits, eng.Summaries.Misses)
	t.claim(len(summ.ErrorSitesFound()) >= 2,
		"the hash-guarded scanner bugs are reached (got %d)", len(summ.ErrorSitesFound()))
	return t
}

// E16Callbacks measures function-valued inputs: on each callback workload the
// bug hides behind a branch on a callback's output, so the higher-order
// searcher — which constructs concrete decision-table functions as part of the
// test input — must strictly dominate the DART-style baselines (which can only
// concretize callback results under the default function) on branch-side
// coverage, and must be the only configuration to reach the bug.
func E16Callbacks(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E16",
		Title: "function-valued inputs: synthesis vs concretization",
		PaperClaim: "\"our approach consists in representing [unknown] functions as uninterpreted " +
			"functions\" (§1) — taken to inputs themselves: when the function IS the input, the " +
			"searcher can construct it instead of concretizing around it",
		Columns: []string{"workload", "mode", "runs", "coverage", "bug", "function inputs"},
	}
	budget := 60
	modes := []concolic.Mode{concolic.ModeUnsound, concolic.ModeSound, concolic.ModeHigherOrder}
	for _, w := range lexapp.CallbackWorkloads() {
		sides := make(map[concolic.Mode]map[[2]int]bool, len(modes))
		numBranches := w.Build().NumBranches
		for _, mode := range modes {
			st := runSearch(cfg, w, mode, search.Options{MaxRuns: budget})
			cover := make(map[[2]int]bool)
			for id := 0; id < numBranches; id++ {
				for side := 0; side < 2; side++ {
					if st.SideCovered(id, side == 1) {
						cover[[2]int{id, side}] = true
					}
				}
			}
			sides[mode] = cover
			funcsNote := "-"
			if mode == concolic.ModeHigherOrder {
				funcsNote = "none synthesized"
				for _, bug := range st.Bugs {
					if len(bug.Funcs) > 0 {
						funcsNote = strings.Join(bug.Funcs, "; ")
						break
					}
				}
				t.claim(len(st.ErrorSitesFound()) > 0,
					"%s: higher-order synthesis reaches the callback-guarded bug", w.Name)
				for _, bug := range st.Bugs {
					t.claim(len(bug.Funcs) > 0,
						"%s: every reported bug carries a concrete function input", w.Name)
				}
			} else {
				t.claim(len(st.ErrorSitesFound()) == 0,
					"%s: %v cannot reach a bug guarded by a callback's output", w.Name, mode)
			}
			t.addRow(w.Name, mode.String(), fmt.Sprintf("%d", st.Runs),
				fmt.Sprintf("%d/%d", st.BranchSidesCovered(), st.BranchSidesTotal()),
				foundBug(st), funcsNote)
		}
		ho := sides[concolic.ModeHigherOrder]
		for _, mode := range modes[:2] {
			base := sides[mode]
			superset := true
			for s := range base {
				if !ho[s] {
					superset = false
				}
			}
			t.claim(superset && len(ho) > len(base),
				"%s: higher-order branch-side coverage strictly dominates %v (%d > %d)",
				w.Name, mode, len(ho), len(base))
		}
	}
	t.note("baselines run the callback through its default decision table (every application 0) and " +
		"concretize its results; only higher-order search treats the table itself as solvable input")
	return t
}

// E17Verification reproduces Theorem 1: on a pure bounded program (sound and
// complete constraint generation), an exhausted directed search has exercised
// every feasible path exactly once, so it *verifies* the unreachability of
// error sites it never hit — while any source of incompleteness (an unknown
// function under static execution) voids the claim.
func E17Verification(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "E17",
		Title: "Theorem 1: exhaustive search as verification",
		PaperClaim: "\"a directed search using a path constraint generation and a constraint solver " +
			"that are both sound and complete exercises all feasible program paths exactly once. " +
			"Thus, if a program statement has not been executed when the search is over, this " +
			"statement is not executable in any context\" (Theorem 1)",
		Columns: []string{"program", "mode", "exhausted", "runs", "distinct paths", "sites found", "verdict"},
	}

	pureSrc := `
fn main(x int, y int) {
	if (x > 5 && x < 3) {
		error("unreachable-interval");
	}
	if (x + y == 10 && x - y == 4) {
		if (x != 7) {
			error("unreachable-arith");
		}
		error("reachable-deep");
	}
}`
	natives := mini.Natives{}
	natives.Register("hash", 1, lexapp.ScrambledHash)
	pure := mini.MustCheck(mini.MustParse(pureSrc), natives)
	bounds := []smt.Bound{
		{Lo: -16, Hi: 16, HasLo: true, HasHi: true},
		{Lo: -16, Hi: 16, HasLo: true, HasHi: true},
	}
	eng := concolic.New(pure, concolic.ModeSound)
	st := search.Run(eng, search.Options{MaxRuns: 500, Seeds: [][]int64{{0, 0}}, Bounds: bounds, Obs: cfg.Obs, Workers: cfg.Workers})
	verdict := "bugs remain"
	if st.Exhausted {
		verdict = "VERIFIED: unhit sites unreachable"
	}
	t.addRow("pure arith", "dart-sound", fmt.Sprintf("%v", st.Exhausted), fmt.Sprintf("%d", st.Runs),
		fmt.Sprintf("%d", st.Paths()), fmt.Sprintf("%v", st.ErrorSitesFound()), verdict)
	t.claim(st.Exhausted, "the search drains its worklist well inside the budget (%d runs)", st.Runs)
	t.claim(st.Paths() == st.Runs, "every feasible path is exercised exactly once (%d paths in %d runs)",
		st.Paths(), st.Runs)
	found := st.ErrorSitesFound()
	t.claim(len(found) == 1 && pure.ErrorSites[found[0]] == "reachable-deep",
		"exactly the reachable site is hit; the two unreachable sites are verified so")

	// Contrast: with an unknown function under static execution the pc is
	// incomplete — exhaustion proves nothing.
	obscure := lexapp.Obscure()
	engS := concolic.New(obscure.Build(), concolic.ModeStatic)
	stS := search.Run(engS, search.Options{MaxRuns: 500, Seeds: obscure.Seeds, Obs: cfg.Obs, Workers: cfg.Workers})
	t.addRow("obscure (hash)", "static", fmt.Sprintf("%v", stS.Exhausted), fmt.Sprintf("%d", stS.Runs),
		fmt.Sprintf("%d", stS.Paths()), fmt.Sprintf("%v", stS.ErrorSitesFound()),
		"no verification (incomplete pc)")
	t.claim(stS.Exhausted && stS.Incomplete && len(stS.ErrorSitesFound()) == 0,
		"static execution exhausts without covering the feasible error branch — incompleteness voids Theorem 1's premise")
	return t
}
