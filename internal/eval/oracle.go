package eval

import (
	"fmt"

	"hotg/internal/difftest"
	"hotg/internal/faults"
)

// A6OracleCampaign runs the differential/metamorphic oracle (DESIGN.md §10)
// as an experiment: a clean sweep of seeded random cases across every
// technique must produce zero findings, and a drill with the injected
// floored-modulo VM defect must be caught and delta-debugged to a
// small reproducer — the paper's soundness theorems and the pipeline's
// cross-layer invariants exercised as one standing campaign.
func A6OracleCampaign(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "A6",
		Title: "differential oracle campaign: clean sweep and fault drill (§4–§6 theorems, executable)",
		PaperClaim: "\"higher-order test generation ... is grounded in a validity-preserving proof " +
			"system\" (Theorems 1–4): prover verdicts must match exhaustive finite-domain ground " +
			"truth, generated tests must replay, and every technique must agree with concrete execution",
		Columns: []string{"phase", "cases", "findings", "detail"},
	}

	progSeeds, folSeeds := int64(20), int64(60)
	if cfg.Quick {
		progSeeds, folSeeds = 6, 20
	}
	dcfg := difftest.Config{}

	// Phase 1: O2 — prover verdicts vs exhaustive enumeration over all
	// inputs and all uninterpreted-function tables.
	folFindings := 0
	for seed := int64(1); seed <= folSeeds; seed++ {
		folFindings += len(difftest.CheckO2(difftest.NewFolCase(seed)))
	}
	t.addRow("O2 formulas", fmt.Sprintf("%d", folSeeds), fmt.Sprintf("%d", folFindings),
		"Prove vs ground-truth enumeration + strategy replay")
	t.claim(folFindings == 0, "prover verdicts match exhaustive enumeration on %d seeded formulas", folSeeds)

	// Phase 2: O1+O3 — every technique end-to-end on random programs, with
	// the metamorphic relations (workers, renaming, checkpoint/kill/resume).
	progFindings := 0
	for seed := int64(1); seed <= progSeeds; seed++ {
		progFindings += len(difftest.CheckCase(difftest.NewCase(seed), dcfg))
	}
	t.addRow("O1+O3 programs", fmt.Sprintf("%d", progSeeds), fmt.Sprintf("%d", progFindings),
		"replay, walker/VM agreement, metamorphic relations")
	t.claim(progFindings == 0, "all techniques agree with concrete execution on %d seeded programs", progSeeds)

	// Phase 3: fault drill — the injected silent VM defect (floored modulo)
	// must be caught by the differential oracle and shrink to a small
	// reproducer. This is the oracle's own positive control.
	caught := difftest.Finding{}
	drillCases := int64(0)
	restore := faults.Set(&faults.Plan{VMWrongMod: true})
	for seed := int64(1); seed <= 50; seed++ {
		drillCases++
		if fs := difftest.CheckO1(difftest.NewCase(seed), dcfg); len(fs) > 0 {
			caught = fs[0]
			caught.Fault = "vm-wrong-mod"
			break
		}
	}
	restore()
	if caught.Oracle == "" {
		t.addRow("fault drill", fmt.Sprintf("%d", drillCases), "0", "vm-wrong-mod NOT caught")
		t.claim(false, "injected floored-modulo VM defect is caught by the oracle")
		return t
	}
	min, stmts, err := difftest.MinimizeFinding(caught, dcfg, 400)
	if err != nil {
		t.addRow("fault drill", fmt.Sprintf("%d", drillCases), "1", "shrink failed: "+err.Error())
		t.claim(false, "caught finding shrinks: %v", err)
		return t
	}
	t.addRow("fault drill", fmt.Sprintf("%d", drillCases), "1",
		fmt.Sprintf("caught at seed %d, shrunk to %d stmts", caught.Seed, stmts))
	t.claim(true, "injected floored-modulo VM defect is caught by the oracle")
	t.claim(stmts <= 10, "reproducer delta-debugs to <= 10 statements (got %d)", stmts)
	t.note("minimized reproducer:\n%s", min)
	return t
}
