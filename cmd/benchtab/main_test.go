package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var regen = flag.Bool("regen", false, "regenerate golden files")

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestWorkersFlag checks that -workers reaches every search an experiment
// runs: a quick E1 at -workers 1 reports one worker, and at -workers 3 three.
func TestWorkersFlag(t *testing.T) {
	for _, n := range []float64{1, 3} {
		code, out, stderr := runCLI(t, "-quick", "-json", "-workers", fmt.Sprint(n), "E1")
		if code != 0 {
			t.Fatalf("-workers %v: benchtab exited %d\nstderr: %s", n, code, stderr)
		}
		var results []map[string]any
		if err := json.Unmarshal([]byte(out), &results); err != nil || len(results) != 1 {
			t.Fatalf("-workers %v: want one JSON result, got %q (%v)", n, out, err)
		}
		if got := results[0]["workers"]; got != n {
			t.Errorf("-workers %v: reported workers=%v", n, got)
		}
	}
}

// TestJSONShapeGolden pins the machine-readable interface of -json against a
// golden key set: every emitted key must be known (additions are a conscious
// golden update), and the always-present core must be there. Values are not
// pinned — timings vary — but types and the table payload are checked.
func TestJSONShapeGolden(t *testing.T) {
	code, out, stderr := runCLI(t, "-quick", "-json", "E7")
	if code != 0 {
		t.Fatalf("benchtab exited %d\nstderr: %s", code, stderr)
	}

	var results []map[string]any
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("-json output is not a JSON array: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("selected one experiment, got %d results", len(results))
	}
	res := results[0]

	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "json_keys.golden")
	if *regen {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -regen to create)", err)
	}
	if got != string(want) {
		t.Errorf("-json key set drifted from golden:\ngot:\n%swant:\n%s", got, want)
	}

	if res["id"] != "E7" {
		t.Errorf("id = %v, want E7", res["id"])
	}
	for _, k := range []string{"seconds", "wall_seconds", "solve_seconds", "workers"} {
		if _, ok := res[k].(float64); !ok {
			t.Errorf("%s is %T, want a number", k, res[k])
		}
	}
	tab, ok := res["table"].(map[string]any)
	if !ok {
		t.Fatalf("table is %T, want an object", res["table"])
	}
	for _, k := range []string{"ID", "Title", "Columns", "Rows", "Claims"} {
		if _, ok := tab[k]; !ok {
			t.Errorf("table payload is missing %q", k)
		}
	}
	if _, ok := res["failed"]; ok {
		t.Error("quick E7 reported failed claims; the claim set regressed")
	}
}

// TestJSONShapeGoldenE16 pins the callback-synthesis keys on the E16 row:
// callback_targets and funcs_synthesized must appear (omitempty, so only an
// experiment that actually discharges callback targets emits them).
func TestJSONShapeGoldenE16(t *testing.T) {
	code, out, stderr := runCLI(t, "-quick", "-json", "E16")
	if code != 0 {
		t.Fatalf("benchtab exited %d\nstderr: %s", code, stderr)
	}
	var results []map[string]any
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("-json output is not a JSON array: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("selected one experiment, got %d results", len(results))
	}
	res := results[0]

	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "json_keys_e16.golden")
	if *regen {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -regen to create)", err)
	}
	if got != string(want) {
		t.Errorf("E16 -json key set drifted from golden:\ngot:\n%swant:\n%s", got, want)
	}
	for _, k := range []string{"callback_targets", "funcs_synthesized"} {
		v, ok := res[k].(float64)
		if !ok || v <= 0 {
			t.Errorf("%s = %v, want a positive number on the E16 row", k, res[k])
		}
	}
	if _, ok := res["failed"]; ok {
		t.Error("quick E16 reported failed claims; the claim set regressed")
	}
}

// TestJSONEmptySelection pins the edge the docs promise: -json always emits
// an array, even when nothing is selected.
func TestJSONEmptySelection(t *testing.T) {
	code, out, _ := runCLI(t, "-json", "NOPE")
	if code != 0 {
		t.Fatalf("empty selection exited %d", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("empty selection output %q, want []", out)
	}
}

// TestBadFlagExitsUsage checks flag errors exit 2 without running anything.
func TestBadFlagExitsUsage(t *testing.T) {
	if code, _, _ := runCLI(t, "-nonsense"); code != 2 {
		t.Error("bad flag should exit 2")
	}
}

// TestDiffGate exercises the perf-regression gate on synthetic fixtures:
// self-comparison passes, a regressed run fails (naming the regression and
// the baseline experiment the new run dropped), the noise floor forgives
// deltas too small to measure.
func TestDiffGate(t *testing.T) {
	old := filepath.Join("testdata", "diff_old.json")
	regressed := filepath.Join("testdata", "diff_new_regressed.json")

	// Self-comparison: identical numbers never regress.
	code, out, stderr := runCLI(t, "-diff", old, old)
	if code != 0 {
		t.Fatalf("self-diff exited %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "no solver-time regressions") {
		t.Errorf("self-diff verdict missing: %q", out)
	}

	// Synthetic regression: E2 more than doubles (fails the 25% gate), E1's
	// +10% and E3's 4x-but-tiny stay under the relative/absolute bars, A1
	// vanishes (fails), A7 is new (informational).
	code, out, stderr = runCLI(t, "-diff", old, regressed)
	if code != 1 {
		t.Fatalf("regressed diff exited %d, want 1\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	for _, want := range []string{"REGRESSION", "MISSING", "new experiment"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	for _, ln := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(ln, "E1"), strings.HasPrefix(ln, "E3"):
			if !strings.Contains(ln, "ok") {
				t.Errorf("%s should pass under floor/threshold: %q", ln[:2], ln)
			}
		case strings.HasPrefix(ln, "E2"):
			if !strings.Contains(ln, "REGRESSION") {
				t.Errorf("E2 should regress: %q", ln)
			}
		case strings.HasPrefix(ln, "A1"):
			if !strings.Contains(ln, "MISSING") {
				t.Errorf("A1 should be missing: %q", ln)
			}
		}
	}
	if !strings.Contains(stderr, "2 experiment(s) regressed or missing") {
		t.Errorf("stderr verdict wrong: %q", stderr)
	}

	// A tighter threshold flips E1's +10% into a regression.
	if code, out, _ = runCLI(t, "-diff", "-threshold", "0.05", "-min-seconds", "0.01", old, regressed); code != 1 {
		t.Fatalf("tight-threshold diff exited %d", code)
	} else if !strings.Contains(out, "REGRESSION (>5%)") {
		t.Errorf("threshold not honored:\n%s", out)
	}

	// Usage errors.
	if code, _, _ := runCLI(t, "-diff", old); code != 2 {
		t.Error("-diff with one file should exit 2")
	}
	if code, _, _ := runCLI(t, "-diff", old, filepath.Join("testdata", "nonexistent.json")); code != 2 {
		t.Error("-diff with unreadable file should exit 2")
	}
}

// TestDiffSelfOnRealRun feeds the gate its own fresh -json output — the exact
// self-comparison CI performs against the committed baseline's format.
func TestDiffSelfOnRealRun(t *testing.T) {
	code, out, stderr := runCLI(t, "-quick", "-json", "E7")
	if code != 0 {
		t.Fatalf("benchtab exited %d\nstderr: %s", code, stderr)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, stderr := runCLI(t, "-diff", path, path); code != 0 {
		t.Fatalf("self-diff of a real run exited %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
}
