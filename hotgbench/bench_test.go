package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-check reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(t *testing.T, workload string, budget int, trace bool) config {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: defaultSeed, budget: budget, trace: trace, out: t.TempDir(), ref: ref}
}

// TestPrintsEveryNamedMetric runs each workload of BENCHMARK.json for one
// cycle: untraced at the reference seed and budget, so its searches must
// also reproduce the committed digests, then traced at a small budget. Each
// run must pass its checks and print exactly the metrics BENCHMARK.json
// names for it, each with its unit.
func TestPrintsEveryNamedMetric(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			budget, want := defaultBudget, s.EndToEnd
			if trace {
				budget, want = 60, s.PerLayer
			}
			res, err := run(testConfig(t, w.Name, budget, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestTamperedReferenceFails is the negative control: when the committed
// digest does not match, every search is reported as failed.
func TestTamperedReferenceFails(t *testing.T) {
	cfg := testConfig(t, "lexer-dart", 60, false)
	cfg.ref = reference{Seed: cfg.seed, Budget: cfg.budget,
		Digests: map[string]string{"lexer-dart": strings.Repeat("0", 64)}}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("tampered reference: correct=%v attempted=%d failed=%d, want every search failed",
			res.Correct, res.Attempted, res.Failed)
	}
}
