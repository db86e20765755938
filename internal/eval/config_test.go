package eval

import "testing"

// TestConfigDefaults pins the normalization every experiment relies on:
// unset (zero) and nonsense (negative) budgets and seeds become the
// defaults, and Quick clamps the budget to CI size.
func TestConfigDefaults(t *testing.T) {
	cases := []struct {
		name       string
		in         Config
		wantBudget int
		wantSeed   int64
	}{
		{"zero value", Config{}, 1500, 1},
		{"negative budget", Config{Budget: -100}, 1500, 1},
		{"negative seed", Config{Seed: -7}, 1500, 1},
		{"explicit values kept", Config{Budget: 42, Seed: 9}, 42, 9},
		{"quick clamps large budgets", Config{Quick: true, Budget: 5000}, 300, 1},
		{"quick keeps small budgets", Config{Quick: true, Budget: 120}, 120, 1},
		{"quick applies to the default too", Config{Quick: true}, 300, 1},
	}
	for _, tc := range cases {
		got := tc.in.defaults()
		if got.Budget != tc.wantBudget || got.Seed != tc.wantSeed {
			t.Errorf("%s: defaults() = {Budget: %d, Seed: %d}, want {%d, %d}",
				tc.name, got.Budget, got.Seed, tc.wantBudget, tc.wantSeed)
		}
	}
}

// TestConfigDefaultsPreserveFlags checks defaults() does not disturb the
// pass-through fields.
func TestConfigDefaultsPreserveFlags(t *testing.T) {
	in := Config{Quick: true, Degrade: true, ProofTimeout: 1, Workers: 3}
	got := in.defaults()
	if !got.Quick || !got.Degrade || got.ProofTimeout != 1 || got.Workers != 3 {
		t.Errorf("defaults() dropped pass-through fields: %+v", got)
	}
}

// TestExperimentRegistryWellFormed checks the registry invariants benchtab
// depends on: unique IDs, titles, and runnable entries, and Get agreement.
func TestExperimentRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v is incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := Get(e.ID); !ok || got.ID != e.ID {
			t.Errorf("Get(%q) does not round-trip", e.ID)
		}
	}
	if _, ok := Get("nonsense"); ok {
		t.Error("Get accepted an unknown ID")
	}
}
