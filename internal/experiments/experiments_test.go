package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"mad/internal/experiments"
)

// TestAllExperimentsRun executes every experiment at scale 1 and checks
// for the key content each must report.
func TestAllExperimentsRun(t *testing.T) {
	wantContent := map[string][]string{
		"F1": {"ER → MAD", "7 atom types", "3 aux relations"},
		"F2": {"mt state", "point neighborhood", "GO MG MS SP", "Parana"},
		"F3": {"atom-type description", "referential integrity"},
		"F4": {"∈ AT*", "∈ LT*", "∈ DB*", "GEO_DB"},
		"F5": {"restriction (op-specific)", "propagation (prop)", "definition (α)"},
		"Q1": {"equal: true", "molecule m1"},
		"Q2": {"equivalent: true", "pn"},
		"P1": {"states", "MAD derive", "relational joins"},
		"P2": {"duplication", "NF² cells"},
		"P3": {"mt_state", "point_neighborhood", "never changed"},
		"P4": {"parts", "self-join closure"},
		"P5": {"Σ[hectare>50]", "Π[state,area]", "Definition 9"},
		"P6": {"molecule layer", "atom layer"},
	}
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, 1); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			for _, want := range wantContent[e.ID] {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q\n--- output ---\n%s", e.ID, want, out)
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := experiments.Lookup("F2"); !ok {
		t.Fatal("F2 must exist")
	}
	if _, ok := experiments.Lookup("ZZ"); ok {
		t.Fatal("ZZ must not exist")
	}
	if len(experiments.All()) != 13 {
		t.Fatalf("experiment count = %d, want 13", len(experiments.All()))
	}
}
