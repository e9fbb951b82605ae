package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractNames: BENCHMARK.json and the program name the same
// workloads and metrics with the same units and bounds, and every name is
// one a driver accepts.
func TestContractNames(t *testing.T) {
	c := readContract(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if !valid.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []contractMetric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || !valid.MatchString(m.name) {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
	for _, m := range c.EndToEnd {
		if m.Bound != regressionBound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", m.Name, m.Bound, regressionBound)
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// asserts no failed operation and a finite value for every metric a
// driver will ask for — and, through toResult, no other name.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w, seed: 7, seconds: 0.15, sc: tinyScale, outDir: t.TempDir()}
			if w.clients > runtime.NumCPU() {
				t.Skipf("%d connections on %d CPUs", w.clients, runtime.NumCPU())
			}
			for pass, run := range []func(config) (*report, error){runWorkload, runTraced} {
				names := [][]metric{endToEnd, perLayer}[pass]
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("pass %d: %d of %d operations failed: %v", pass, rep.failed, rep.attempted, rep.notes)
				}
				res := toResult(rep, names)
				if len(res.Metrics) != len(names) || len(rep.metrics) != len(names) {
					t.Errorf("pass %d: %d metrics emitted, %d measured, %d named", pass, len(res.Metrics), len(rep.metrics), len(names))
				}
				for _, m := range names {
					v, ok := rep.metrics[m.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("pass %d: %s = %v (measured: %v)", pass, m.name, v, ok)
					}
					if pass == 0 && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, want above zero", m.name, v)
					}
				}
			}
		})
	}
}

// TestDigest: a streamed and a materialized rendering of the same
// molecules read the same whatever the order inside a molecule, and the
// sequence digest alone tells two orders of molecules apart.
func TestDigest(t *testing.T) {
	streamed := "-- molecule 1 (3 atoms, 2 links)\nasm: a\n  unit: u1\n  unit: u2\n" +
		"-- molecule 2 (1 atoms, 0 links)\nasm: b\n2 molecule(s) of d\n"
	materialized := "2 molecule(s) of d\n-- molecule 1 (3 atoms, 2 links)\nasm: a\n  unit: u2\n  unit: u1\n" +
		"-- molecule 2 (1 atoms, 0 links)\nasm: b\n"
	swapped := "-- molecule 1 (1 atoms, 0 links)\nasm: b\n" +
		"-- molecule 2 (3 atoms, 2 links)\nasm: a\n  unit: u1\n  unit: u2\n2 molecule(s) of d\n"
	other := "-- molecule 1 (3 atoms, 2 links)\nasm: a\n  unit: u1\n  unit: u3\n" +
		"-- molecule 2 (1 atoms, 0 links)\nasm: b\n2 molecule(s) of d\n"
	s, m, w, o := digest([]byte(streamed)), digest([]byte(materialized)), digest([]byte(swapped)), digest([]byte(other))
	if s.molecules != 2 || s.stated != 2 || s != m {
		t.Errorf("streamed %+v, materialized %+v", s, m)
	}
	if w.multiset != s.multiset || w.sequence == s.sequence {
		t.Errorf("swapped molecules: %+v against %+v", w, s)
	}
	if o.multiset == s.multiset {
		t.Error("a different atom leaves the digest unchanged")
	}
	levels := digest([]byte("-- molecule 1 (root t1#1, 3 atoms, depth 1)\nlevel 0: 1\nlevel 1: 2 3\n1 recursive molecule(s)\n"))
	turned := digest([]byte("1 recursive molecule(s)\n-- molecule 1 (root t1#1, 3 atoms, depth 1)\nlevel 0: 1\nlevel 1: 3 2\n"))
	if levels != turned || levels.stated != 1 {
		t.Errorf("levels %+v, turned %+v", levels, turned)
	}
}
