// Package experiments regenerates every evaluation artifact of the paper:
// Figures 1–5, the two Chapter-4 example queries, and performance
// experiments backing the paper's qualitative claims. It is the frozen
// reproduction record: it calls the paper's operators and MQL statements,
// never the planner's API, so the planner can change under it. The
// madbench command is a thin CLI over this package; the engine's own
// benchmark is the wire-to-storage one under benchmark/.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"mad/internal/core"
	"mad/internal/geo"
	"mad/internal/storage"
)

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, scale int) error
}

// All returns the experiments in presentation order. scale multiplies the
// workload sizes of the P-series (1 = quick, 4 = paper-scale shapes).
func All() []Experiment {
	return []Experiment{
		{ID: "F1", Title: "Fig. 1 — ER diagram ↔ MAD diagram vs relational mapping", Run: RunF1},
		{ID: "F2", Title: "Fig. 2 — molecule types 'point neighborhood' and 'mt state'", Run: RunF2},
		{ID: "F3", Title: "Fig. 3 — relational vs MAD concept correspondence", Run: RunF3},
		{ID: "F4", Title: "Fig. 4 — formal specification of the geographic database", Run: RunF4},
		{ID: "F5", Title: "Fig. 5 — anatomy of the molecule-type operations", Run: RunF5},
		{ID: "Q1", Title: "Ch. 4 — SELECT ALL FROM mt_state(state-area-edge-point)", Run: RunQ1},
		{ID: "Q2", Title: "Ch. 4 — point neighborhood of 'pn' (symmetric links)", Run: RunQ2},
		{ID: "P1", Title: "MAD derivation vs relational auxiliary-relation joins", Run: RunP1},
		{ID: "P2", Title: "shared subobjects vs NF² duplication", Run: RunP2},
		{ID: "P3", Title: "dynamic object definition over one atom network", Run: RunP3},
		{ID: "P4", Title: "recursive molecules: parts explosion", Run: RunP4},
		{ID: "P5", Title: "closure: operator pipelines (Theorems 1–3)", Run: RunP5},
		{ID: "P6", Title: "PRIMA two-layer work split", Run: RunP6},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// header prints a section header.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n== %s: %s ==\n\n", id, title)
}

// table starts an aligned table writer.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// mtStateDesc is the Fig. 2 "mt state" structure.
func mtStateDesc() ([]string, []core.DirectedLink) {
	return []string{"state", "area", "edge", "point"},
		[]core.DirectedLink{
			{Link: "state-area", From: "state", To: "area"},
			{Link: "area-edge", From: "area", To: "edge"},
			{Link: "edge-point", From: "edge", To: "point"},
		}
}

// pointNeighborhoodDesc is the Fig. 2 "point neighborhood" structure.
func pointNeighborhoodDesc() ([]string, []core.DirectedLink) {
	return []string{"point", "edge", "area", "state", "net", "river"},
		[]core.DirectedLink{
			{Link: "edge-point", From: "point", To: "edge"},
			{Link: "area-edge", From: "edge", To: "area"},
			{Link: "state-area", From: "area", To: "state"},
			{Link: "net-edge", From: "edge", To: "net"},
			{Link: "river-net", From: "net", To: "river"},
		}
}

// defineMtState defines the mt_state molecule type over a database.
func defineMtState(db *storage.Database, name string) (*core.MoleculeType, error) {
	types, edges := mtStateDesc()
	return core.Define(db, name, types, edges)
}

// stateAbbrevs resolves the state abbreviations of a molecule, sorted.
func stateAbbrevs(db *storage.Database, m *core.Molecule) []string {
	var out []string
	for _, id := range m.AtomsOf("state") {
		a, ok := db.GetAtom("state", id)
		if !ok {
			continue
		}
		ab, _ := a.Get(1).AsString()
		out = append(out, ab)
	}
	sort.Strings(out)
	return out
}

// sampleOrErr builds the Fig. 1 sample.
func sampleOrErr() (*geo.Sample, error) { return geo.BuildSample() }
