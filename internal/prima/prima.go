// Package prima mirrors the two-layer architecture of the PRIMA prototype
// (Chapter 5): "the basic component provides an atom-oriented interface
// (similar to the functionality of atom-type algebra) for the second
// component that performs molecule processing and implements an MQL
// interface (similar to the functionality of molecule algebra)".
//
// The Engine runs queries through both layers while accounting the work
// each performs: the atom-oriented layer's traffic (atoms fetched, links
// traversed, index lookups) is read from the storage statistics, while the
// molecule-processing layer reports molecules assembled, qualification
// evaluations and wall-clock time. The P6 experiment prints this split.
package prima

import (
	"fmt"
	"strings"
	"time"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/mql"
	"mad/internal/storage"
)

// Report is the per-query two-layer work accounting.
type Report struct {
	Query string
	// Atom-oriented interface (lower layer).
	AtomLayer storage.StatsSnapshot
	// Molecule-processing layer (upper layer).
	MoleculesAssembled int
	MoleculesQualified int
	AtomsInMolecules   int
	LinksInMolecules   int
	Elapsed            time.Duration
}

// String renders the report as the two-layer split.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", r.Query)
	fmt.Fprintf(&b, "  molecule layer: %d assembled, %d qualified, %d atoms, %d links, %s\n",
		r.MoleculesAssembled, r.MoleculesQualified, r.AtomsInMolecules, r.LinksInMolecules,
		r.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(&b, "  atom layer:     %d atoms fetched, %d links traversed, %d index lookups\n",
		r.AtomLayer.AtomsFetched, r.AtomLayer.LinksTraversed, r.AtomLayer.IndexLookups)
	return b.String()
}

// Engine is the two-layer query engine.
type Engine struct {
	db   *storage.Database
	sess *mql.Session
}

// New opens an engine over the database.
func New(db *storage.Database) *Engine {
	return &Engine{db: db, sess: mql.NewSession(db)}
}

// Session exposes the engine's MQL session (upper-layer interface).
func (e *Engine) Session() *mql.Session { return e.sess }

// Run derives and restricts a molecule type in the molecule-processing
// layer and reports the per-layer work.
func (e *Engine) Run(mt *core.MoleculeType, pred expr.Expr) (core.MoleculeSet, *Report, error) {
	rep := &Report{Query: fmt.Sprintf("Σ[%v](%s)", predString(pred), mt.Name())}
	before := e.db.Stats().Snapshot()
	start := time.Now()
	dv, err := mt.Deriver()
	if err != nil {
		return nil, nil, err
	}
	var set core.MoleculeSet
	var evalErr error
	dv.Walk(func(m *core.Molecule) bool {
		rep.MoleculesAssembled++
		keep, err := expr.EvalPredicate(pred, core.Binding{DB: e.db, M: m})
		if err != nil {
			evalErr = err
			return false
		}
		if keep {
			rep.MoleculesQualified++
			rep.AtomsInMolecules += m.Size()
			rep.LinksInMolecules += m.NumLinks()
			set = append(set, m)
		}
		return true
	})
	if evalErr != nil {
		return nil, nil, evalErr
	}
	rep.Elapsed = time.Since(start)
	rep.AtomLayer = e.db.Stats().Snapshot().Sub(before)
	return set, rep, nil
}

// RunMQL executes an MQL statement through the upper layer and reports the
// two-layer split.
func (e *Engine) RunMQL(query string) (*mql.Result, *Report, error) {
	rep := &Report{Query: strings.TrimSpace(query)}
	before := e.db.Stats().Snapshot()
	start := time.Now()
	res, err := e.sess.Exec(query)
	if err != nil {
		return nil, nil, err
	}
	rep.Elapsed = time.Since(start)
	rep.AtomLayer = e.db.Stats().Snapshot().Sub(before)
	rep.MoleculesAssembled = len(res.Set)
	rep.MoleculesQualified = rep.MoleculesAssembled
	for _, m := range res.Set {
		rep.AtomsInMolecules += m.Size()
		rep.LinksInMolecules += m.NumLinks()
	}
	return res, rep, nil
}

func predString(pred expr.Expr) string {
	if pred == nil {
		return "true"
	}
	return pred.String()
}
