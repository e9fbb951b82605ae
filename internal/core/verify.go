package core

import (
	"fmt"
	"slices"

	"mad/internal/model"
	"mad/internal/storage"
)

// VerifyMolecule checks mv_graph(m, md) — the correctness predicate of
// Definition 6 — directly against the database, independently of the
// derivation engine, so property tests can confirm that derivation and
// specification agree:
//
//   - shape: every component atom belongs to its type's occurrence, every
//     component link instantiates its edge's link type between contained
//     atoms;
//   - md_graph on the instance: the molecule graph is coherent (every atom
//     reachable from the root along component links) — acyclicity follows
//     from the layered type structure;
//   - total: containment — every non-root component atom has, for *each*
//     directed link type arriving at its type, a linked contained parent —
//     and maximality — no atom outside the molecule satisfies containment.
func VerifyMolecule(db *storage.Database, m *Molecule) error {
	d := m.Desc()

	// Shape: atoms exist in their containers.
	for i, t := range d.Types() {
		c, ok := db.Container(t)
		if !ok {
			return fmt.Errorf("verify: no container for %q", t)
		}
		for _, id := range m.AtomsAt(i) {
			if !c.Has(id) {
				return fmt.Errorf("verify: component atom %v not in occurrence of %q", id, t)
			}
		}
	}
	// Shape: links exist and connect contained atoms.
	for ei, e := range d.Edges() {
		ls, ok := db.LinkStore(e.Link)
		if !ok {
			return fmt.Errorf("verify: no store for link type %q", e.Link)
		}
		fromA := ls.Desc().SideA == e.From
		fromPos, _ := d.Pos(e.From)
		toPos, _ := d.Pos(e.To)
		for _, l := range m.LinksAt(ei) {
			if !slices.Contains(m.AtomsAt(fromPos), l.A) {
				return fmt.Errorf("verify: link %v: parent not contained under %q", l, e.From)
			}
			if !slices.Contains(m.AtomsAt(toPos), l.B) {
				return fmt.Errorf("verify: link %v: child not contained under %q", l, e.To)
			}
			var stored bool
			if fromA {
				stored = ls.Has(l.A, l.B)
			} else {
				stored = ls.Has(l.B, l.A)
			}
			if !stored {
				return fmt.Errorf("verify: link %v not in occurrence of %q", l, e.Link)
			}
		}
	}
	// Coherence: every component atom reachable from the root.
	reach := map[model.AtomID]bool{m.Root(): true}
	for _, t := range d.Topo() {
		for _, ei := range d.Outgoing(t) {
			for _, l := range m.LinksAt(ei) {
				if reach[l.A] {
					reach[l.B] = true
				}
			}
		}
	}
	for i, t := range d.Types() {
		for _, id := range m.AtomsAt(i) {
			if !reach[id] {
				return fmt.Errorf("verify: atom %v of %q unreachable from root (incoherent)", id, t)
			}
		}
	}
	// Totality.
	return verifyTotal(db, m)
}

// verifyTotal checks the predicate total(m, md): containment of every
// component atom and maximality against the full occurrences.
func verifyTotal(db *storage.Database, m *Molecule) error {
	d := m.Desc()
	for _, t := range d.Types() {
		if t == d.Root() {
			continue
		}
		pos, _ := d.Pos(t)
		c, ok := db.Container(t)
		if !ok {
			return fmt.Errorf("verify: no container for %q", t)
		}
		var violation error
		c.Scan(func(a model.Atom) bool {
			in, err := containedIn(db, m, t, a.ID)
			if err != nil {
				violation = err
				return false
			}
			isMember := slices.Contains(m.AtomsAt(pos), a.ID)
			if in && !isMember {
				violation = fmt.Errorf("verify: not total: atom %v of %q is contained but missing", a.ID, t)
				return false
			}
			if !in && isMember {
				violation = fmt.Errorf("verify: not total: atom %v of %q is a member but not contained", a.ID, t)
				return false
			}
			return true
		})
		if violation != nil {
			return violation
		}
	}
	return nil
}

// containedIn evaluates the contained(a, m, md) predicate for a non-root
// atom: for every directed link type arriving at its type, some contained
// parent atom links to it.
func containedIn(db *storage.Database, m *Molecule, typeName string, id model.AtomID) (bool, error) {
	d := m.Desc()
	for _, ei := range d.Incoming(typeName) {
		e := d.Edge(ei)
		ls, ok := db.LinkStore(e.Link)
		if !ok {
			return false, fmt.Errorf("verify: no store for link type %q", e.Link)
		}
		fromA := ls.Desc().SideA == e.From
		fromPos, _ := d.Pos(e.From)
		linked := false
		for _, pa := range m.AtomsAt(fromPos) {
			if fromA {
				if ls.Has(pa, id) {
					linked = true
					break
				}
			} else if ls.Has(id, pa) {
				linked = true
				break
			}
		}
		if !linked {
			return false, nil
		}
	}
	return true, nil
}

// VerifySet runs VerifyMolecule over a whole occurrence.
func VerifySet(db *storage.Database, set MoleculeSet) error {
	for i, m := range set {
		if err := VerifyMolecule(db, m); err != nil {
			return fmt.Errorf("molecule %d (root %v): %w", i, m.Root(), err)
		}
	}
	return nil
}
