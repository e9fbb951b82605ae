package core

import (
	"fmt"

	"mad/internal/model"
)

// This file implements upward derivation: recovering the candidate roots
// of the molecules that could contain a given set of interior atoms. The
// paper's links are symmetric ("the direct representation and the
// consideration of bidirectional, i.e. symmetric links establish the
// basis of the model's flexibility", Section 2), so every directed link
// of a molecule-type description may legally be traversed against its
// declared direction. The planner uses this to enter a structure at a
// selective *interior* atom type — found through a secondary index —
// and climb to the roots, instead of scanning or indexing the root type.
//
// Root recovery is a superset operation: if an atom a is contained in
// the molecule rooted at r, then by the contained predicate there is a
// chain of component links from r down to a, so the upward walk (which
// follows the reversal of *every* edge, union semantics) reaches r from
// a. The converse does not hold — an upward path may pass through atoms
// a downward derivation would exclude (multi-parent intersection), so a
// recovered root's molecule need not contain any seed. Callers therefore
// keep the seeding predicate as a derivation-time prune hook; the
// planner's interior-index access path does exactly that.

// parents returns the atoms one step *up* edge ei from atom a — the
// reversal of partners — accounting the logical work in the shared
// statistics.
func (dv *Deriver) parents(ei int, a model.AtomID) []model.AtomID {
	out := dv.view.Partners(dv.stores[ei], a, !dv.fromA[ei])
	dv.db.Stats().LinksTraversed.Add(int64(len(out)) + 1)
	return out
}

// RecoverRoots climbs from the seed atoms of the type at position pos to
// the root type, following every incoming edge in reverse, and returns
// the de-duplicated candidate roots in ascending identifier order. The
// result is a superset of the roots whose molecules contain a seed (see
// the file comment); deriving the candidates downward with the seeding
// predicate as a prune hook yields exactly the qualifying molecules.
func (dv *Deriver) RecoverRoots(pos int, seeds []model.AtomID) ([]model.AtomID, error) {
	d := dv.desc
	if pos < 0 || pos >= d.NumTypes() {
		return nil, fmt.Errorf("core: position %d outside the description's %d types", pos, d.NumTypes())
	}
	typeName := d.types[pos]
	if typeName == d.Root() {
		// Entering at the root is the identity: the seeds are the roots.
		out := append([]model.AtomID(nil), seeds...)
		model.SortAtomIDs(out)
		return dedupSorted(out), nil
	}

	// Per-position reached sets, seeded at the entry position. Types are
	// climbed in reverse topological order, so when a type is processed
	// every downward path into it has already contributed its atoms.
	reached := make([]map[model.AtomID]bool, d.NumTypes())
	reached[pos] = make(map[model.AtomID]bool, len(seeds))
	for _, s := range seeds {
		reached[pos][s] = true
	}
	topo := d.topo
	rootPos, _ := d.Pos(d.Root())
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		tp, _ := d.Pos(t)
		if reached[tp] == nil {
			continue
		}
		for _, ei := range d.Incoming(t) {
			e := d.Edge(ei)
			fromPos, _ := d.Pos(e.From)
			for a := range reached[tp] {
				for _, p := range dv.parents(ei, a) {
					if reached[fromPos] == nil {
						reached[fromPos] = make(map[model.AtomID]bool)
					}
					reached[fromPos][p] = true
				}
			}
		}
	}
	out := make([]model.AtomID, 0, len(reached[rootPos]))
	for r := range reached[rootPos] {
		out = append(out, r)
	}
	model.SortAtomIDs(out)
	return out, nil
}

// dedupSorted removes adjacent duplicates from a sorted identifier slice.
func dedupSorted(ids []model.AtomID) []model.AtomID {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}
