package core

import (
	"fmt"
	"sort"
	"strings"

	"mad/internal/model"
	"mad/internal/storage"
)

// Molecule is one element m = <c, g> of a molecule-type occurrence: the
// component atoms c (grouped by the description's atom types) and the
// component links g (grouped by the description's directed edges). A
// molecule references atoms by identity; it never copies them, so two
// overlapping molecules literally share their common subobjects.
type Molecule struct {
	desc *Desc
	root model.AtomID

	// atoms[i] holds the component atoms belonging to desc.Types()[i],
	// in derivation (breadth-first) order.
	atoms [][]model.AtomID
	// links[e] holds the component links that instantiate desc.Edges()[e],
	// each with A = parent (edge From side), B = child.
	links [][]model.Link
	// member[i] indexes atoms[i] for O(1) membership tests.
	member []map[model.AtomID]bool
	// levels, for a molecule of a closure description, holds the end
	// offset in atoms[0] of every level of the closure: atoms[0] lists the
	// root, then the atoms first reached in round 1, round 2, …
	levels []int
}

// newMolecule allocates an empty molecule for the description.
func newMolecule(d *Desc, root model.AtomID) *Molecule {
	m := &Molecule{
		desc:   d,
		root:   root,
		atoms:  make([][]model.AtomID, d.NumTypes()),
		links:  make([][]model.Link, d.NumEdges()),
		member: make([]map[model.AtomID]bool, d.NumTypes()),
	}
	for i := range m.member {
		m.member[i] = make(map[model.AtomID]bool)
	}
	return m
}

// reset re-initializes a recycled molecule for a new root of the same
// description, keeping the allocated atom/link slices and member maps.
// Only molecules that never left the deriver (pruned mid-derivation, or
// rejected by a fused filter sink) may be recycled — a molecule handed to
// a caller is referenced by the result set and must stay immutable.
func (m *Molecule) reset(d *Desc, root model.AtomID) {
	m.desc = d
	m.root = root
	for i := range m.atoms {
		m.atoms[i] = m.atoms[i][:0]
		clear(m.member[i])
	}
	for e := range m.links {
		m.links[e] = m.links[e][:0]
	}
	m.levels = m.levels[:0]
}

// addAtom records a component atom under the type at position pos.
func (m *Molecule) addAtom(pos int, id model.AtomID) {
	if m.member[pos][id] {
		return
	}
	m.member[pos][id] = true
	m.atoms[pos] = append(m.atoms[pos], id)
}

// addLink records a component link instantiating edge e.
func (m *Molecule) addLink(e int, l model.Link) {
	m.links[e] = append(m.links[e], l)
}

// Desc returns the molecule's description.
func (m *Molecule) Desc() *Desc { return m.desc }

// Root returns the root atom's identifier.
func (m *Molecule) Root() model.AtomID { return m.root }

// AtomsOf returns the component atoms of the named type, in derivation
// order. The slice is shared; callers must not mutate it.
func (m *Molecule) AtomsOf(typeName string) []model.AtomID {
	pos, ok := m.desc.Pos(typeName)
	if !ok {
		return nil
	}
	return m.atoms[pos]
}

// AtomsAt returns the component atoms of the type at position pos.
func (m *Molecule) AtomsAt(pos int) []model.AtomID { return m.atoms[pos] }

// LinksAt returns the component links of the edge at position e.
func (m *Molecule) LinksAt(e int) []model.Link { return m.links[e] }

// Levels returns a closure molecule's atoms grouped by the round the
// fixpoint first reached them in — Levels()[0] is {root} — and nil for a
// molecule of a plain description. The inner slices are shared; callers
// must not mutate them.
func (m *Molecule) Levels() [][]model.AtomID {
	if len(m.levels) == 0 {
		return nil
	}
	out := make([][]model.AtomID, len(m.levels))
	lo := 0
	for i, hi := range m.levels {
		out[i] = m.atoms[0][lo:hi]
		lo = hi
	}
	return out
}

// Contains reports whether the molecule holds the atom under the named
// type.
func (m *Molecule) Contains(typeName string, id model.AtomID) bool {
	pos, ok := m.desc.Pos(typeName)
	if !ok {
		return false
	}
	return m.member[pos][id]
}

// Size returns the total number of component atoms.
func (m *Molecule) Size() int {
	n := 0
	for _, as := range m.atoms {
		n += len(as)
	}
	return n
}

// NumLinks returns the total number of component links.
func (m *Molecule) NumLinks() int {
	n := 0
	for _, ls := range m.links {
		n += len(ls)
	}
	return n
}

// AtomSet returns the identifiers of every component atom (deduplicated
// across types, sorted) — the molecule's atom set, used for the
// shared-subobject analyses of Fig. 2.
func (m *Molecule) AtomSet() []model.AtomID {
	set := make(map[model.AtomID]bool)
	for _, as := range m.atoms {
		for _, id := range as {
			set[id] = true
		}
	}
	out := make([]model.AtomID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return model.SortAtomIDs(out)
}

// Equal compares two molecules positionally: same description shape, and
// per node/edge position the same atom and link sets (order-insensitive).
// Propagated result types keep atom identity, so molecules remain
// comparable across enlarged databases (needed by Ω and Δ).
func (m *Molecule) Equal(o *Molecule) bool {
	if m == nil || o == nil {
		return m == o
	}
	if !m.desc.SameShape(o.desc) {
		return false
	}
	if m.root != o.root {
		return false
	}
	for i := range m.atoms {
		if len(m.atoms[i]) != len(o.atoms[i]) {
			return false
		}
		for _, id := range m.atoms[i] {
			if !o.member[i][id] {
				return false
			}
		}
	}
	for e := range m.links {
		if len(m.links[e]) != len(o.links[e]) {
			return false
		}
		set := make(map[model.Link]bool, len(o.links[e]))
		for _, l := range o.links[e] {
			set[l] = true
		}
		for _, l := range m.links[e] {
			if !set[l] {
				return false
			}
		}
	}
	return true
}

// Key returns a canonical string identifying the molecule's content
// (atom sets per position), for hashing molecule sets.
func (m *Molecule) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "r%d|", uint64(m.root))
	for i, as := range m.atoms {
		ids := append([]model.AtomID(nil), as...)
		model.SortAtomIDs(ids)
		fmt.Fprintf(&b, "%d:", i)
		for _, id := range ids {
			fmt.Fprintf(&b, "%d,", uint64(id))
		}
		b.WriteByte('|')
	}
	return b.String()
}

// Format renders the molecule as an indented component tree, fetching
// attribute values from the database. Shared atoms (already printed on
// another path) are marked with "^" — making Fig. 2's shared subobjects
// visible in text form.
func (m *Molecule) Format(db *storage.Database) string {
	return string(NewRenderer(db, db.View(0), nil, nil).appendTree(nil, m))
}

// MoleculeSet is a materialized molecule-type occurrence.
type MoleculeSet []*Molecule

// Roots returns the root identifiers of all molecules, in order.
func (s MoleculeSet) Roots() []model.AtomID {
	out := make([]model.AtomID, len(s))
	for i, m := range s {
		out[i] = m.root
	}
	return out
}

// SortByRoot orders the set by root identifier, for canonical display.
func (s MoleculeSet) SortByRoot() {
	sort.Slice(s, func(i, j int) bool { return s[i].root < s[j].root })
}

// SharedAtoms returns the atoms that occur in more than one molecule of
// the set, with their occurrence counts — quantifying the non-disjoint
// atom sets the paper's Fig. 2 highlights.
func (s MoleculeSet) SharedAtoms() map[model.AtomID]int {
	count := make(map[model.AtomID]int)
	for _, m := range s {
		for _, id := range m.AtomSet() {
			count[id]++
		}
	}
	for id, n := range count {
		if n < 2 {
			delete(count, id)
		}
	}
	return count
}

// TotalAtoms sums molecule sizes (with multiplicity; shared atoms count
// once per molecule) — the figure an NF² representation would have to
// materialize.
func (s MoleculeSet) TotalAtoms() int {
	n := 0
	for _, m := range s {
		n += m.Size()
	}
	return n
}

// DistinctAtoms counts the distinct atoms across the set — the figure the
// MAD representation stores.
func (s MoleculeSet) DistinctAtoms() int {
	set := make(map[model.AtomID]bool)
	for _, m := range s {
		for _, id := range m.AtomSet() {
			set[id] = true
		}
	}
	return len(set)
}
