package core

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
	"sync"

	"mad/internal/model"
	"mad/internal/storage"
)

// Molecule is one element m = <c, g> of a molecule-type occurrence: the
// component atoms c (grouped by the description's atom types) and the
// component links g (grouped by the description's directed edges). A
// molecule references atoms by identity; it never copies them, so two
// overlapping molecules literally share their common subobjects.
//
// The layout is flat, a packed sub-hypergraph: one node list, one
// incidence list and their offsets. A delivered molecule is immutable and
// carved, with the other molecules of its batch, from slabs it shares
// with them; membership is never stored — derivation dedups through its
// worker's scratch, and a lookup scans the type's atoms.
type Molecule struct {
	desc *Desc
	root model.AtomID

	// atoms holds the component atoms, each type's in derivation
	// (breadth-first) order; links the component links, each with A =
	// parent (edge From side), B = child.
	atoms []model.AtomID
	links []model.Link
	// span holds [start, end) offsets: atoms[span[2i]:span[2i+1]] belong
	// to desc.Types()[i], and links[span[2n+2e]:span[2n+2e+1]], n =
	// desc.NumTypes(), instantiate desc.Edges()[e].
	span []int32
	// levels, for a molecule of a closure description, holds the end
	// offset in atoms of every level of the closure: atoms lists the root,
	// then the atoms first reached in round 1, round 2, …
	levels []int32
}

// setSpan records [lo, hi) as the offsets of slot i: type position i, or
// edge i-n for n types.
func (m *Molecule) setSpan(i, lo, hi int) { m.span[2*i], m.span[2*i+1] = int32(lo), int32(hi) }

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
	return m.AtomsAt(pos)
}

// AtomsAt returns the component atoms of the type at position pos. The
// slice is shared and full (cap == len), so appending to it copies.
func (m *Molecule) AtomsAt(pos int) []model.AtomID {
	lo, hi := m.span[2*pos], m.span[2*pos+1]
	return m.atoms[lo:hi:hi]
}

// LinksAt returns the component links of the edge at position e, shared
// and full like AtomsAt's.
func (m *Molecule) LinksAt(e int) []model.Link {
	s := m.span[2*(len(m.desc.types)+e):]
	return m.links[s[0]:s[1]:s[1]]
}

// Levels returns a closure molecule's atoms grouped by the round the
// fixpoint first reached them in — Levels()[0] is {root} — and nil for a
// molecule of a plain description. The inner slices are shared; callers
// must not mutate them.
func (m *Molecule) Levels() [][]model.AtomID {
	if len(m.levels) == 0 {
		return nil
	}
	out := make([][]model.AtomID, len(m.levels))
	lo := int32(0)
	for i, hi := range m.levels {
		out[i] = m.atoms[lo:hi:hi]
		lo = hi
	}
	return out
}

// Contains reports whether the molecule holds the atom under the named
// type.
func (m *Molecule) Contains(typeName string, id model.AtomID) bool {
	return slices.Contains(m.AtomsOf(typeName), id)
}

// Size returns the total number of component atoms.
func (m *Molecule) Size() int { return len(m.atoms) }

// NumLinks returns the total number of component links.
func (m *Molecule) NumLinks() int { return len(m.links) }

// AtomSet returns the identifiers of every component atom (deduplicated
// across types, sorted) — the molecule's atom set, used for the
// shared-subobject analyses of Fig. 2.
func (m *Molecule) AtomSet() []model.AtomID {
	return dedupSorted(model.SortAtomIDs(slices.Clone(m.atoms)))
}

// Equal compares two molecules positionally: same description shape, and
// per node/edge position the same atom and link sets (order-insensitive).
// Propagated result types keep atom identity, so molecules remain
// comparable across enlarged databases (needed by Ω and Δ).
func (m *Molecule) Equal(o *Molecule) bool {
	if m == nil || o == nil {
		return m == o
	}
	if !m.desc.SameShape(o.desc) || m.root != o.root {
		return false
	}
	for i := range m.desc.types {
		if !sameSet(m.AtomsAt(i), o.AtomsAt(i), cmp.Compare[model.AtomID]) {
			return false
		}
	}
	for e := range m.desc.edges {
		if !sameSet(m.LinksAt(e), o.LinksAt(e), func(a, b model.Link) int {
			return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
		}) {
			return false
		}
	}
	return true
}

// sameSet reports whether two duplicate-free slices hold the same
// elements, in any order.
func sameSet[T any](a, b []T, order func(T, T) int) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, order)
	slices.SortFunc(b, order)
	return slices.EqualFunc(a, b, func(x, y T) bool { return order(x, y) == 0 })
}

// AppendKey appends a canonical binary key of the molecule's content to
// dst: the root, then per type position the atom count and the sorted
// identifiers, each a big-endian uint64. Molecules over same-shaped
// descriptions with equal keys hold the same atom sets per position; Ω,
// Δ and Ψ hash molecule sets on it.
func (m *Molecule) AppendKey(dst []byte) []byte {
	var buf [64]model.AtomID
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.root))
	for i := range m.desc.types {
		ids := model.SortAtomIDs(append(buf[:0], m.AtomsAt(i)...))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
		for _, id := range ids {
			dst = binary.BigEndian.AppendUint64(dst, uint64(id))
		}
	}
	return dst
}

// Key returns AppendKey's key as a string, to index molecules in a map.
func (m *Molecule) Key() string { return string(m.AppendKey(nil)) }

// builder lays molecules out in reusable buffers and carves the ones it
// keeps into exact-size slabs. The molecule under construction, m, sits
// in the spare capacity at the tail of the buffers: commit keeps it by
// extending the buffers over it, and one that is not kept is overwritten
// by the next. Its sets are the dedup a build needs — the atoms of the
// type being filled (seen) and the candidates of a type (cand, tmp) —
// and empty in O(1), so a molecule never stores membership.
type builder struct {
	m     Molecule
	atoms []model.AtomID
	links []model.Link
	ints  []int32
	kept  []Molecule

	seen, cand, tmp idSet
}

// builders keeps builders between runs, so a statement starts with the
// buffers and sets earlier statements grew.
var builders = sync.Pool{New: func() any { return new(builder) }}

// start begins m over d, holding just the root at its position.
func (b *builder) start(d *Desc, root model.AtomID) *Molecule {
	// Room at the tail lets a small molecule grow in place.
	n := 2 * (len(d.types) + len(d.edges))
	b.atoms, b.links, b.ints = slices.Grow(b.atoms, 32), slices.Grow(b.links, 32), slices.Grow(b.ints, n+8)
	span := b.ints[len(b.ints):][:n]
	clear(span)
	b.m = Molecule{desc: d, root: root, atoms: append(b.atoms[len(b.atoms):], root),
		links: b.links[len(b.links):], span: span, levels: span[n:n]}
	b.m.setSpan(d.pos[d.root], 0, 1)
	return &b.m
}

// commit keeps m.
func (b *builder) commit() {
	m := &b.m
	b.atoms = append(b.atoms, m.atoms...)
	b.links = append(b.links, m.links...)
	b.ints = append(append(b.ints, m.span...), m.levels...)
	b.kept = append(b.kept, *m)
}

// carve copies the kept molecules into one exact-size slab per buffer,
// returns them in commit order and empties the buffers for reuse.
func (b *builder) carve() MoleculeSet {
	if len(b.kept) == 0 {
		return nil
	}
	atoms, links, ints := slices.Clone(b.atoms), slices.Clone(b.links), slices.Clone(b.ints)
	ms, out := slices.Clone(b.kept), make(MoleculeSet, len(b.kept))
	for i := range ms {
		m := &ms[i]
		m.atoms, atoms = atoms[:len(m.atoms):len(m.atoms)], atoms[len(m.atoms):]
		m.links, links = links[:len(m.links):len(m.links)], links[len(m.links):]
		m.span, ints = ints[:len(m.span):len(m.span)], ints[len(m.span):]
		m.levels, ints = ints[:len(m.levels):len(m.levels)], ints[len(m.levels):]
		out[i] = m
	}
	b.reset()
	return out
}

// reset drops every kept molecule.
func (b *builder) reset() {
	b.atoms, b.links, b.ints, b.kept = b.atoms[:0], b.links[:0], b.ints[:0], b.kept[:0]
}

// idSet is a reusable set of atom identifiers: open addressing with
// linear probing, emptied in O(1) by moving to a new generation.
type idSet struct {
	slots []idSlot
	gen   uint32
	n     int
}

type idSlot struct {
	id  model.AtomID
	gen uint32 // the slot holds id while gen is the set's
}

// clear empties the set.
func (s *idSet) clear() {
	s.n = 0
	if s.gen++; s.gen == 0 { // wrapped: stale stamps would read as current
		clear(s.slots)
		s.gen = 1
	}
}

// add inserts id and reports whether it was absent.
func (s *idSet) add(id model.AtomID) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	sl := &s.slots[s.find(id)]
	if sl.gen == s.gen {
		return false
	}
	*sl = idSlot{id, s.gen}
	s.n++
	return true
}

// has reports whether id is in the set.
func (s *idSet) has(id model.AtomID) bool {
	return s.n > 0 && s.slots[s.find(id)].gen == s.gen
}

// find returns the slot holding id, or the free slot its probe ends at.
func (s *idSet) find(id model.AtomID) int {
	mask := len(s.slots) - 1
	i := int(uint64(id)*0x9e3779b97f4a7c15>>32) & mask
	for s.slots[i].gen == s.gen && s.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table, to at least 32 slots, keeping the members.
func (s *idSet) grow() {
	old, gen := s.slots, s.gen
	s.slots, s.gen, s.n = make([]idSlot, max(32, 2*len(old))), 1, 0
	for _, sl := range old {
		if sl.gen == gen {
			s.add(sl.id)
		}
	}
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
