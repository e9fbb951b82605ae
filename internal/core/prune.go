package core

import (
	"slices"

	"mad/internal/model"
)

// PruneTo builds the sub-molecule induced by a sub-description: sub must
// use a subset of m's types and edges (same root), and the result contains
// the component atoms reachable under sub's structure using only m's
// recorded component links, with the same multi-parent containment
// semantics as derivation. Query-mode projection uses it to avoid
// enlarging the database; on tree-shaped structures it coincides with the
// algebraic Π (re-derivation over the propagated result set), which
// remains the normative semantics.
func (m *Molecule) PruneTo(sub *Desc) *Molecule {
	b := builders.Get().(*builder)
	defer builders.Put(b)
	// seen holds the contained parents of the edge at hand; tmp, free
	// once the candidates are in cand, dedups the type's atoms.
	par, dup := &b.seen, &b.tmp
	out := b.start(sub, m.root)
	// edge returns m's links instantiating sub's edge ei, with par
	// holding the edge's contained parents.
	edge := func(ei int) (ls []model.Link) {
		if oe := slices.Index(m.desc.edges, sub.edges[ei]); oe >= 0 {
			ls = m.LinksAt(oe)
		}
		par.clear()
		for _, id := range out.AtomsAt(sub.pos[sub.edges[ei].From]) {
			par.add(id)
		}
		return ls
	}
	for _, t := range sub.topo[1:] {
		pos, inc := sub.pos[t], sub.incoming[t]
		for k, ei := range inc {
			ls := edge(ei)
			b.tmp.clear()
			for _, l := range ls {
				if par.has(l.A) && (k == 0 || b.cand.has(l.B)) {
					b.tmp.add(l.B)
				}
			}
			b.cand, b.tmp = b.tmp, b.cand
		}
		lo := len(out.atoms)
		dup.clear()
		for _, ei := range inc {
			ls := edge(ei)
			at := len(out.links)
			for _, l := range ls {
				if par.has(l.A) && b.cand.has(l.B) {
					if dup.add(l.B) {
						out.atoms = append(out.atoms, l.B)
					}
					out.links = append(out.links, l)
				}
			}
			out.setSpan(len(sub.types)+ei, at, len(out.links))
		}
		out.setSpan(pos, lo, len(out.atoms))
	}
	b.commit()
	return b.carve()[0]
}
