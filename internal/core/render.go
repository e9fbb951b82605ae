package core

import (
	"strconv"

	"mad/internal/model"
	"mad/internal/storage"
)

// Renderer appends molecules as text: a header line, then an indented
// component tree with each atom as "type: id{a=v, …}" and an atom reached
// again on another path (Fig. 2's shared subobjects) marked "^… (shared)",
// or — for a closure molecule — one "level d:" line per fixpoint round.
// It resolves a description's containers and projected attribute
// positions once and reuses its scratch across molecules, so appending
// into a reused buffer allocates nothing per molecule. A Renderer is not
// safe for concurrent use.
type Renderer struct {
	db    *storage.Database
	view  storage.View
	attrs map[string][]string
	// cache holds atoms resolved while view was still valid; it is read
	// before view.
	cache map[model.AtomID]model.Atom

	desc    *Desc
	types   []typeText // per position of desc
	printed map[model.AtomID]bool
}

// typeText is what rendering an atom of one description type needs.
type typeText struct {
	c    *storage.Container // nil: the type's atoms render as bare ids
	cols []int              // attribute positions printed, in order
	out  []int              // edges leaving the type
}

// NewRenderer returns a renderer reading attribute values through view,
// preferring cache (nil for none), and narrowing each type to the
// attribute names attrs lists for it (nil: every attribute).
func NewRenderer(db *storage.Database, view storage.View, attrs map[string][]string, cache map[model.AtomID]model.Atom) *Renderer {
	return &Renderer{db: db, view: view, attrs: attrs, cache: cache}
}

// Append appends molecule m, numbered i in its result.
func (r *Renderer) Append(dst []byte, i int, m *Molecule) []byte {
	dst = strconv.AppendInt(append(dst, "-- molecule "...), int64(i), 10)
	if len(m.levels) == 0 {
		dst = strconv.AppendInt(append(dst, " ("...), int64(m.Size()), 10)
		dst = strconv.AppendInt(append(dst, " atoms, "...), int64(m.NumLinks()), 10)
		return r.appendTree(append(dst, " links)\n"...), m)
	}
	dst = m.root.Append(append(dst, " (root "...))
	dst = strconv.AppendInt(append(dst, ", "...), int64(m.Size()), 10)
	dst = strconv.AppendInt(append(dst, " atoms, depth "...), int64(len(m.levels)-1), 10)
	dst = append(dst, ")\n"...)
	r.resolve(m)
	t := &r.types[m.desc.pos[m.desc.root]]
	lo := int32(0)
	for depth, hi := range m.levels {
		dst = append(strconv.AppendInt(append(dst, "level "...), int64(depth), 10), ':')
		for _, id := range m.atoms[lo:hi] {
			v := model.ID(id) // an atom the view lacks renders as its id
			if a, ok := r.atom(t, id); ok {
				v = a.Get(0)
			}
			dst = v.Append(append(dst, ' '))
		}
		dst, lo = append(dst, '\n'), hi
	}
	return dst
}

// appendTree appends m's component tree, without a header.
func (r *Renderer) appendTree(dst []byte, m *Molecule) []byte {
	r.resolve(m)
	clear(r.printed)
	return r.appendAtom(dst, m, m.desc.pos[m.desc.root], m.root, 0)
}

func (r *Renderer) appendAtom(dst []byte, m *Molecule, pos int, id model.AtomID, depth int) []byte {
	for range depth {
		dst = append(dst, "  "...)
	}
	t := &r.types[pos]
	shared := r.printed[id]
	if shared {
		dst = append(dst, '^')
	}
	dst = id.Append(append(append(dst, m.desc.types[pos]...), ": "...))
	if a, ok := r.atom(t, id); ok {
		dst = append(dst, '{')
		for j, col := range t.cols {
			if j > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(append(dst, t.c.Desc().Attr(col).Name...), '=')
			dst = a.Get(col).Append(dst)
		}
		dst = append(dst, '}')
	}
	if shared {
		return append(dst, " (shared)\n"...)
	}
	r.printed[id] = true
	dst = append(dst, '\n')
	for _, e := range t.out {
		for _, l := range m.LinksAt(e) {
			if l.A == id {
				dst = r.appendAtom(dst, m, m.desc.pos[m.desc.edges[e].To], l.B, depth+1)
			}
		}
	}
	return dst
}

// atom resolves id of type t, from the cache first; a type without a
// container has no atoms to render.
func (r *Renderer) atom(t *typeText, id model.AtomID) (a model.Atom, ok bool) {
	if a, ok = r.cache[id]; !ok && t.c != nil {
		a, ok = r.view.Atom(t.c, id)
	}
	return a, ok && t.c != nil
}

// resolve readies the per-type state and the scratch set for m's
// description, unless it is the description last rendered.
func (r *Renderer) resolve(m *Molecule) {
	d := m.desc
	if d == r.desc {
		return
	}
	r.desc, r.types, r.printed = d, make([]typeText, len(d.types)), make(map[model.AtomID]bool, m.Size())
	for pos, name := range d.types {
		t := &r.types[pos]
		t.out = d.outgoing[name]
		if t.c, _ = r.db.Container(name); t.c == nil {
			continue
		}
		names := r.attrs[name]
		if names == nil {
			names = t.c.Desc().Names()
		}
		t.cols = make([]int, 0, len(names))
		for _, n := range names {
			if col, ok := t.c.Desc().Lookup(n); ok {
				t.cols = append(t.cols, col)
			}
		}
	}
}
