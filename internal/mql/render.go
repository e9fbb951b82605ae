package mql

import (
	"fmt"
	"strings"

	"mad/internal/core"
	"mad/internal/model"
	"mad/internal/storage"
)

// Render formats a result for display: molecule sets as indented component
// trees (with shared atoms marked), recursive molecules level by level,
// and messages verbatim.
func (r *Result) Render(db *storage.Database) string {
	switch r.Kind {
	case RMessage, RPlan:
		return r.Message
	case RInserted:
		ids := make([]string, len(r.Inserted))
		for i, id := range r.Inserted {
			ids[i] = id.String()
		}
		return fmt.Sprintf("inserted %d atom(s): %s\n", len(r.Inserted), strings.Join(ids, ", "))
	case RAffected:
		return fmt.Sprintf("%d affected\n", r.Affected)
	case RCount:
		if r.GroupAttr == "" {
			return fmt.Sprintf("count: %d\n", r.Count)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d group(s) by %s\n", len(r.Groups), r.GroupAttr)
		for _, g := range r.Groups {
			fmt.Fprintf(&b, "%s = %s: %d\n", r.GroupAttr, g.Value, g.Count)
		}
		return b.String()
	case RMolecules:
		var b strings.Builder
		b.WriteString(RenderSummary(len(r.Set), r.Desc))
		for i, m := range r.Set {
			b.WriteString(renderMolecule(db, db.View(r.TS), i+1, m, r.Attrs, r.atoms))
		}
		return b.String()
	}
	return ""
}

// RenderSummary renders the count line of a SELECT result over desc —
// leading in Result.Render, trailing on the wire, where a streamed
// result's cardinality is unknown until the stream ends.
func RenderSummary(n int, desc *core.Desc) string {
	if desc.Closure() != nil {
		return fmt.Sprintf("%d recursive molecule(s)\n", n)
	}
	return fmt.Sprintf("%d molecule(s) of %s\n", n, desc)
}

// RenderMoleculeAt formats one streamed molecule exactly as Result.Render
// formats the i-th molecule (1-based) of a materialized set — the
// building block of incremental result delivery (the TCP server renders
// a cursor's molecules into CHUNK frames with it) — with attribute values
// resolved at commit timestamp ts (zero = latest view), so a molecule
// derived at a snapshot renders the values of that same commit.
func RenderMoleculeAt(db *storage.Database, ts uint64, i int, m *core.Molecule, attrs map[string][]string) string {
	return renderMolecule(db, db.View(ts), i, m, attrs, nil)
}

// renderMolecule renders the i-th molecule's header and body: an indented
// component tree, or — for a recursive molecule — its levels. Atom values
// come from cache (resolved while the result's view was still valid)
// before a read through view.
func renderMolecule(db *storage.Database, view storage.View, i int, m *core.Molecule, attrs map[string][]string, cache map[model.AtomID]model.Atom) string {
	var b strings.Builder
	levels := m.Levels()
	if levels == nil {
		fmt.Fprintf(&b, "-- molecule %d (%d atoms, %d links)\n", i, m.Size(), m.NumLinks())
		b.WriteString(formatMolecule(db, view, m, attrs, cache))
		return b.String()
	}
	fmt.Fprintf(&b, "-- molecule %d (root %s, %d atoms, depth %d)\n", i, m.Root(), m.Size(), len(levels)-1)
	c, _ := db.Container(m.Desc().Root())
	for depth, level := range levels {
		fmt.Fprintf(&b, "level %d:", depth)
		for _, id := range level {
			a, ok := cache[id]
			if !ok && c != nil {
				a, ok = view.Atom(c, id)
			}
			if ok {
				fmt.Fprintf(&b, " %s", a.Get(0))
			} else {
				fmt.Fprintf(&b, " %s", id)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatMolecule renders one molecule as an indented tree honouring the
// projection's attribute narrowing.
func formatMolecule(db *storage.Database, view storage.View, m *core.Molecule, attrs map[string][]string, cache map[model.AtomID]model.Atom) string {
	var b strings.Builder
	d := m.Desc()
	printed := make(map[model.AtomID]bool)
	var rec func(typeName string, id model.AtomID, depth int)
	rec = func(typeName string, id model.AtomID, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		label := renderAtom(db, view, typeName, id, attrs[typeName], cache)
		if printed[id] {
			fmt.Fprintf(&b, "^%s: %s (shared)\n", typeName, label)
			return
		}
		printed[id] = true
		fmt.Fprintf(&b, "%s: %s\n", typeName, label)
		for _, ei := range d.Outgoing(typeName) {
			e := d.Edge(ei)
			for _, l := range m.LinksAt(ei) {
				if l.A == id {
					rec(e.To, l.B, depth+1)
				}
			}
		}
	}
	rec(d.Root(), m.Root(), 0)
	return b.String()
}

// renderAtom renders one atom with (possibly narrowed) attributes,
// preferring values from cache (resolved while the result's view was
// valid) over a read through view.
func renderAtom(db *storage.Database, view storage.View, typeName string, id model.AtomID, attrs []string, cache map[model.AtomID]model.Atom) string {
	c, ok := db.Container(typeName)
	if !ok {
		return id.String()
	}
	a, ok := cache[id]
	if !ok {
		a, ok = view.Atom(c, id)
	}
	if !ok {
		return id.String()
	}
	d := c.Desc()
	var parts []string
	if attrs == nil {
		for i := 0; i < d.Len(); i++ {
			parts = append(parts, d.Attr(i).Name+"="+a.Get(i).String())
		}
	} else {
		for _, name := range attrs {
			if i, ok := d.Lookup(name); ok {
				parts = append(parts, name+"="+a.Get(i).String())
			}
		}
	}
	return id.String() + "{" + strings.Join(parts, ", ") + "}"
}
