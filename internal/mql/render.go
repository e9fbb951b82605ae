package mql

import (
	"fmt"
	"strings"

	"mad/internal/core"
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
		b := []byte(RenderSummary(len(r.Set), r.Desc))
		c := &Cursor{db: db, res: r}
		for m := range c.Seq() {
			b = c.AppendMolecule(b, m)
		}
		return string(b)
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
// formats the i-th molecule (1-based) of a materialized set, with attribute
// values resolved at commit timestamp ts (zero = latest view), so a
// molecule derived at a snapshot renders the values of that same commit.
// Cursor.AppendMolecule renders a cursor's molecules the same way without
// resolving the description's containers again for each one.
func RenderMoleculeAt(db *storage.Database, ts uint64, i int, m *core.Molecule, attrs map[string][]string) string {
	return string(core.NewRenderer(db, db.View(ts), attrs, nil).Append(nil, i, m))
}
