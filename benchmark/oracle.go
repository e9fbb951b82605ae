package main

import (
	"fmt"
	"sort"
	"strings"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/recursive"
	"mad/internal/storage"
)

// oracle computes the answer a statement must give by the naive path:
// derive every molecule of the structure (core.Deriver.Walk), judge each
// with expr.EvalPredicate, then sort, cut and count in plain Go; recursive
// structures go through recursive.Type's per-root closure. The planner,
// the plan cache, the indexes and the streaming executor take no part.
// It returns the text a correct server renders, which digest then reads
// exactly as it reads a response.
type oracle struct {
	db   *storage.Database
	sets map[string]core.MoleculeSet // every molecule of a structure, by its description
}

func newOracle(db *storage.Database) *oracle {
	return &oracle{db: db, sets: make(map[string]core.MoleculeSet)}
}

func parseSelect(text string) (*mql.SelectStmt, error) {
	st, err := mql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*mql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("oracle: %q is not a SELECT", text)
	}
	return sel, nil
}

// expect is the naive answer to a SELECT. A non-nil roots names the
// qualifying roots the generator knows by construction: the molecules are
// then derived from those roots alone, and the statement's predicate must
// hold on each. It keeps thousands of point lookups from costing a full
// derivation apiece.
func (o *oracle) expect(text string, roots []model.AtomID) (answer, error) {
	sel, err := parseSelect(text)
	if err != nil {
		return answer{}, err
	}
	var out string
	if sel.From.Recursive != nil {
		out, err = o.recursive(sel, roots)
	} else {
		out, err = o.plain(sel, roots)
	}
	if err != nil {
		return answer{}, fmt.Errorf("oracle: %s: %w", text, err)
	}
	a := digest([]byte(out))
	if roots != nil && a.molecules != len(roots) {
		return answer{}, fmt.Errorf("oracle: %s: the predicate rejects a root the generator expects", text)
	}
	return a, nil
}

func (o *oracle) derived(desc *core.Desc) (core.MoleculeSet, error) {
	if set, ok := o.sets[desc.String()]; ok {
		return set, nil
	}
	dv, err := core.NewDeriver(o.db, desc)
	if err != nil {
		return nil, err
	}
	var set core.MoleculeSet
	dv.Walk(func(m *core.Molecule) bool {
		set = append(set, m)
		return true
	})
	o.sets[desc.String()] = set
	return set, nil
}

func (o *oracle) plain(sel *mql.SelectStmt, roots []model.AtomID) (string, error) {
	desc, err := mql.BuildDesc(o.db, sel.From.Struct)
	if err != nil {
		return "", err
	}
	var candidates core.MoleculeSet
	if roots == nil {
		if candidates, err = o.derived(desc); err != nil {
			return "", err
		}
	} else {
		dv, err := core.NewDeriver(o.db, desc)
		if err != nil {
			return "", err
		}
		if candidates, err = dv.DeriveRoots(roots); err != nil {
			return "", err
		}
	}
	var keep core.MoleculeSet
	for _, m := range candidates {
		ok, err := expr.EvalPredicate(sel.Where, core.Binding{DB: o.db, M: m})
		if err != nil {
			return "", err
		}
		if ok {
			keep = append(keep, m)
		}
	}
	rootAttr := func(m *core.Molecule, attr string) (model.Value, error) {
		return o.attrOf(desc.Root(), m.Root(), attr)
	}
	if sel.Count {
		var vals []model.Value
		if sel.GroupBy != nil {
			for _, m := range keep {
				v, err := rootAttr(m, sel.GroupBy.Attr)
				if err != nil {
					return "", err
				}
				vals = append(vals, v)
			}
		}
		return renderCount(sel, len(keep), vals), nil
	}
	if ob := sel.OrderBy; ob != nil {
		keys := make(map[model.AtomID]model.Value, len(keep))
		for _, m := range keep {
			if keys[m.Root()], err = rootAttr(m, ob.Attr); err != nil {
				return "", err
			}
		}
		// Molecules order by their root's value, ties by root identifier
		// ascending whatever the direction.
		sort.SliceStable(keep, func(i, j int) bool {
			c := keys[keep[i].Root()].Compare(keys[keep[j].Root()])
			if c == 0 {
				return keep[i].Root() < keep[j].Root()
			}
			if ob.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if sel.Limit > 0 && len(keep) > sel.Limit {
		keep = keep[:sel.Limit]
	}
	// The benchmark's projections narrow attributes and keep every type,
	// so the molecules need no pruning.
	var attrs map[string][]string
	if !sel.All {
		if len(sel.Items) != desc.NumTypes() {
			return "", fmt.Errorf("projection drops a type")
		}
		attrs = make(map[string][]string)
		for _, it := range sel.Items {
			if it.Attrs != nil {
				attrs[it.Type] = it.Attrs
			}
		}
	}
	var b strings.Builder
	for i, m := range keep {
		b.WriteString(mql.RenderMoleculeAt(o.db, 0, i+1, m, attrs))
	}
	fmt.Fprintf(&b, "%d molecule(s) of %s\n", len(keep), desc)
	return b.String(), nil
}

func (o *oracle) attrOf(typeName string, id model.AtomID, attr string) (model.Value, error) {
	a, ok := o.db.GetAtom(typeName, id)
	if !ok {
		return model.Null(), fmt.Errorf("atom %v missing from %q", id, typeName)
	}
	c, _ := o.db.Container(typeName)
	pos, ok := c.Desc().Lookup(attr)
	if !ok {
		return model.Null(), fmt.Errorf("%q has no attribute %q", typeName, attr)
	}
	return a.Get(pos), nil
}

// renderCount mirrors how a count result renders: "count: N", or one line
// per group in ascending value order, cut to LIMIT groups.
func renderCount(sel *mql.SelectStmt, n int, groupVals []model.Value) string {
	if sel.GroupBy == nil {
		return fmt.Sprintf("count: %d\n", n)
	}
	counts := make(map[model.Key]int)
	var distinct []model.Value
	for _, v := range groupVals {
		if counts[v.Key()] == 0 {
			distinct = append(distinct, v)
		}
		counts[v.Key()]++
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].Compare(distinct[j]) < 0 })
	if sel.Limit > 0 && len(distinct) > sel.Limit {
		distinct = distinct[:sel.Limit]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d group(s) by %s\n", len(distinct), sel.GroupBy.Attr)
	for _, v := range distinct {
		fmt.Fprintf(&b, "%s = %s: %d\n", sel.GroupBy.Attr, v, counts[v.Key()])
	}
	return b.String()
}

func (o *oracle) recursive(sel *mql.SelectStmt, roots []model.AtomID) (string, error) {
	rc := sel.From.Recursive
	rt, err := recursive.Define(o.db, "", rc.Type, rc.Link, rc.Up, rc.Depth)
	if err != nil {
		return "", err
	}
	c, ok := o.db.Container(rc.Type)
	if !ok {
		return "", fmt.Errorf("%q has no container", rc.Type)
	}
	if roots == nil {
		roots = c.IDs()
	}
	var keep []*recursive.Molecule
	for _, r := range roots {
		a, ok := c.Get(r)
		if !ok {
			return "", fmt.Errorf("atom %v missing from %q", r, rc.Type)
		}
		// The qualification of a recursive molecule judges its root atom.
		ok, err := expr.EvalPredicate(sel.Where, expr.AtomBinding{TypeName: rc.Type, Desc: c.Desc(), Atom: a})
		if err != nil {
			return "", err
		}
		if !ok {
			continue
		}
		m, err := rt.DeriveFor(r)
		if err != nil {
			return "", err
		}
		keep = append(keep, m)
	}
	if sel.Count {
		var vals []model.Value
		if sel.GroupBy != nil {
			for _, m := range keep {
				v, err := o.attrOf(rc.Type, m.Root, sel.GroupBy.Attr)
				if err != nil {
					return "", err
				}
				vals = append(vals, v)
			}
		}
		return renderCount(sel, len(keep), vals), nil
	}
	if sel.Limit > 0 && len(keep) > sel.Limit {
		keep = keep[:sel.Limit]
	}
	var b strings.Builder
	for i, m := range keep {
		fmt.Fprintf(&b, "-- molecule %d (root %s, %d atoms, depth %d)\n", i+1, m.Root, m.Size(), m.Depth())
		for d, level := range m.Levels {
			fmt.Fprintf(&b, "level %d:", d)
			for _, id := range level {
				a, _ := c.Get(id)
				fmt.Fprintf(&b, " %s", a.Get(0))
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "%d recursive molecule(s)\n", len(keep))
	return b.String(), nil
}
