package core

import (
	"fmt"

	"mad/internal/model"
	"mad/internal/storage"
)

// Prop materializes a result set rst = <mname, rsd, rsv> into the
// database: prop(rst, DB) = <mt, DB′> (Definition 9) — the one sink every
// molecule-type operation ends in. Inside txn it defines
//
//   - renamed atom types C′ that "exhibit the same atom-type description
//     but only a restricted atom-type occurrence: the corresponding atoms
//     are selected only from the elements within rsv" — the very same
//     atoms, by identity, so sharing survives propagation; and
//   - inherited link types G′ whose occurrences are restricted to the
//     component links used by rsv,
//
// then consumes rsv one molecule at a time from next (nil, nil ends it),
// adopting each molecule's component atoms and connecting its component
// links. Component atoms are read through txn's view as Prop finds it,
// before its first write: the view the molecules were derived at, for a
// producer that read through txn. The returned molecule type satisfies
// mt = α[mname, G′](C′) — the closure step every molecule-type operation
// ends with (Fig. 5) — and its occurrence appears when txn commits.
//
// projections optionally narrows the propagated description of selected
// original types to the named attributes (molecule projection Π reuses
// propagation this way); a nil map or missing entry keeps all attributes.
func Prop(txn *storage.Txn, mname string, rsd *Desc, next func() (*Molecule, error), projections map[string][]string, tr *OpTrace) (*MoleculeType, error) {
	if rsd.Closure() != nil {
		return nil, fmt.Errorf("core: prop: %s is a closure description; recursive molecule types are query-mode only", rsd)
	}
	done := tr.begin("propagation (prop)")
	db, view := txn.DB(), txn.View()
	schema := db.Schema()

	// Define C′, then G′: the commit applies every declaration before the
	// data it holds.
	renamed := rsd.Types()
	narrow := make([][]int, len(renamed)) // per position: the kept attribute positions, nil = all
	for i, t := range renamed {
		c, ok := db.Container(t)
		if !ok {
			return nil, fmt.Errorf("core: prop: atom type %q has no container", t)
		}
		desc := c.Desc()
		if attrs := projections[t]; attrs != nil {
			pd, err := desc.Project(attrs)
			if err != nil {
				return nil, fmt.Errorf("core: prop: projecting %q: %w", t, err)
			}
			narrow[i] = make([]int, len(attrs))
			for j, a := range attrs {
				narrow[i][j], _ = desc.Lookup(a)
			}
			desc = pd
		}
		renamed[i] = schema.FreshAtomName(t)
		if err := txn.DefineAtomType(renamed[i], desc); err != nil {
			return nil, err
		}
	}
	edges := rsd.Edges()
	for ei, e := range edges {
		from, _ := rsd.Pos(e.From)
		to, _ := rsd.Pos(e.To)
		edges[ei] = DirectedLink{Link: schema.FreshLinkName(e.Link), From: renamed[from], To: renamed[to]}
		if err := txn.DefineLinkType(edges[ei].Link, model.LinkDesc{SideA: renamed[from], SideB: renamed[to]}); err != nil {
			return nil, err
		}
	}

	seen := make([]map[model.AtomID]bool, len(renamed))
	for i := range seen {
		seen[i] = make(map[model.AtomID]bool)
	}
	n := 0
	for ; ; n++ {
		m, err := next()
		if err != nil {
			return nil, err
		}
		if m == nil {
			break
		}
		// Result sets may mix molecules over same-shaped but differently
		// named descriptions (Ω, Δ); read each atom from the container of
		// the molecule's *own* type at its position.
		for pos, t := range m.desc.types {
			src, ok := db.Container(t)
			if !ok {
				return nil, fmt.Errorf("core: prop: atom type %q has no container", t)
			}
			for _, id := range m.AtomsAt(pos) {
				if seen[pos][id] {
					continue
				}
				seen[pos][id] = true
				a, ok := view.Atom(src, id)
				if !ok {
					return nil, fmt.Errorf("core: prop: component atom %v missing from %q", id, t)
				}
				if keep := narrow[pos]; keep != nil {
					vals := make([]model.Value, len(keep))
					for j, p := range keep {
						vals[j] = a.Get(p)
					}
					a = model.NewAtom(id, vals...)
				}
				if err := txn.AdoptAtom(renamed[pos], a); err != nil {
					return nil, err
				}
			}
		}
		for ei, e := range edges {
			for _, l := range m.LinksAt(ei) {
				// l.A is always the edge's From side in derived molecules.
				if err := txn.Connect(e.Link, l.A, l.B); err != nil {
					return nil, err
				}
			}
		}
	}
	done(fmt.Sprintf("C'=%d types, G'=%d links, |rsv|=%d", len(renamed), len(edges), n))

	// Close with the molecule-type definition α over the enlarged DB.
	doneAlpha := tr.begin("definition (α)")
	md, err := NewDesc(db, renamed, edges)
	if err != nil {
		return nil, fmt.Errorf("core: prop: result description invalid: %w", err)
	}
	mt, err := DefineDesc(db, mname, md)
	if err != nil {
		return nil, err
	}
	doneAlpha(fmt.Sprintf("mt=%s over enlarged DB", mt.Name()))
	return mt, nil
}
