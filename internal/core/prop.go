package core

import (
	"fmt"

	"mad/internal/model"
	"mad/internal/storage"
)

// PropResult reports what propagation installed.
type PropResult struct {
	// Type is the molecule type over the enlarged database.
	Type *MoleculeType
	// TypeMap maps each original atom-type name of rsd to its renamed
	// propagated atom type (C′ of Definition 9).
	TypeMap map[string]string
	// LinkMap maps each original edge position of rsd to the inherited
	// link type's fresh name (G′ of Definition 9).
	LinkMap []string
}

// Prop materializes a result set rst = <mname, rsd, rsv> into the
// database: prop(rst, DB) = <mt, DB′> (Definition 9). The database is
// enlarged in place with
//
//   - renamed atom types C′ that "exhibit the same atom-type description
//     but only a restricted atom-type occurrence: the corresponding atoms
//     are selected only from the elements within rsv" — the very same
//     atoms, by identity, so sharing survives propagation; and
//   - inherited link types G′ whose occurrences are restricted to the
//     component links used by rsv,
//
// and the returned molecule type satisfies mt = α[mname, G′](C′) — the
// closure step every molecule-type operation ends with (Fig. 5).
//
// projections optionally narrows the propagated description of selected
// original types to the named attributes (molecule projection Π reuses
// propagation this way); a nil map or missing entry keeps all attributes.
func Prop(db *storage.Database, mname string, rsd *Desc, rsv MoleculeSet, projections map[string][]string, tr *OpTrace) (*PropResult, error) {
	if rsd.Closure() != nil {
		return nil, fmt.Errorf("core: prop: %s is a closure description; recursive molecule types are query-mode only", rsd)
	}
	done := tr.Begin("propagation (prop)")
	schema := db.Schema()

	// Install C′: renamed atom types with restricted occurrences.
	typeMap := make(map[string]string, rsd.NumTypes())
	renamedTypes := make([]string, 0, rsd.NumTypes())
	for _, t := range rsd.Types() {
		c, ok := db.Container(t)
		if !ok {
			return nil, fmt.Errorf("core: prop: atom type %q has no container", t)
		}
		desc := c.Desc()
		var positions []int
		if attrs, narrow := projections[t]; narrow && attrs != nil {
			pd, err := desc.Project(attrs)
			if err != nil {
				return nil, fmt.Errorf("core: prop: projecting %q: %w", t, err)
			}
			positions = make([]int, len(attrs))
			for i, a := range attrs {
				positions[i], _ = desc.Lookup(a)
			}
			desc = pd
		}
		fresh := schema.FreshAtomName(t)
		if _, err := db.DefineAtomType(fresh, desc); err != nil {
			return nil, err
		}
		typeMap[t] = fresh
		renamedTypes = append(renamedTypes, fresh)

		pos, _ := rsd.Pos(t)
		seen := make(map[model.AtomID]bool)
		for _, m := range rsv {
			// Result sets may mix molecules over same-shaped but
			// differently named descriptions (Ω, Δ); fetch each atom from
			// the container of the molecule's *own* type at this position.
			src := c
			if mt := m.Desc().Types()[pos]; mt != t {
				mc, ok := db.Container(mt)
				if !ok {
					return nil, fmt.Errorf("core: prop: atom type %q has no container", mt)
				}
				src = mc
			}
			for _, id := range m.AtomsAt(pos) {
				if seen[id] {
					continue
				}
				seen[id] = true
				a, ok := src.Get(id)
				if !ok {
					return nil, fmt.Errorf("core: prop: component atom %v missing from %q", id, t)
				}
				if positions != nil {
					vals := make([]model.Value, len(positions))
					for i, p := range positions {
						vals[i] = a.Get(p)
					}
					a = model.NewAtom(id, vals...)
				}
				if err := db.AdoptAtom(fresh, a); err != nil {
					return nil, err
				}
			}
		}
	}

	// Install G′: inherited link types with restricted occurrences.
	linkMap := make([]string, rsd.NumEdges())
	newEdges := make([]DirectedLink, rsd.NumEdges())
	for ei, e := range rsd.Edges() {
		fresh := schema.FreshLinkName(e.Link)
		desc := model.LinkDesc{SideA: typeMap[e.From], SideB: typeMap[e.To]}
		if _, err := db.DefineLinkType(fresh, desc); err != nil {
			return nil, err
		}
		linkMap[ei] = fresh
		newEdges[ei] = DirectedLink{Link: fresh, From: typeMap[e.From], To: typeMap[e.To]}
		for _, m := range rsv {
			for _, l := range m.LinksAt(ei) {
				// l.A is always the edge's From side in derived molecules.
				if err := db.Connect(fresh, l.A, l.B); err != nil {
					return nil, err
				}
			}
		}
	}

	done(fmt.Sprintf("C'=%d types, G'=%d links, |rsv|=%d", len(renamedTypes), len(newEdges), len(rsv)))

	// Close with the molecule-type definition α over the enlarged DB.
	doneAlpha := tr.Begin("definition (α)")
	md, err := NewDesc(db, renamedTypes, newEdges)
	if err != nil {
		return nil, fmt.Errorf("core: prop: result description invalid: %w", err)
	}
	mt, err := DefineDesc(db, mname, md)
	if err != nil {
		return nil, err
	}
	doneAlpha(fmt.Sprintf("mt=%s over enlarged DB", mt.Name()))
	return &PropResult{Type: mt, TypeMap: typeMap, LinkMap: linkMap}, nil
}
