package core

import (
	"fmt"

	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// MoleculeType is mt = <mname, md, mv> (Definition 7): a name, a
// molecule-type description over a database, and the molecule-type
// occurrence mv = m_dom(md). The occurrence is *intensional* — derived on
// demand from the atom networks, which is exactly what makes MAD object
// definition dynamic — but can be materialized with Derive.
type MoleculeType struct {
	name string
	desc *Desc
	db   *storage.Database
}

// Define is the operator molecule-type definition α[mname, G](C)
// (Definition 8): it validates <C, G> against the database and yields the
// molecule type whose occurrence is m_dom(<C, G>). An empty name draws a
// fresh one from the catalog's generator.
func Define(db *storage.Database, name string, types []string, edges []DirectedLink) (*MoleculeType, error) {
	desc, err := NewDesc(db, types, edges)
	if err != nil {
		return nil, err
	}
	return DefineDesc(db, name, desc)
}

// DefineDesc is Define for an already-validated description.
func DefineDesc(db *storage.Database, name string, desc *Desc) (*MoleculeType, error) {
	if name == "" {
		name = db.Schema().FreshAtomName("mt")
	}
	return &MoleculeType{name: name, desc: desc, db: db}, nil
}

// Name returns mname.
func (mt *MoleculeType) Name() string { return mt.name }

// Desc returns the molecule-type description md.
func (mt *MoleculeType) Desc() *Desc { return mt.desc }

// DB returns the database the type is defined over (possibly an enlarged
// database produced by earlier operations).
func (mt *MoleculeType) DB() *storage.Database { return mt.db }

// Deriver returns a prepared derivation plan for the type.
func (mt *MoleculeType) Deriver() (*Deriver, error) { return NewDeriver(mt.db, mt.desc) }

// Derive materializes the occurrence mv = m_dom(md) at the latest
// commit; a root deleted by a commit while it runs fails it.
func (mt *MoleculeType) Derive() (MoleculeSet, error) {
	dv, err := mt.Deriver()
	if err != nil {
		return nil, err
	}
	return dv.DeriveRoots(dv.RootIDs())
}

// Cardinality returns |mv| without materializing molecules: one molecule
// is derived per root atom.
func (mt *MoleculeType) Cardinality() (int, error) {
	return mt.db.CountAtoms(mt.desc.Root())
}

// String renders the type in the paper's notation.
func (mt *MoleculeType) String() string {
	return fmt.Sprintf("<%s, %s, m_dom>", mt.name, mt.desc)
}

// Binding adapts a molecule to the expression engine: a qualified
// reference t.a yields the a-values of all component atoms of type t, so
// comparisons follow the existential semantics described in package expr;
// the molecule-type restriction predicate qual(m, restr(md)) of
// Definition 10 evaluates expressions under this binding.
type Binding struct {
	DB *storage.Database
	M  *Molecule

	// View is the database attribute fetches look at; the zero View reads
	// the latest published commit. Streamed executions set it to the view
	// their molecules were derived through — the cursor's snapshot, or the
	// transaction's effective view — so a molecule is *evaluated* against
	// the same state as its structure: a concurrent UPDATE can never make
	// a residual predicate judge it against values from another commit.
	View storage.View
}

// ResolveUnqualified finds the unique component type of the structure
// declaring the attribute — THE rule for unqualified references, shared
// by molecule bindings, static scopes and the query planner so their
// resolutions can never diverge. It errs when no type or several types
// declare the attribute.
func ResolveUnqualified(db *storage.Database, d *Desc, attr string) (string, error) {
	var found string
	for _, t := range d.Types() {
		c, ok := db.Container(t)
		if !ok {
			continue
		}
		if _, has := c.Desc().Lookup(attr); has {
			if found != "" {
				return "", fmt.Errorf("expr: attribute %q is ambiguous (in %q and %q); qualify it", attr, found, t)
			}
			found = t
		}
	}
	if found == "" {
		return "", fmt.Errorf("expr: no component type declares attribute %q", attr)
	}
	return found, nil
}

// Resolve returns the referenced values across the molecule's component
// atoms. Unqualified names resolve when exactly one component type
// declares the attribute.
func (b Binding) Resolve(typeName, attr string) ([]model.Value, error) {
	d := b.M.Desc()
	if typeName == "" {
		found, err := ResolveUnqualified(b.DB, d, attr)
		if err != nil {
			return nil, err
		}
		typeName = found
	}
	pos, ok := d.Pos(typeName)
	if !ok {
		return nil, fmt.Errorf("expr: atom type %q is not part of the molecule structure", typeName)
	}
	c, ok := b.DB.Container(typeName)
	if !ok {
		return nil, fmt.Errorf("expr: atom type %q has no container", typeName)
	}
	i, ok := c.Desc().Lookup(attr)
	if !ok {
		return nil, fmt.Errorf("expr: atom type %q has no attribute %q", typeName, attr)
	}
	ids := b.M.AtomsAt(pos)
	out, ok := b.View.Attr(c, ids, i)
	if !ok {
		return nil, fmt.Errorf("expr: component atom %v missing from %q", ids[len(out)], typeName)
	}
	b.DB.Stats().AtomsFetched.Add(int64(len(ids)))
	return out, nil
}

// Count returns the number of component atoms of the named type.
func (b Binding) Count(typeName string) (int, error) {
	pos, ok := b.M.Desc().Pos(typeName)
	if !ok {
		return 0, fmt.Errorf("expr: atom type %q is not part of the molecule structure", typeName)
	}
	return len(b.M.AtomsAt(pos)), nil
}

// Scope statically validates qualification formulas against a
// molecule-type description (used by the MQL semantic analyzer).
type Scope struct {
	DB   *storage.Database
	Desc *Desc
}

// ResolveAttr resolves a (possibly unqualified) reference to its kind.
func (s Scope) ResolveAttr(typeName, attr string) (model.Kind, error) {
	if typeName == "" {
		found, err := ResolveUnqualified(s.DB, s.Desc, attr)
		if err != nil {
			return model.KNull, err
		}
		typeName = found
	}
	if !s.Desc.HasType(typeName) {
		return model.KNull, fmt.Errorf("expr: atom type %q is not part of the molecule structure", typeName)
	}
	c, ok := s.DB.Container(typeName)
	if !ok {
		return model.KNull, fmt.Errorf("expr: atom type %q has no container", typeName)
	}
	i, ok := c.Desc().Lookup(attr)
	if !ok {
		return model.KNull, fmt.Errorf("expr: atom type %q has no attribute %q", typeName, attr)
	}
	return c.Desc().Attr(i).Kind, nil
}

// HasType reports whether the type participates in the structure.
func (s Scope) HasType(typeName string) bool { return s.Desc.HasType(typeName) }

// compile-time interface checks
var (
	_ expr.Binding = Binding{}
	_ expr.Scope   = Scope{}
)
