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
	pos, col, err := Scope{DB: b.DB, Desc: b.M.Desc()}.Column(typeName, attr)
	if err != nil {
		return nil, err
	}
	c, _ := b.DB.Container(b.M.Desc().types[pos])
	ids := b.M.AtomsAt(pos)
	var buf [16]model.Atom // a usual component set stays off the heap
	atoms, ok := b.View.Atoms(c, ids, buf[:0])
	if !ok {
		return nil, missing(ids[len(atoms)], c)
	}
	b.DB.Stats().AtomsFetched.Add(int64(len(ids)))
	out := make([]model.Value, len(atoms))
	for k, a := range atoms {
		out[k] = a.Get(col)
	}
	return out, nil
}

// missing is the error of a component atom the view no longer holds.
func missing(id model.AtomID, c *storage.Container) error {
	return fmt.Errorf("expr: component atom %v missing from %q", id, c.TypeName())
}

// Count returns the number of component atoms of the named type.
func (b Binding) Count(typeName string) (int, error) {
	pos, err := Scope{Desc: b.M.Desc()}.Slot(typeName)
	if err != nil {
		return 0, err
	}
	return len(b.M.AtomsAt(pos)), nil
}

// Scope statically validates qualification formulas against a
// molecule-type description (used by the MQL semantic analyzer), and is
// the expr.Layout molecule predicates compile against: a slot is a
// type's position in the structure.
type Scope struct {
	DB   *storage.Database
	Desc *Desc
}

// Column resolves a (possibly unqualified) reference to its type's
// position in the structure and the attribute's column.
func (s Scope) Column(typeName, attr string) (slot, col int, err error) {
	if typeName == "" {
		if typeName, err = ResolveUnqualified(s.DB, s.Desc, attr); err != nil {
			return 0, 0, err
		}
	}
	if slot, err = s.Slot(typeName); err != nil {
		return 0, 0, err
	}
	c, ok := s.DB.Container(typeName)
	if !ok {
		return 0, 0, fmt.Errorf("expr: atom type %q has no container", typeName)
	}
	if col, ok = c.Desc().Lookup(attr); !ok {
		return 0, 0, fmt.Errorf("expr: atom type %q has no attribute %q", typeName, attr)
	}
	return slot, col, nil
}

// ResolveAttr resolves a (possibly unqualified) reference to its kind.
func (s Scope) ResolveAttr(typeName, attr string) (model.Kind, error) {
	pos, col, err := s.Column(typeName, attr)
	if err != nil {
		return model.KNull, err
	}
	c, _ := s.DB.Container(s.Desc.types[pos])
	return c.Desc().Attr(col).Kind, nil
}

// Slot resolves a type to its position in the structure.
func (s Scope) Slot(typeName string) (int, error) {
	pos, ok := s.Desc.Pos(typeName)
	if !ok {
		return 0, fmt.Errorf("expr: atom type %q is not part of the molecule structure", typeName)
	}
	return pos, nil
}

// HasType reports whether the type participates in the structure.
func (s Scope) HasType(typeName string) bool { return s.Desc.HasType(typeName) }

// Reader is the expr.Reader of a structure's molecules, compiled against
// its Scope: it reads each component type's atoms at most once per
// molecule, under one latch, into scratch it reuses from molecule to
// molecule, and books each atom it reads once. It is not safe for
// concurrent use; a parallel run gives every worker its own.
type Reader struct {
	db    *storage.Database
	view  storage.View
	conts []*storage.Container // per position, resolved once
	m     *Molecule
	gen   uint64
	read  []uint64 // read[pos] == gen: atoms[pos] holds m's atoms
	atoms [][]model.Atom
}

// NewReader returns a reader of d's molecules through view.
func NewReader(db *storage.Database, d *Desc, view storage.View) *Reader {
	r := &Reader{db: db, view: view, conts: make([]*storage.Container, len(d.types)),
		read: make([]uint64, len(d.types)), atoms: make([][]model.Atom, len(d.types))}
	for pos, t := range d.types {
		r.conts[pos], _ = db.Container(t)
	}
	return r
}

// Bind makes m the molecule the reader reads.
func (r *Reader) Bind(m *Molecule) { r.m, r.gen = m, r.gen+1 }

// Atoms returns the bound molecule's atoms at position pos.
func (r *Reader) Atoms(pos int) ([]model.Atom, error) {
	if r.read[pos] == r.gen {
		return r.atoms[pos], nil
	}
	ids := r.m.AtomsAt(pos)
	atoms, ok := r.view.Atoms(r.conts[pos], ids, r.atoms[pos])
	r.atoms[pos] = atoms
	if !ok {
		return nil, missing(ids[len(atoms)], r.conts[pos])
	}
	r.db.Stats().AtomsFetched.Add(int64(len(ids)))
	r.read[pos] = r.gen
	return atoms, nil
}

// Count returns the number of the bound molecule's atoms at position pos.
func (r *Reader) Count(pos int) int { return len(r.m.AtomsAt(pos)) }

// compile-time interface checks
var (
	_ expr.Binding = Binding{}
	_ expr.Scope   = Scope{}
	_ expr.Layout  = Scope{}
	_ expr.Reader  = (*Reader)(nil)
)
