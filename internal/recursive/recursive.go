// Package recursive implements recursive molecule types, the Chapter 5
// extension of the molecule algebra ([Schö89]): molecule structures over
// *reflexive* link types, which md_graph excludes from plain descriptions
// because a self-loop is a cycle. The canonical example is the
// bill-of-material application — one atom type "parts" with one reflexive
// link type "composition", queried either for the parts explosion
// (sub-component view, traversing the link type forward) or for the
// where-used view (super-component view, traversing it backward).
//
// Derivation is the natural least fixpoint: the molecule rooted at r
// contains every atom reachable from r through the chosen direction of the
// reflexive link type. Atom networks may be cyclic, so derivation keeps a
// visited set; an optional depth bound truncates the closure to the first
// n levels.
//
// The eager, latest-state derivation here is the Chapter 5 definition and
// the oracle: queries plan and stream a closure through the one pipeline
// (core.NewClosureDesc compiled by internal/plan), and that path is tested
// element-wise against Type.DeriveFor. NaiveClosure is the relational
// baseline of experiment P4.
package recursive

import (
	"fmt"

	"mad/internal/model"
	"mad/internal/storage"
)

// Type is a recursive molecule type: the recursive analogue of
// <mname, md, mv> where the description is a single atom type closed over
// one reflexive link type in one direction.
type Type struct {
	// Name is the molecule-type name.
	Name string
	// AtomType is the single component atom type.
	AtomType string
	// Link is the reflexive link type closed over.
	Link string
	// Up selects the super-component view (backward traversal); the
	// default is the sub-component view.
	Up bool
	// Depth bounds the closure depth; 0 means unbounded (full transitive
	// closure).
	Depth int

	db *storage.Database
}

// Define validates and creates a recursive molecule type.
func Define(db *storage.Database, name, atomType, link string, up bool, depth int) (*Type, error) {
	if _, ok := db.Schema().AtomType(atomType); !ok {
		return nil, fmt.Errorf("recursive: unknown atom type %q", atomType)
	}
	lt, ok := db.Schema().LinkType(link)
	if !ok {
		return nil, fmt.Errorf("recursive: unknown link type %q", link)
	}
	if !lt.Desc.Reflexive() || lt.Desc.SideA != atomType {
		return nil, fmt.Errorf("recursive: link type %q is not reflexive on %q", link, atomType)
	}
	if depth < 0 {
		return nil, fmt.Errorf("recursive: negative depth")
	}
	if name == "" {
		name = db.Schema().FreshAtomName("rec_" + atomType)
	}
	return &Type{Name: name, AtomType: atomType, Link: link, Up: up, Depth: depth, db: db}, nil
}

// Molecule is one recursive molecule: the root, the atoms grouped by the
// level at which the closure first reached them, and the component links.
type Molecule struct {
	Root   model.AtomID
	Levels [][]model.AtomID // Levels[0] == {Root}
	Links  []model.Link     // A = parent, B = child in traversal direction
}

// Size returns the number of component atoms.
func (m *Molecule) Size() int {
	n := 0
	for _, l := range m.Levels {
		n += len(l)
	}
	return n
}

// Depth returns the deepest populated level (0 for a leaf root).
func (m *Molecule) Depth() int { return len(m.Levels) - 1 }

// Atoms returns all component atoms in level order.
func (m *Molecule) Atoms() []model.AtomID {
	var out []model.AtomID
	for _, l := range m.Levels {
		out = append(out, l...)
	}
	return out
}

// Contains reports component membership.
func (m *Molecule) Contains(id model.AtomID) bool {
	for _, l := range m.Levels {
		for _, x := range l {
			if x == id {
				return true
			}
		}
	}
	return false
}

// DeriveFor computes the recursive molecule rooted at the given atom.
func (t *Type) DeriveFor(root model.AtomID) (*Molecule, error) {
	if !t.db.HasAtom(t.AtomType, root) {
		return nil, fmt.Errorf("recursive: atom %v not in %q", root, t.AtomType)
	}
	ls, ok := t.db.LinkStore(t.Link)
	if !ok {
		return nil, fmt.Errorf("recursive: link type %q has no store", t.Link)
	}
	m := &Molecule{Root: root, Levels: [][]model.AtomID{{root}}}
	visited := map[model.AtomID]bool{root: true}
	frontier := []model.AtomID{root}
	for depth := 1; len(frontier) > 0 && (t.Depth == 0 || depth <= t.Depth); depth++ {
		var next []model.AtomID
		for _, a := range frontier {
			var partners []model.AtomID
			if t.Up {
				partners = ls.Partners(a, false)
			} else {
				partners = ls.Partners(a, true)
			}
			t.db.Stats().LinksTraversed.Add(int64(len(partners)) + 1)
			for _, p := range partners {
				m.Links = append(m.Links, model.Link{A: a, B: p})
				if visited[p] {
					continue // cycle or reconvergence: include once
				}
				visited[p] = true
				next = append(next, p)
			}
		}
		if len(next) > 0 {
			m.Levels = append(m.Levels, next)
		}
		frontier = next
	}
	t.db.Stats().AtomsFetched.Add(int64(m.Size()))
	return m, nil
}

// Derive materializes one recursive molecule per atom of the component
// type, in container order.
func (t *Type) Derive() ([]*Molecule, error) {
	var out []*Molecule
	var derr error
	err := t.db.ScanAtoms(t.AtomType, func(a model.Atom) bool {
		m, err := t.DeriveFor(a.ID)
		if err != nil {
			derr = err
			return false
		}
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, derr
}

// Closure returns the set of atoms reachable from root (excluding the
// root itself unless it lies on a cycle back to itself) — the transitive
// closure the recursive molecule materializes.
func (t *Type) Closure(root model.AtomID) (map[model.AtomID]bool, error) {
	m, err := t.DeriveFor(root)
	if err != nil {
		return nil, err
	}
	out := make(map[model.AtomID]bool)
	for i, level := range m.Levels {
		if i == 0 {
			continue
		}
		for _, id := range level {
			out[id] = true
		}
	}
	return out, nil
}

// NaiveClosure computes the same closure by repeated relational-style
// self-joins over the full link occurrence (semi-naive iteration without
// per-atom adjacency) — the baseline a relational system without link
// structures would execute. It exists for the P4 experiment.
func NaiveClosure(db *storage.Database, link string, root model.AtomID, up bool) (map[model.AtomID]bool, error) {
	ls, ok := db.LinkStore(link)
	if !ok {
		return nil, fmt.Errorf("recursive: link type %q has no store", link)
	}
	all := ls.Links()
	closure := map[model.AtomID]bool{}
	delta := map[model.AtomID]bool{root: true}
	for len(delta) > 0 {
		next := map[model.AtomID]bool{}
		// One pass over the whole link occurrence per iteration: the
		// relational self-join shape.
		for _, l := range all {
			parent, child := l.A, l.B
			if up {
				parent, child = l.B, l.A
			}
			if delta[parent] && !closure[child] && child != root {
				next[child] = true
			}
		}
		for id := range next {
			closure[id] = true
		}
		delta = next
	}
	return closure, nil
}
