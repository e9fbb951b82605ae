package core

import (
	"fmt"

	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// Restrict is the molecule-type restriction Σ[restr(md)](mt)
// (Definition 10): it derives mv, keeps the molecules fulfilling the
// qualification formula, and propagates the result set into the enlarged
// database, closing with α. A nil predicate keeps every molecule.
func Restrict(mt *MoleculeType, pred expr.Expr, resultName string, tr *OpTrace) (*MoleculeType, error) {
	tr.SetOp(fmt.Sprintf("Σ[%s](%s)", exprString(pred), mt.Name()))
	if err := expr.Check(pred, Scope{DB: mt.db, Desc: mt.desc}); err != nil {
		return nil, err
	}
	done := tr.Begin("restriction (op-specific)")
	dv, err := mt.Deriver()
	if err != nil {
		return nil, err
	}
	var rsv MoleculeSet
	var evalErr error
	total := 0
	dv.Walk(func(m *Molecule) bool {
		total++
		ok, err := expr.EvalPredicate(pred, Binding{DB: mt.db, M: m})
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			rsv = append(rsv, m)
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	done(fmt.Sprintf("qualified %d of %d molecules", len(rsv), total))
	res, err := Prop(mt.db, resultName, mt.desc, rsv, nil, tr)
	if err != nil {
		return nil, err
	}
	return res.Type, nil
}

func exprString(e expr.Expr) string {
	if e == nil {
		return "true"
	}
	return e.String()
}

// Projection describes a molecule-type projection Π: Keep lists the atom
// types to retain (they must include the root and induce a coherent
// sub-description); Attrs optionally narrows each kept type to the named
// attributes (nil entry or missing key = all attributes).
type Projection struct {
	Keep  []string
	Attrs map[string][]string
}

// Project is the molecule-type projection Π (Definition 10's list; the
// paper defers the definition to [Mi88a] and notes the operations "are
// mostly defined using the molecule-type propagation and the atom-type
// operations"). Π prunes the molecule structure to the kept subgraph and
// narrows component descriptions, preserving atom identity — duplicate
// elimination is an atom-type-level (π) concern, not a molecule-level one.
func Project(mt *MoleculeType, p Projection, resultName string, tr *OpTrace) (*MoleculeType, error) {
	tr.SetOp(fmt.Sprintf("Π[%v](%s)", p.Keep, mt.Name()))
	done := tr.Begin("projection (op-specific)")
	keep := make(map[string]bool, len(p.Keep))
	for _, t := range p.Keep {
		if !mt.desc.HasType(t) {
			return nil, fmt.Errorf("core: Π: type %q is not part of %s", t, mt.desc)
		}
		keep[t] = true
	}
	if !keep[mt.desc.Root()] {
		return nil, fmt.Errorf("core: Π: projection must keep the root type %q", mt.desc.Root())
	}
	// Induced sub-description, preserving declaration order.
	var subTypes []string
	for _, t := range mt.desc.Types() {
		if keep[t] {
			subTypes = append(subTypes, t)
		}
	}
	var subEdges []DirectedLink
	keptEdge := make([]int, 0) // original edge index per kept edge
	for ei, e := range mt.desc.Edges() {
		if keep[e.From] && keep[e.To] {
			subEdges = append(subEdges, e)
			keptEdge = append(keptEdge, ei)
		}
	}
	rsd, err := NewDesc(mt.db, subTypes, subEdges)
	if err != nil {
		return nil, fmt.Errorf("core: Π: induced structure invalid: %w", err)
	}
	// Re-derive over the pruned structure so component sets follow the
	// pruned containment semantics exactly.
	dv, err := NewDeriver(mt.db, rsd)
	if err != nil {
		return nil, err
	}
	rsv := dv.Derive()
	done(fmt.Sprintf("kept %d/%d types, %d/%d edges", len(subTypes), mt.desc.NumTypes(), len(subEdges), mt.desc.NumEdges()))
	_ = keptEdge
	res, err := Prop(mt.db, resultName, rsd, rsv, p.Attrs, tr)
	if err != nil {
		return nil, err
	}
	return res.Type, nil
}

// Product is the molecule-type cartesian product X(mt1, mt2). The paper
// defers its definition to [Mi88a]; the concretization here follows the
// prop-then-α pattern: both operand occurrences are propagated, a fresh
// pair root type (carrying the two root identifiers as attributes) is
// created, and each pair molecule connects one molecule of mv1 with one of
// mv2 — |mv1| × |mv2| result molecules.
func Product(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	tr.SetOp(fmt.Sprintf("X(%s, %s)", mt1.Name(), mt2.Name()))
	if mt1.db != mt2.db {
		return nil, fmt.Errorf("core: X: operands live in different databases")
	}
	db := mt1.db
	done := tr.Begin("product (op-specific)")
	mv1, err := mt1.Derive()
	if err != nil {
		return nil, err
	}
	mv2, err := mt2.Derive()
	if err != nil {
		return nil, err
	}
	done(fmt.Sprintf("|mv1|=%d × |mv2|=%d", len(mv1), len(mv2)))

	p1, err := Prop(db, "", mt1.desc, mv1, nil, tr)
	if err != nil {
		return nil, err
	}
	p2, err := Prop(db, "", mt2.desc, mv2, nil, tr)
	if err != nil {
		return nil, err
	}

	doneRoot := tr.Begin("product (pair root)")
	pairDesc := model.MustDesc(
		model.AttrDesc{Name: "left", Kind: model.KID, NotNull: true},
		model.AttrDesc{Name: "right", Kind: model.KID, NotNull: true},
	)
	pairName := db.Schema().FreshAtomName("pair")
	if _, err := db.DefineAtomType(pairName, pairDesc); err != nil {
		return nil, err
	}
	d1, d2 := p1.Type.Desc(), p2.Type.Desc()
	leftRoot, rightRoot := d1.Root(), d2.Root()
	leftLink := db.Schema().FreshLinkName("pair_left")
	if _, err := db.DefineLinkType(leftLink, model.LinkDesc{SideA: pairName, SideB: leftRoot}); err != nil {
		return nil, err
	}
	rightLink := db.Schema().FreshLinkName("pair_right")
	if _, err := db.DefineLinkType(rightLink, model.LinkDesc{SideA: pairName, SideB: rightRoot}); err != nil {
		return nil, err
	}
	for _, m1 := range mv1 {
		for _, m2 := range mv2 {
			pid, err := db.InsertAtom(pairName, model.ID(m1.Root()), model.ID(m2.Root()))
			if err != nil {
				return nil, err
			}
			if err := db.Connect(leftLink, pid, m1.Root()); err != nil {
				return nil, err
			}
			if err := db.Connect(rightLink, pid, m2.Root()); err != nil {
				return nil, err
			}
		}
	}
	types := append([]string{pairName}, d1.Types()...)
	types = append(types, d2.Types()...)
	edges := []DirectedLink{
		{Link: leftLink, From: pairName, To: leftRoot},
		{Link: rightLink, From: pairName, To: rightRoot},
	}
	edges = append(edges, d1.Edges()...)
	edges = append(edges, d2.Edges()...)
	doneRoot(fmt.Sprintf("%d pair atoms", len(mv1)*len(mv2)))

	doneAlpha := tr.Begin("definition (α)")
	mtx, err := Define(db, resultName, types, edges)
	if err != nil {
		return nil, err
	}
	doneAlpha("pair-rooted structure")
	return mtx, nil
}

// compatible checks the operand compatibility Ω and Δ require: positionally
// isomorphic descriptions whose corresponding atom types carry equal
// attribute descriptions (the molecule analogue of ad1 = ad2 in
// Definition 4).
func compatible(mt1, mt2 *MoleculeType) error {
	if mt1.db != mt2.db {
		return fmt.Errorf("core: operands live in different databases")
	}
	if !mt1.desc.SameShape(mt2.desc) {
		return fmt.Errorf("core: molecule structures differ: %s vs %s", mt1.desc, mt2.desc)
	}
	t1, t2 := mt1.desc.Types(), mt2.desc.Types()
	for i := range t1 {
		c1, ok1 := mt1.db.Container(t1[i])
		c2, ok2 := mt2.db.Container(t2[i])
		if !ok1 || !ok2 {
			return fmt.Errorf("core: missing container for %q or %q", t1[i], t2[i])
		}
		if !c1.Desc().Equal(c2.Desc()) {
			return fmt.Errorf("core: component types %q and %q have different descriptions", t1[i], t2[i])
		}
	}
	return nil
}

// Union is the molecule-type union Ω(mt1, mt2): the set union of the two
// occurrences over compatible descriptions, molecules compared by
// component identity, propagated and closed with α.
func Union(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	tr.SetOp(fmt.Sprintf("Ω(%s, %s)", mt1.Name(), mt2.Name()))
	if err := compatible(mt1, mt2); err != nil {
		return nil, err
	}
	done := tr.Begin("union (op-specific)")
	mv1, err := mt1.Derive()
	if err != nil {
		return nil, err
	}
	mv2, err := mt2.Derive()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(mv1))
	rsv := make(MoleculeSet, 0, len(mv1)+len(mv2))
	for _, m := range mv1 {
		seen[m.Key()] = true
		rsv = append(rsv, m)
	}
	dups := 0
	for _, m := range mv2 {
		if seen[m.Key()] {
			dups++
			continue
		}
		// mv2's molecules keep their own (same-shaped) description; Prop
		// resolves their atoms positionally.
		rsv = append(rsv, m)
	}
	done(fmt.Sprintf("|mv1|=%d ∪ |mv2|=%d (%d duplicates)", len(mv1), len(mv2), dups))
	res, err := Prop(mt1.db, resultName, mt1.desc, rsv, nil, tr)
	if err != nil {
		return nil, err
	}
	return res.Type, nil
}

// Difference is the molecule-type difference Δ(mt1, mt2): the molecules of
// mv1 with no equal molecule in mv2, compared by component identity.
func Difference(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	tr.SetOp(fmt.Sprintf("Δ(%s, %s)", mt1.Name(), mt2.Name()))
	if err := compatible(mt1, mt2); err != nil {
		return nil, err
	}
	done := tr.Begin("difference (op-specific)")
	mv1, err := mt1.Derive()
	if err != nil {
		return nil, err
	}
	mv2, err := mt2.Derive()
	if err != nil {
		return nil, err
	}
	drop := make(map[string]bool, len(mv2))
	for _, m := range mv2 {
		drop[m.Key()] = true
	}
	var rsv MoleculeSet
	for _, m := range mv1 {
		if !drop[m.Key()] {
			rsv = append(rsv, m)
		}
	}
	done(fmt.Sprintf("|mv1|=%d − |mv2|=%d → %d", len(mv1), len(mv2), len(rsv)))
	res, err := Prop(mt1.db, resultName, mt1.desc, rsv, nil, tr)
	if err != nil {
		return nil, err
	}
	return res.Type, nil
}

// Intersect is the derived molecule-type intersection
// Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2)) — built, exactly as the paper builds
// it, from two applications of the difference (Theorem 3 commentary).
func Intersect(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	inner, err := Difference(mt1, mt2, "", tr)
	if err != nil {
		return nil, err
	}
	out, err := Difference(mt1, inner, resultName, tr)
	if err != nil {
		return nil, err
	}
	tr.SetOp(fmt.Sprintf("Ψ(%s, %s) = Δ(%s, Δ(%s, %s))",
		mt1.Name(), mt2.Name(), mt1.Name(), mt1.Name(), mt2.Name()))
	return out, nil
}

// rebind reinterprets a molecule positionally under another same-shaped
// description (no copying of atoms or links).
func rebind(m *Molecule, d *Desc) *Molecule {
	out := &Molecule{
		desc:   d,
		root:   m.root,
		atoms:  m.atoms,
		links:  m.links,
		member: m.member,
	}
	return out
}

// Derived helper: EquivalentOccurrence reports whether re-deriving mt's
// occurrence yields exactly the given molecule set — the equivalence
// Definition 9 promises ("for each element within rsv there is exactly one
// equivalent molecule within mv and vice versa"). Molecules are compared
// positionally. It backs the closure property tests of Theorems 2–3.
func EquivalentOccurrence(mt *MoleculeType, want MoleculeSet) (bool, error) {
	got, err := mt.Derive()
	if err != nil {
		return false, err
	}
	if len(got) != len(want) {
		return false, nil
	}
	index := make(map[string]*Molecule, len(want))
	for _, m := range want {
		index[m.Key()] = m
	}
	for _, g := range got {
		w, ok := index[g.Key()]
		if !ok {
			return false, nil
		}
		if !g.Equal(rebind(w, g.desc)) {
			return false, nil
		}
	}
	return true, nil
}

// Ensure storage import is used even if future refactors drop direct uses.
var _ = storage.StatsSnapshot{}
