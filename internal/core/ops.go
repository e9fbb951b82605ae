package core

import (
	"fmt"
	"slices"

	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// The operators below are the paper's reference algebra, kept for the
// frozen F/Q experiments and as oracles: each derives its result set
// through one transaction's view, materializes it (the op-specific phase
// of Fig. 5), feeds it to the one sink, Prop, and commits — one
// transaction, one commit. MQL's DEFINE feeds the same sink from the
// planner's stream instead.

// Restrict is the molecule-type restriction Σ[restr(md)](mt)
// (Definition 10): it derives mv, keeps the molecules fulfilling the
// qualification formula, and propagates the result set into the enlarged
// database, closing with α. A nil predicate keeps every molecule.
func Restrict(mt *MoleculeType, pred expr.Expr, resultName string, tr *OpTrace) (*MoleculeType, error) {
	tr.setOp(fmt.Sprintf("Σ[%s](%s)", exprString(pred), mt.Name()))
	if err := expr.Check(pred, Scope{DB: mt.db, Desc: mt.desc}); err != nil {
		return nil, err
	}
	done := tr.begin("restriction (op-specific)")
	dv, err := mt.Deriver()
	if err != nil {
		return nil, err
	}
	txn := mt.db.Begin()
	defer txn.Rollback()
	view := txn.View()
	var rsv MoleculeSet
	var evalErr error
	total := 0
	dv.At(view).Walk(func(m *Molecule) bool {
		total++
		ok, err := expr.EvalPredicate(pred, Binding{DB: mt.db, M: m, View: view})
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
	return propagate(txn, resultName, mt.desc, rsv, nil, tr)
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
	tr.setOp(fmt.Sprintf("Π[%v](%s)", p.Keep, mt.Name()))
	done := tr.begin("projection (op-specific)")
	rsd, err := mt.desc.Sub(mt.db, p.Keep)
	if err != nil {
		return nil, err
	}
	// Re-derive over the pruned structure so component sets follow the
	// pruned containment semantics exactly.
	txn := mt.db.Begin()
	defer txn.Rollback()
	rsv, err := deriveIn(txn, rsd)
	if err != nil {
		return nil, err
	}
	done(fmt.Sprintf("kept %d/%d types, %d/%d edges", rsd.NumTypes(), mt.desc.NumTypes(), rsd.NumEdges(), mt.desc.NumEdges()))
	return propagate(txn, resultName, rsd, rsv, p.Attrs, tr)
}

// Product is the molecule-type cartesian product X(mt1, mt2). The paper
// defers its definition to [Mi88a]; the concretization here follows the
// prop-then-α pattern: both operand occurrences are propagated, a fresh
// pair root type (carrying the two root identifiers as attributes) is
// created, and each pair molecule connects one molecule of mv1 with one of
// mv2 — |mv1| × |mv2| result molecules.
func Product(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	tr.setOp(fmt.Sprintf("X(%s, %s)", mt1.Name(), mt2.Name()))
	if mt1.db != mt2.db {
		return nil, fmt.Errorf("core: X: operands live in different databases")
	}
	db := mt1.db
	txn := db.Begin()
	defer txn.Rollback()
	done := tr.begin("product (op-specific)")
	mv1, err := deriveIn(txn, mt1.desc)
	if err != nil {
		return nil, err
	}
	mv2, err := deriveIn(txn, mt2.desc)
	if err != nil {
		return nil, err
	}
	done(fmt.Sprintf("|mv1|=%d × |mv2|=%d", len(mv1), len(mv2)))

	// The pair-root atom type is defined before the propagations, so it
	// comes first in declaration order.
	pairName := db.Schema().FreshAtomName("pair")
	pairDesc := model.MustDesc(
		model.AttrDesc{Name: "left", Kind: model.KID, NotNull: true},
		model.AttrDesc{Name: "right", Kind: model.KID, NotNull: true},
	)
	if err := txn.DefineAtomType(pairName, pairDesc); err != nil {
		return nil, err
	}
	p1, err := Prop(txn, "", mt1.desc, each(mv1), nil, tr)
	if err != nil {
		return nil, err
	}
	p2, err := Prop(txn, "", mt2.desc, each(mv2), nil, tr)
	if err != nil {
		return nil, err
	}

	doneRoot := tr.begin("product (pair root)")
	d1, d2 := p1.Desc(), p2.Desc()
	leftRoot, rightRoot := d1.Root(), d2.Root()
	leftLink := db.Schema().FreshLinkName("pair_left")
	if err := txn.DefineLinkType(leftLink, model.LinkDesc{SideA: pairName, SideB: leftRoot}); err != nil {
		return nil, err
	}
	rightLink := db.Schema().FreshLinkName("pair_right")
	if err := txn.DefineLinkType(rightLink, model.LinkDesc{SideA: pairName, SideB: rightRoot}); err != nil {
		return nil, err
	}
	for _, m1 := range mv1 {
		for _, m2 := range mv2 {
			pid, err := txn.InsertAtom(pairName, model.ID(m1.Root()), model.ID(m2.Root()))
			if err != nil {
				return nil, err
			}
			if err := txn.Connect(leftLink, pid, m1.Root()); err != nil {
				return nil, err
			}
			if err := txn.Connect(rightLink, pid, m2.Root()); err != nil {
				return nil, err
			}
		}
	}
	types := slices.Concat([]string{pairName}, d1.Types(), d2.Types())
	edges := slices.Concat([]DirectedLink{
		{Link: leftLink, From: pairName, To: leftRoot},
		{Link: rightLink, From: pairName, To: rightRoot},
	}, d1.Edges(), d2.Edges())
	doneRoot(fmt.Sprintf("%d pair atoms", len(mv1)*len(mv2)))

	doneAlpha := tr.begin("definition (α)")
	mtx, err := Define(db, resultName, types, edges)
	if err != nil {
		return nil, err
	}
	if err := txn.Commit(); err != nil {
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

// Combine is the one combinator of the set operations, over molecule
// identity (Molecule.Key), for molecule sources of two compatible types:
// Ω ('Ω') streams left then right, skipping molecules already seen; Δ
// ('Δ') drains right into an identity set, then streams the molecules of
// left outside it; Ψ ('Ψ') streams those inside it — the intersection
// Ψ(a, b) = Δ(a, Δ(a, b)) as one membership pass, so one propagation.
// Both sources must read a view no write of the consumer can change.
func Combine(op rune, mt1, mt2 *MoleculeType, left, right func() (*Molecule, error)) (func() (*Molecule, error), error) {
	if op != 'Ω' && op != 'Δ' && op != 'Ψ' {
		return nil, fmt.Errorf("core: unknown set operation %q", op)
	}
	if err := compatible(mt1, mt2); err != nil {
		return nil, err
	}
	keys := make(map[string]bool) // Ω: seen so far; Δ, Ψ: right's identities
	var key []byte
	for op != 'Ω' {
		m, err := right()
		if err != nil {
			return nil, err
		}
		if m == nil {
			right = nil
			break
		}
		key = m.AppendKey(key[:0])
		keys[string(key)] = true
	}
	return func() (*Molecule, error) {
		for {
			m, err := left()
			if err != nil || m == nil && right == nil {
				return nil, err
			}
			if m == nil { // Ω: the right source continues the concatenation
				left, right = right, nil
				continue
			}
			if key = m.AppendKey(key[:0]); keys[string(key)] == (op == 'Ψ') {
				if op == 'Ω' {
					keys[string(key)] = true
				}
				return m, nil
			}
		}
	}, nil
}

// Union is the molecule-type union Ω(mt1, mt2): the set union of the two
// occurrences over compatible descriptions, molecules compared by
// component identity, propagated and closed with α.
func Union(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	return setOperation('Ω', "union", mt1, mt2, resultName, tr)
}

// Difference is the molecule-type difference Δ(mt1, mt2): the molecules of
// mv1 with no equal molecule in mv2, compared by component identity.
func Difference(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	return setOperation('Δ', "difference", mt1, mt2, resultName, tr)
}

// Intersect is the derived molecule-type intersection
// Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2)) (Theorem 3 commentary): the molecules
// of mv1 with an equal molecule in mv2 — one membership pass, one
// propagation.
func Intersect(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	return setOperation('Ψ', "intersection", mt1, mt2, resultName, tr)
}

// setOperation derives both operands through one transaction's view,
// combines them and propagates the result over mt1's description.
func setOperation(op rune, phase string, mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	tr.setOp(fmt.Sprintf("%c(%s, %s)", op, mt1.Name(), mt2.Name()))
	done := tr.begin(phase + " (op-specific)")
	txn := mt1.db.Begin()
	defer txn.Rollback()
	mv1, err := deriveIn(txn, mt1.desc)
	if err != nil {
		return nil, err
	}
	mv2, err := deriveIn(txn, mt2.desc)
	if err != nil {
		return nil, err
	}
	next, err := Combine(op, mt1, mt2, each(mv1), each(mv2))
	if err != nil {
		return nil, err
	}
	var rsv MoleculeSet
	for m, _ := next(); m != nil; m, _ = next() { // sets never fail to yield
		rsv = append(rsv, m)
	}
	done(fmt.Sprintf("|mv1|=%d %c |mv2|=%d → %d", len(mv1), op, len(mv2), len(rsv)))
	return propagate(txn, resultName, mt1.desc, rsv, nil, tr)
}

// deriveIn materializes the occurrence of d through txn's view.
func deriveIn(txn *storage.Txn, d *Desc) (MoleculeSet, error) {
	dv, err := NewDeriver(txn.DB(), d)
	if err != nil {
		return nil, err
	}
	return dv.At(txn.View()).Derive(), nil
}

// each adapts a materialized set to a molecule source.
func each(set MoleculeSet) func() (*Molecule, error) {
	return func() (*Molecule, error) {
		if len(set) == 0 {
			return nil, nil
		}
		m := set[0]
		set = set[1:]
		return m, nil
	}
}

// propagate feeds rsv to the sink inside txn and commits it.
func propagate(txn *storage.Txn, resultName string, rsd *Desc, rsv MoleculeSet, projections map[string][]string, tr *OpTrace) (*MoleculeType, error) {
	mt, err := Prop(txn, resultName, rsd, each(rsv), projections, tr)
	if err != nil {
		return nil, err
	}
	if err := txn.Commit(); err != nil {
		return nil, err
	}
	return mt, nil
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
		if !g.Equal(w) { // positional: propagation keeps the shape
			return false, nil
		}
	}
	return true, nil
}
