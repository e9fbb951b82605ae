// Package atomalg implements the atom-type algebra of Definition 4:
// projection π, restriction σ, cartesian product ×, union ω and
// difference δ, each producing a *new atom type* installed in a
// correspondingly enlarged database — the closure property of Theorem 1.
// Each operator is one storage transaction: the enlarged database appears
// in one commit, or not at all when the operator fails.
//
// Every operation also performs the link-type inheritance the paper
// sketches ("the link types of the operand atom types are 'inherited' to
// the resulting atom type. Thus, the result atom type could be reused in
// subsequent operations. In particular this is necessary for the molecule
// operations, since the dynamic molecule derivation relies on the
// existence of link types"). The paper defers the formal rules to the
// author's thesis [Mi88a]; the concretization used here is:
//
//   - For every link type with the operand on one side, the result type
//     inherits a fresh link type connecting the result to the *other*
//     side's original atom type.
//   - A result atom is linked to exactly the partners of the operand
//     atom(s) it derives from (its provenance).
//   - Reflexive operand link types inherit as result↔operand link types,
//     one per declared side, so both traversal roles stay available.
//
// Restriction, union and difference preserve atom identity (their result
// occurrences are subsets of the operands', Definition 4), so subobject
// sharing survives. Projection and product mint new atoms and track
// provenance only for inheritance.
package atomalg

import (
	"fmt"

	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// InheritedLink records one link type created by inheritance.
type InheritedLink struct {
	// Name is the fresh link-type name in the enlarged database.
	Name string
	// From is the operand link type it derives from.
	From string
	// Partner is the atom type on the non-result side.
	Partner string
	// ResultOnSideA reports which side of the new link type the result
	// atom type occupies.
	ResultOnSideA bool
}

// Result describes the atom type an operation installed.
type Result struct {
	// TypeName is the result atom type's name in the enlarged database.
	TypeName string
	// Inherited lists the link types inherited onto the result.
	Inherited []InheritedLink
}

// provenance maps a result atom to the operand atoms it derives from.
type provenance map[model.AtomID][]model.AtomID

// identity builds the trivial provenance for identity-preserving ops.
func identity(ids []model.AtomID) provenance {
	p := make(provenance, len(ids))
	for _, id := range ids {
		p[id] = []model.AtomID{id}
	}
	return p
}

// op is one operator application, run as one transaction: it reads its
// operands through view, taken before its first write, and writes only
// through txn — the result type, its atoms and the link types it
// inherits — so the enlarged database appears in one commit or not at all.
type op struct {
	txn  *storage.Txn
	view storage.View
	res  Result
}

// begin opens an operator's transaction and defines its result atom type
// under want, or under a fresh name derived from base.
func begin(db *storage.Database, want, base string, desc *model.Desc) (*op, error) {
	name := want
	if name == "" {
		name = db.Schema().FreshAtomName(base)
	} else if db.Schema().HasName(want) {
		return nil, fmt.Errorf("atomalg: result name %q already in use", want)
	}
	txn := db.Begin()
	o := &op{txn: txn, view: txn.View(), res: Result{TypeName: name}}
	if err := txn.DefineAtomType(name, desc); err != nil {
		txn.Rollback()
		return nil, err
	}
	return o, nil
}

// end commits the operator's transaction, or rolls it back when the
// operator failed with err.
func (o *op) end(err error) (*Result, error) {
	if err == nil {
		err = o.txn.Commit()
	}
	if err != nil {
		o.txn.Rollback()
		return nil, err
	}
	return &o.res, nil
}

// inherit installs inherited link types for every committed link type
// mentioning operandType, wiring links according to provenance. prov maps
// result atoms to their side-relevant operand atoms. The catalog lists
// none of the link types the transaction defines until it commits, so a
// sibling inheritance pass never re-inherits them.
func (o *op) inherit(operandType string, prov provenance) error {
	db := o.txn.DB()
	for _, lt := range db.Schema().LinkTypesOf(operandType) {
		ls, ok := db.LinkStore(lt.Name)
		if !ok {
			return fmt.Errorf("atomalg: link type %q has no store", lt.Name)
		}
		sides := make([]bool, 0, 2) // operand-on-side-A values to process
		if lt.Desc.SideA == operandType {
			sides = append(sides, true)
		}
		if lt.Desc.SideB == operandType {
			sides = append(sides, false)
		}
		for _, operandOnA := range sides {
			partner, _ := lt.Desc.OtherSide(operandType)
			fresh := db.Schema().FreshLinkName(lt.Name)
			desc := model.LinkDesc{SideA: o.res.TypeName, SideB: partner}
			if !operandOnA {
				desc = model.LinkDesc{SideA: partner, SideB: o.res.TypeName}
			}
			if err := o.txn.DefineLinkType(fresh, desc); err != nil {
				return err
			}
			for rid, sources := range prov {
				for _, src := range sources {
					for _, p := range o.view.Partners(ls, src, operandOnA) {
						a, b := rid, p
						if !operandOnA {
							a, b = p, rid
						}
						if err := o.txn.Connect(fresh, a, b); err != nil {
							return err
						}
					}
				}
			}
			o.res.Inherited = append(o.res.Inherited, InheritedLink{
				Name: fresh, From: lt.Name, Partner: partner, ResultOnSideA: operandOnA,
			})
		}
	}
	return nil
}

// Project implements atom-type projection π[proj(ad)](at): the result
// description is the projected sub-description and the occurrence the set
// of projected atoms, duplicates removed (set semantics). resultName may
// be empty to auto-generate.
func Project(db *storage.Database, operand string, attrs []string, resultName string) (*Result, error) {
	c, ok := db.Container(operand)
	if !ok {
		return nil, fmt.Errorf("atomalg: unknown atom type %q", operand)
	}
	pdesc, err := c.Desc().Project(attrs)
	if err != nil {
		return nil, err
	}
	o, err := begin(db, resultName, operand+"_proj", pdesc)
	if err != nil {
		return nil, err
	}
	positions := make([]int, len(attrs))
	for i, a := range attrs {
		positions[i], _ = c.Desc().Lookup(a)
	}
	seen := make(map[string]model.AtomID)
	prov := make(provenance)
	o.view.Scan(c, func(a model.Atom) bool {
		vals := make([]model.Value, len(positions))
		for i, p := range positions {
			vals[i] = a.Get(p)
		}
		key := tupleKey(vals)
		rid, dup := seen[key]
		if !dup {
			if rid, err = o.txn.InsertAtom(o.res.TypeName, vals...); err != nil {
				return false
			}
			seen[key] = rid
		}
		prov[rid] = append(prov[rid], a.ID)
		return true
	})
	if err == nil {
		err = o.inherit(operand, prov)
	}
	return o.end(err)
}

// tupleKey builds a duplicate-elimination key from a value tuple.
func tupleKey(vals []model.Value) string {
	s := ""
	for _, v := range vals {
		s += v.String() + "\x00"
	}
	return s
}

// Restrict implements atom-type restriction σ[restr(ad)](at): the result
// keeps the operand's description and the atoms satisfying the predicate,
// preserving their identity.
func Restrict(db *storage.Database, operand string, pred expr.Expr, resultName string) (*Result, error) {
	c, ok := db.Container(operand)
	if !ok {
		return nil, fmt.Errorf("atomalg: unknown atom type %q", operand)
	}
	if err := expr.Check(pred, expr.AtomScope{TypeName: operand, Desc: c.Desc()}); err != nil {
		return nil, err
	}
	o, err := begin(db, resultName, operand+"_sel", c.Desc())
	if err != nil {
		return nil, err
	}
	var kept []model.AtomID
	o.view.Scan(c, func(a model.Atom) bool {
		var ok bool
		if ok, err = expr.EvalPredicate(pred, expr.AtomBinding{TypeName: operand, Desc: c.Desc(), Atom: a}); ok && err == nil {
			if err = o.txn.AdoptAtom(o.res.TypeName, a); err == nil {
				kept = append(kept, a.ID)
			}
		}
		return err == nil
	})
	if err == nil {
		err = o.inherit(operand, identity(kept))
	}
	return o.end(err)
}

// Product implements the cartesian product ×(at1, at2): the result
// description is the concatenation ad1 ∪ ad2 (attribute names are
// auto-prefixed with the operand type names when they collide, restoring
// the pairwise disjointness Definition 4 presumes) and the occurrence is
// the set of concatenated atoms a1 & a2. Link types of both operands are
// inherited through the respective component.
func Product(db *storage.Database, left, right, resultName string) (*Result, error) {
	cl, ok := db.Container(left)
	if !ok {
		return nil, fmt.Errorf("atomalg: unknown atom type %q", left)
	}
	cr, ok := db.Container(right)
	if !ok {
		return nil, fmt.Errorf("atomalg: unknown atom type %q", right)
	}
	ld, rd := cl.Desc(), cr.Desc()
	if !ld.Disjoint(rd) || left == right {
		ld = ld.Prefixed(left, ".")
		rd = rd.Prefixed(right+sideSuffix(left, right), ".")
	}
	desc, err := ld.Concat(rd)
	if err != nil {
		return nil, err
	}
	o, err := begin(db, resultName, left+"_x_"+right, desc)
	if err != nil {
		return nil, err
	}
	leftProv := make(provenance)
	rightProv := make(provenance)
	o.view.Scan(cl, func(a model.Atom) bool {
		o.view.Scan(cr, func(b model.Atom) bool {
			vals := make([]model.Value, 0, len(a.Vals)+len(b.Vals))
			vals = append(vals, a.Vals...)
			vals = append(vals, b.Vals...)
			var rid model.AtomID
			if rid, err = o.txn.InsertAtom(o.res.TypeName, vals...); err != nil {
				return false
			}
			leftProv[rid] = []model.AtomID{a.ID}
			rightProv[rid] = []model.AtomID{b.ID}
			return true
		})
		return err == nil
	})
	if err == nil {
		err = o.inherit(left, leftProv)
	}
	if err == nil && right != left {
		err = o.inherit(right, rightProv)
	}
	return o.end(err)
}

// sideSuffix disambiguates the prefix when a type is crossed with itself.
func sideSuffix(left, right string) string {
	if left == right {
		return "'"
	}
	return ""
}

// Union implements atom-type union ω(at1, at2). The operand descriptions
// must be equal (Definition 4); the result occurrence is the identity-
// preserving set union.
func Union(db *storage.Database, left, right, resultName string) (*Result, error) {
	return setOp(db, left, right, resultName, "_union_", func(inLeft, inRight bool) bool {
		return inLeft || inRight
	})
}

// Difference implements atom-type difference δ(at1, at2): atoms of at1
// not in at2 (by identity).
func Difference(db *storage.Database, left, right, resultName string) (*Result, error) {
	return setOp(db, left, right, resultName, "_minus_", func(inLeft, inRight bool) bool {
		return inLeft && !inRight
	})
}

// setOp factors union and difference: both preserve identity and inherit
// links from both operand types' neighbourhoods.
func setOp(db *storage.Database, left, right, resultName, infix string, keep func(bool, bool) bool) (*Result, error) {
	cl, ok := db.Container(left)
	if !ok {
		return nil, fmt.Errorf("atomalg: unknown atom type %q", left)
	}
	cr, ok := db.Container(right)
	if !ok {
		return nil, fmt.Errorf("atomalg: unknown atom type %q", right)
	}
	if !cl.Desc().Equal(cr.Desc()) {
		return nil, fmt.Errorf("atomalg: %q and %q have different descriptions", left, right)
	}
	o, err := begin(db, resultName, left+infix+right, cl.Desc())
	if err != nil {
		return nil, err
	}
	inLeft := func(id model.AtomID) bool { return o.view.Has(cl, id) }
	inRight := func(id model.AtomID) bool { return o.view.Has(cr, id) }
	var kept []model.AtomID
	adopt := func(a model.Atom) bool {
		if err = o.txn.AdoptAtom(o.res.TypeName, a); err == nil {
			kept = append(kept, a.ID)
		}
		return err == nil
	}
	o.view.Scan(cl, func(a model.Atom) bool {
		return !keep(true, inRight(a.ID)) || adopt(a)
	})
	if err == nil {
		o.view.Scan(cr, func(a model.Atom) bool {
			// An atom also on the left was considered by the left scan.
			return inLeft(a.ID) || !keep(false, true) || adopt(a)
		})
	}
	// Inherit from the left operand's neighbourhood; for union, also from
	// the right's (its links cover atoms absent on the left).
	prov := identity(kept)
	if err == nil {
		err = o.inherit(left, restrictProv(prov, inLeft))
	}
	if err == nil && keep(false, true) && right != left { // union only
		err = o.inherit(right, restrictProv(prov, func(id model.AtomID) bool {
			return inRight(id) && !inLeft(id)
		}))
	}
	return o.end(err)
}

// restrictProv filters a provenance map to result atoms whose source
// passes the predicate.
func restrictProv(p provenance, pass func(model.AtomID) bool) provenance {
	out := make(provenance)
	for rid, srcs := range p {
		for _, s := range srcs {
			if pass(s) {
				out[rid] = append(out[rid], s)
			}
		}
	}
	return out
}
