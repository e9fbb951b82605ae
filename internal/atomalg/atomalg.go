// Package atomalg implements the atom-type algebra of Definition 4:
// projection π, restriction σ, cartesian product ×, union ω and
// difference δ, each producing a *new atom type* installed in a
// correspondingly enlarged database — the closure property of Theorem 1.
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

	"mad/internal/catalog"
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

// resolveName picks the result type name: the caller's, or a fresh one.
func resolveName(db *storage.Database, want, base string) (string, error) {
	if want == "" {
		return db.Schema().FreshAtomName(base), nil
	}
	if db.Schema().HasName(want) {
		return "", fmt.Errorf("atomalg: result name %q already in use", want)
	}
	return want, nil
}

// inherit installs inherited link types for every operand link type
// mentioning operandType, wiring links according to provenance. prov maps
// result atoms to their side-relevant operand atoms. The candidate list is
// snapshotted by the caller *before* the operation mutates the schema, so
// link types created by a sibling inheritance pass are not re-inherited.
func inherit(db *storage.Database, operandType, resultName string, prov provenance, candidates []*catalog.LinkType) ([]InheritedLink, error) {
	var out []InheritedLink
	for _, lt := range candidates {
		ls, ok := db.LinkStore(lt.Name)
		if !ok {
			return nil, fmt.Errorf("atomalg: link type %q has no store", lt.Name)
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
			var desc model.LinkDesc
			if operandOnA {
				desc = model.LinkDesc{SideA: resultName, SideB: partner}
			} else {
				desc = model.LinkDesc{SideA: partner, SideB: resultName}
			}
			if _, err := db.DefineLinkType(fresh, desc); err != nil {
				return nil, err
			}
			for rid, sources := range prov {
				for _, src := range sources {
					var partners []model.AtomID
					if operandOnA {
						partners = ls.Partners(src, true)
					} else {
						partners = ls.Partners(src, false)
					}
					for _, p := range partners {
						var err error
						if operandOnA {
							err = db.Connect(fresh, rid, p)
						} else {
							err = db.Connect(fresh, p, rid)
						}
						if err != nil {
							return nil, err
						}
					}
				}
			}
			out = append(out, InheritedLink{
				Name: fresh, From: lt.Name, Partner: partner, ResultOnSideA: operandOnA,
			})
		}
	}
	return out, nil
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
	candidates := db.Schema().LinkTypesOf(operand)
	name, err := resolveName(db, resultName, operand+"_proj")
	if err != nil {
		return nil, err
	}
	if _, err := db.DefineAtomType(name, pdesc); err != nil {
		return nil, err
	}
	positions := make([]int, len(attrs))
	for i, a := range attrs {
		positions[i], _ = c.Desc().Lookup(a)
	}
	seen := make(map[string]model.AtomID)
	prov := make(provenance)
	var insertErr error
	c.Scan(func(a model.Atom) bool {
		vals := make([]model.Value, len(positions))
		for i, p := range positions {
			vals[i] = a.Get(p)
		}
		key := tupleKey(vals)
		rid, dup := seen[key]
		if !dup {
			rid, insertErr = db.InsertAtom(name, vals...)
			if insertErr != nil {
				return false
			}
			seen[key] = rid
		}
		prov[rid] = append(prov[rid], a.ID)
		return true
	})
	if insertErr != nil {
		return nil, insertErr
	}
	inh, err := inherit(db, operand, name, prov, candidates)
	if err != nil {
		return nil, err
	}
	return &Result{TypeName: name, Inherited: inh}, nil
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
	candidates := db.Schema().LinkTypesOf(operand)
	name, err := resolveName(db, resultName, operand+"_sel")
	if err != nil {
		return nil, err
	}
	if _, err := db.DefineAtomType(name, c.Desc()); err != nil {
		return nil, err
	}
	var kept []model.AtomID
	var evalErr error
	c.Scan(func(a model.Atom) bool {
		ok, err := expr.EvalPredicate(pred, expr.AtomBinding{TypeName: operand, Desc: c.Desc(), Atom: a})
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			if err := db.AdoptAtom(name, a); err != nil {
				evalErr = err
				return false
			}
			kept = append(kept, a.ID)
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	inh, err := inherit(db, operand, name, identity(kept), candidates)
	if err != nil {
		return nil, err
	}
	return &Result{TypeName: name, Inherited: inh}, nil
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
	leftCandidates := db.Schema().LinkTypesOf(left)
	rightCandidates := db.Schema().LinkTypesOf(right)
	name, err := resolveName(db, resultName, left+"_x_"+right)
	if err != nil {
		return nil, err
	}
	if _, err := db.DefineAtomType(name, desc); err != nil {
		return nil, err
	}
	leftProv := make(provenance)
	rightProv := make(provenance)
	var insertErr error
	cl.Scan(func(a model.Atom) bool {
		cr.Scan(func(b model.Atom) bool {
			vals := make([]model.Value, 0, len(a.Vals)+len(b.Vals))
			vals = append(vals, a.Vals...)
			vals = append(vals, b.Vals...)
			rid, err := db.InsertAtom(name, vals...)
			if err != nil {
				insertErr = err
				return false
			}
			leftProv[rid] = []model.AtomID{a.ID}
			rightProv[rid] = []model.AtomID{b.ID}
			return true
		})
		return insertErr == nil
	})
	if insertErr != nil {
		return nil, insertErr
	}
	inh, err := inherit(db, left, name, leftProv, leftCandidates)
	if err != nil {
		return nil, err
	}
	if right != left {
		inh2, err := inherit(db, right, name, rightProv, rightCandidates)
		if err != nil {
			return nil, err
		}
		inh = append(inh, inh2...)
	}
	return &Result{TypeName: name, Inherited: inh}, nil
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
	leftCandidates := db.Schema().LinkTypesOf(left)
	rightCandidates := db.Schema().LinkTypesOf(right)
	name, err := resolveName(db, resultName, left+infix+right)
	if err != nil {
		return nil, err
	}
	if _, err := db.DefineAtomType(name, cl.Desc()); err != nil {
		return nil, err
	}
	var kept []model.AtomID
	var opErr error
	adopt := func(a model.Atom) {
		if err := db.AdoptAtom(name, a); err != nil {
			opErr = err
			return
		}
		kept = append(kept, a.ID)
	}
	cl.Scan(func(a model.Atom) bool {
		if keep(true, cr.Has(a.ID)) {
			adopt(a)
		}
		return opErr == nil
	})
	if opErr != nil {
		return nil, opErr
	}
	cr.Scan(func(a model.Atom) bool {
		if cl.Has(a.ID) {
			return true // already considered through the left scan
		}
		if keep(false, true) {
			adopt(a)
		}
		return opErr == nil
	})
	if opErr != nil {
		return nil, opErr
	}
	// Inherit from the left operand's neighbourhood; for union, also from
	// the right's (its links cover atoms absent on the left).
	prov := identity(kept)
	inh, err := inherit(db, left, name, restrictProv(prov, cl.Has), leftCandidates)
	if err != nil {
		return nil, err
	}
	if keep(false, true) && right != left { // union only
		inh2, err := inherit(db, right, name, restrictProv(prov, func(id model.AtomID) bool {
			return cr.Has(id) && !cl.Has(id)
		}), rightCandidates)
		if err != nil {
			return nil, err
		}
		inh = append(inh, inh2...)
	}
	return &Result{TypeName: name, Inherited: inh}, nil
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
