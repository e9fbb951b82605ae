package expr

import (
	"fmt"

	"mad/internal/model"
)

// AtomBinding binds one atom of a known type for the atom-level predicate
// qual(restr(ad), a) of Definition 4. Attribute references may be
// unqualified or qualified with the bound type's name.
type AtomBinding struct {
	TypeName string
	Desc     *model.Desc
	Atom     model.Atom
}

// Resolve returns the single value of the referenced attribute.
func (b AtomBinding) Resolve(typeName, attr string) ([]model.Value, error) {
	_, i, err := AtomScope{TypeName: b.TypeName, Desc: b.Desc}.Column(typeName, attr)
	if err != nil {
		return nil, err
	}
	return []model.Value{b.Atom.Get(i)}, nil
}

// Count reports 1 for the bound type, errors otherwise.
func (b AtomBinding) Count(typeName string) (int, error) {
	if _, err := (AtomScope{TypeName: b.TypeName}).Slot(typeName); err != nil {
		return 0, err
	}
	return 1, nil
}

// Scope describes what names an expression may reference, for static
// validation before execution. Implementations: a single atom type, or a
// molecule-type description spanning several atom types.
type Scope interface {
	// ResolveAttr returns the kind of the referenced attribute, resolving
	// unqualified names when unambiguous.
	ResolveAttr(typeName, attr string) (model.Kind, error)
	// HasType reports whether the named atom type is in scope.
	HasType(typeName string) bool
}

// Check statically validates e against the scope: attribute references
// must resolve, EXISTS/ALL/COUNT must name in-scope types. It reports the
// first violation, or nil.
func Check(e Expr, s Scope) error {
	switch n := e.(type) {
	case nil:
		return nil
	case Const:
		return nil
	case Attr:
		_, err := s.ResolveAttr(n.Type, n.Name)
		return err
	case Cmp:
		if err := Check(n.L, s); err != nil {
			return err
		}
		return Check(n.R, s)
	case And:
		if err := Check(n.L, s); err != nil {
			return err
		}
		return Check(n.R, s)
	case Or:
		if err := Check(n.L, s); err != nil {
			return err
		}
		return Check(n.R, s)
	case Not:
		return Check(n.E, s)
	case Arith:
		if err := Check(n.L, s); err != nil {
			return err
		}
		return Check(n.R, s)
	case Exists:
		if !s.HasType(n.Type) {
			return fmt.Errorf("expr: EXISTS(%s): type not in scope", n.Type)
		}
		return nil
	case CountOf:
		if !s.HasType(n.Type) {
			return fmt.Errorf("expr: COUNT(%s): type not in scope", n.Type)
		}
		return nil
	case All:
		if err := Check(n.Attr, s); err != nil {
			return err
		}
		return Check(n.R, s)
	case Func:
		for _, a := range n.Args {
			if err := Check(a, s); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("expr: unknown node %T", e)
}

// AtomScope is the Scope of a single atom type.
type AtomScope struct {
	TypeName string
	Desc     *model.Desc
}

// ResolveAttr resolves against the single type.
func (s AtomScope) ResolveAttr(typeName, attr string) (model.Kind, error) {
	_, i, err := s.Column(typeName, attr)
	if err != nil {
		return model.KNull, err
	}
	return s.Desc.Attr(i).Kind, nil
}

// Column resolves a reference to the single type's attribute: slot 0 is
// the bound atom.
func (s AtomScope) Column(typeName, attr string) (slot, col int, err error) {
	if typeName != "" && typeName != s.TypeName {
		return 0, 0, fmt.Errorf("expr: atom type %q not in scope (bound: %q)", typeName, s.TypeName)
	}
	col, ok := s.Desc.Lookup(attr)
	if !ok {
		return 0, 0, fmt.Errorf("expr: atom type %q has no attribute %q", s.TypeName, attr)
	}
	return 0, col, nil
}

// Slot resolves the single type, whose one atom is slot 0.
func (s AtomScope) Slot(typeName string) (int, error) {
	if typeName != s.TypeName {
		return 0, fmt.Errorf("expr: atom type %q not in scope (bound: %q)", typeName, s.TypeName)
	}
	return 0, nil
}

// HasType reports scope membership.
func (s AtomScope) HasType(typeName string) bool { return typeName == s.TypeName }

// References collects the attribute references of e, in syntactic order.
// The optimizer uses it to decide whether a molecule qualification touches
// only the root type (and may therefore be pushed below derivation).
func References(e Expr) []Attr {
	var out []Attr
	walkRefs(e, func(a Attr) {
		if a.Name != "" {
			out = append(out, a)
		}
	})
	return out
}

// TypesReferenced collects the distinct atom-type names mentioned by e,
// including quantifier and aggregate targets; unqualified references
// contribute "".
func TypesReferenced(e Expr) map[string]bool {
	out := make(map[string]bool)
	walkRefs(e, func(a Attr) { out[a.Type] = true })
	return out
}

// walkRefs calls fn for every reference of e in syntactic order: each
// attribute reference, and each EXISTS or COUNT target as an Attr
// without a name.
func walkRefs(e Expr, fn func(Attr)) {
	switch n := e.(type) {
	case Attr:
		fn(n)
	case Exists:
		fn(Attr{Type: n.Type})
	case CountOf:
		fn(Attr{Type: n.Type})
	case Cmp:
		walkRefs(n.L, fn)
		walkRefs(n.R, fn)
	case And:
		walkRefs(n.L, fn)
		walkRefs(n.R, fn)
	case Or:
		walkRefs(n.L, fn)
		walkRefs(n.R, fn)
	case Not:
		walkRefs(n.E, fn)
	case Arith:
		walkRefs(n.L, fn)
		walkRefs(n.R, fn)
	case All:
		walkRefs(n.Attr, fn)
		walkRefs(n.R, fn)
	case Func:
		for _, a := range n.Args {
			walkRefs(a, fn)
		}
	}
}
