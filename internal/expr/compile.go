package expr

import (
	"fmt"

	"mad/internal/model"
)

// Layout resolves a predicate's references once, when it is compiled:
// every atom type the predicate may read is a slot, and an attribute is a
// column of its slot's atoms. A reference that does not resolve is not a
// compile error: the compiled predicate raises it where the interpreter
// does, when the reference is evaluated, so short-circuiting hides it the
// same way.
type Layout interface {
	// Column resolves a (possibly unqualified) attribute reference.
	Column(typeName, attr string) (slot, col int, err error)
	// Slot resolves the target of EXISTS or COUNT.
	Slot(typeName string) (int, error)
}

// Reader supplies a compiled predicate with the object it judges: the
// atoms of a slot, in the order a Binding resolves their values, and
// their number.
type Reader interface {
	Atoms(slot int) ([]model.Atom, error)
	Count(slot int) int
}

// Pred is a compiled qualification predicate. It answers exactly what
// EvalPredicate answers under the corresponding Binding — existential
// comparisons, NULL comparing to nothing, the same short-circuit order
// and the same errors — but reads values straight from the atoms the
// Reader hands it and allocates nothing on its comparison paths.
type Pred func(Reader) (bool, error)

// Compile turns the formula e into a Pred whose references are resolved
// through l.
func Compile(e Expr, l Layout) Pred {
	switch n := e.(type) {
	case Cmp:
		op, lo, ro := n.Op, compileOperand(n.L, l), compileOperand(n.R, l)
		return func(r Reader) (bool, error) {
			la, lv, ra, rv, err := both(lo, ro, r)
			for i := 0; err == nil && i < lo.n(la); i++ {
				if ro.some(op, lo.at(la, lv, i), ra, rv) {
					return true, nil
				}
			}
			return false, err
		}
	case All:
		op, lo, ro := n.Op, compileOperand(n.Attr, l), compileOperand(n.R, l)
		return func(r Reader) (bool, error) {
			la, _, ra, rv, err := both(lo, ro, r)
			for i := 0; err == nil && i < len(la); i++ {
				if !ro.some(op, la[i].Get(lo.col), ra, rv) {
					return false, nil
				}
			}
			return err == nil, err
		}
	case And:
		lp, rp := Compile(n.L, l), Compile(n.R, l)
		return func(r Reader) (bool, error) {
			if ok, err := lp(r); !ok || err != nil {
				return false, err
			}
			return rp(r)
		}
	case Or:
		lp, rp := Compile(n.L, l), Compile(n.R, l)
		return func(r Reader) (bool, error) {
			if ok, err := lp(r); ok || err != nil {
				return ok, err
			}
			return rp(r)
		}
	case Not:
		p := Compile(n.E, l)
		return func(r Reader) (bool, error) {
			ok, err := p(r)
			return !ok && err == nil, err
		}
	case Exists:
		return Compile(Cmp{Op: GT, L: CountOf(n), R: Lit(model.Int(0))}, l)
	}
	// Any other node is a value that must be one boolean (evalBool).
	o := compileOperand(e, l)
	return func(r Reader) (bool, error) {
		v, n, err := o.one(r)
		if err == nil && n != 1 {
			err = fmt.Errorf("expr: %s is not a predicate", e)
		}
		b, ok := v.AsBool()
		if err == nil && !ok {
			err = fmt.Errorf("expr: %s does not evaluate to a boolean (got %s)", e, v)
		}
		return b && err == nil, err
	}
}

// operand is a compiled value-producing node: a reference (the column
// col of every atom in slot — the one multi-valued node), a constant, or
// any other node, which yields exactly one value through fn.
type operand struct {
	e         Expr
	ref       bool
	slot, col int
	v         model.Value
	fn        func(Reader) (model.Value, error)
	err       error // an unresolved reference, raised when evaluated
}

func compileOperand(e Expr, l Layout) *operand {
	o := &operand{e: e}
	switch n := e.(type) {
	case Const:
		o.v = n.V
	case Attr:
		o.ref = true
		o.slot, o.col, o.err = l.Column(n.Type, n.Name)
	case CountOf:
		slot, err := l.Slot(n.Type)
		o.err = err
		o.fn = func(r Reader) (model.Value, error) { return model.Int(int64(r.Count(slot))), nil }
	case Arith:
		o.fn = apply(l, func(a []model.Value) (model.Value, error) { return arith(n.Op, a[0], a[1]) }, n.L, n.R)
	case Func:
		o.fn = apply(l, func(a []model.Value) (model.Value, error) { return call(n.Name, a) }, n.Args...)
	case Cmp, And, Or, Not, Exists, All:
		p := Compile(e, l)
		o.fn = func(r Reader) (model.Value, error) {
			b, err := p(r)
			return model.Bool(b), err
		}
	default:
		o.err = fmt.Errorf("expr: unknown node %T", e)
	}
	return o
}

// apply compiles a scalar node: f over the single values of its
// arguments, evaluated left to right (evalSingle).
func apply(l Layout, f func([]model.Value) (model.Value, error), args ...Expr) func(Reader) (model.Value, error) {
	ops := make([]*operand, len(args))
	for i, a := range args {
		ops[i] = compileOperand(a, l)
	}
	return func(r Reader) (model.Value, error) {
		vals := make([]model.Value, len(ops))
		for i, o := range ops {
			v, n, err := o.one(r)
			if err == nil && n != 1 {
				err = fmt.Errorf("expr: %s is multi-valued here (%d values); use EXISTS/ALL", o.e, n)
			}
			if err != nil {
				return model.Null(), err
			}
			vals[i] = v
		}
		return f(vals)
	}
}

// eval yields the operand's atoms when it is a reference, its value
// otherwise.
func (o *operand) eval(r Reader) ([]model.Atom, model.Value, error) {
	switch {
	case o.err != nil:
		return nil, model.Null(), o.err
	case o.ref:
		atoms, err := r.Atoms(o.slot)
		return atoms, model.Null(), err
	case o.fn != nil:
		v, err := o.fn(r)
		return nil, v, err
	}
	return nil, o.v, nil
}

// n is the number of values eval yielded.
func (o *operand) n(atoms []model.Atom) int {
	if o.ref {
		return len(atoms)
	}
	return 1
}

// at is the i-th value eval yielded.
func (o *operand) at(atoms []model.Atom, v model.Value, i int) model.Value {
	if o.ref {
		return atoms[i].Get(o.col)
	}
	return v
}

// one yields the operand's value when it has exactly one; n is how many
// it has.
func (o *operand) one(r Reader) (v model.Value, n int, err error) {
	atoms, v, err := o.eval(r)
	if n = o.n(atoms); err == nil && n == 1 {
		v = o.at(atoms, v, 0)
	}
	return v, n, err
}

// some reports whether x compares op-true with some value eval yielded;
// NULL compares to nothing (SQL-style).
func (o *operand) some(op CmpOp, x model.Value, atoms []model.Atom, v model.Value) bool {
	for j := 0; !x.IsNull() && j < o.n(atoms); j++ {
		if y := o.at(atoms, v, j); !y.IsNull() && op.holds(x.Compare(y)) {
			return true
		}
	}
	return false
}

// both evaluates a comparison's operands, left first, as Cmp.Eval does.
func both(lo, ro *operand, r Reader) (la []model.Atom, lv model.Value, ra []model.Atom, rv model.Value, err error) {
	if la, lv, err = lo.eval(r); err == nil {
		ra, rv, err = ro.eval(r)
	}
	return la, lv, ra, rv, err
}
