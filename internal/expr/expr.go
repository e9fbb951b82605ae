// Package expr implements the qualification formulas of the MAD algebras:
// the restr(ad) predicates of atom-type restriction σ (Definition 4) and
// the restr(md) predicates of molecule-type restriction Σ (Definition 10).
//
// An expression evaluates against a Binding. An atom binds each attribute
// to exactly one value; a molecule binds a qualified name like point.name
// to the values of *all* component atoms of that type, and comparisons
// follow existential semantics: point.name = 'pn' holds when some point
// atom of the molecule carries that name. Explicit EXISTS/ALL quantifiers
// make the choice visible when it matters.
package expr

import (
	"fmt"
	"strings"

	"mad/internal/model"
)

// CmpOp enumerates the comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = [...]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="}

// String returns the MQL spelling of the operator.
func (op CmpOp) String() string { return cmpNames[op] }

// holds applies the operator to a three-way comparison result.
func (op CmpOp) holds(c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// ArithOp enumerates the arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

var arithNames = [...]string{Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%"}

// String returns the MQL spelling of the operator.
func (op ArithOp) String() string { return arithNames[op] }

// Binding supplies values to attribute references during evaluation.
type Binding interface {
	// Resolve returns every value bound to the (possibly unqualified)
	// attribute reference. Atom bindings return exactly one value;
	// molecule bindings return one value per component atom of the
	// referenced type. An unknown reference is an error.
	Resolve(typeName, attr string) ([]model.Value, error)
	// Count returns how many component atoms of the named type the bound
	// object holds (1 or 0 for atom bindings).
	Count(typeName string) (int, error)
}

// Expr is a qualification-formula node.
type Expr interface {
	// Eval computes the expression's value(s) under the binding. A
	// predicate yields a single boolean value.
	Eval(b Binding) ([]model.Value, error)
	// String renders the expression in MQL syntax.
	String() string
}

// Const is a literal value.
type Const struct{ V model.Value }

// Lit is shorthand for a constant node.
func Lit(v model.Value) Const { return Const{V: v} }

// Eval returns the literal.
func (c Const) Eval(Binding) ([]model.Value, error) { return []model.Value{c.V}, nil }

// String renders the literal.
func (c Const) String() string { return c.V.String() }

// Attr references an attribute, optionally qualified with an atom-type
// name (point.name). Unqualified references resolve only when unambiguous
// in the binding's scope.
type Attr struct {
	Type string // "" = unqualified
	Name string
}

// Eval resolves the reference through the binding.
func (a Attr) Eval(b Binding) ([]model.Value, error) { return b.Resolve(a.Type, a.Name) }

// String renders the reference.
func (a Attr) String() string {
	if a.Type == "" {
		return a.Name
	}
	return a.Type + "." + a.Name
}

// Cmp compares two expressions. When either side is multi-valued the
// comparison is existential: it holds if some pair of values satisfies the
// operator.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval computes the existential comparison.
func (c Cmp) Eval(b Binding) ([]model.Value, error) {
	ls, err := c.L.Eval(b)
	if err != nil {
		return nil, err
	}
	rs, err := c.R.Eval(b)
	if err != nil {
		return nil, err
	}
	for _, l := range ls {
		for _, r := range rs {
			if l.IsNull() || r.IsNull() {
				continue // SQL-style: null compares to nothing
			}
			if c.Op.holds(l.Compare(r)) {
				return trueVal, nil
			}
		}
	}
	return falseVal, nil
}

// String renders the comparison.
func (c Cmp) String() string { return render(c) }

var (
	trueVal  = []model.Value{model.Bool(true)}
	falseVal = []model.Value{model.Bool(false)}
)

// And is logical conjunction.
type And struct{ L, R Expr }

// Eval computes the conjunction.
func (a And) Eval(b Binding) ([]model.Value, error) {
	l, err := evalBool(a.L, b)
	if err != nil {
		return nil, err
	}
	if !l {
		return falseVal, nil
	}
	r, err := evalBool(a.R, b)
	if err != nil {
		return nil, err
	}
	return boolVal(r), nil
}

// String renders the conjunction.
func (a And) String() string { return render(a) }

// Or is logical disjunction.
type Or struct{ L, R Expr }

// Eval computes the disjunction.
func (o Or) Eval(b Binding) ([]model.Value, error) {
	l, err := evalBool(o.L, b)
	if err != nil {
		return nil, err
	}
	if l {
		return trueVal, nil
	}
	r, err := evalBool(o.R, b)
	if err != nil {
		return nil, err
	}
	return boolVal(r), nil
}

// String renders the disjunction.
func (o Or) String() string { return render(o) }

// Not is logical negation.
type Not struct{ E Expr }

// Eval computes the negation.
func (n Not) Eval(b Binding) ([]model.Value, error) {
	v, err := evalBool(n.E, b)
	if err != nil {
		return nil, err
	}
	return boolVal(!v), nil
}

// String renders the negation.
func (n Not) String() string { return render(n) }

// Arith applies an arithmetic operator. Both operands must be single
// numeric values; integer pairs stay integral (except division by zero,
// which is an error).
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval computes the arithmetic result.
func (a Arith) Eval(b Binding) ([]model.Value, error) {
	l, err := evalSingle(a.L, b)
	if err != nil {
		return nil, err
	}
	r, err := evalSingle(a.R, b)
	if err != nil {
		return nil, err
	}
	return wrap(arith(a.Op, l, r))
}

// wrap is a scalar node's result: its one value, or its error.
func wrap(v model.Value, err error) ([]model.Value, error) {
	if err != nil {
		return nil, err
	}
	return []model.Value{v}, nil
}

// arith applies op to two single values.
func arith(op ArithOp, l, r model.Value) (model.Value, error) {
	li, lok := l.AsInt()
	ri, rok := r.AsInt()
	if lok && rok {
		switch op {
		case Add:
			return model.Int(li + ri), nil
		case Sub:
			return model.Int(li - ri), nil
		case Mul:
			return model.Int(li * ri), nil
		case Div:
			if ri == 0 {
				return model.Null(), fmt.Errorf("expr: integer division by zero")
			}
			return model.Int(li / ri), nil
		case Mod:
			if ri == 0 {
				return model.Null(), fmt.Errorf("expr: integer modulo by zero")
			}
			return model.Int(li % ri), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return model.Null(), fmt.Errorf("expr: %s applied to non-numeric operands %s, %s", op, l, r)
	}
	switch op {
	case Add:
		return model.Float(lf + rf), nil
	case Sub:
		return model.Float(lf - rf), nil
	case Mul:
		return model.Float(lf * rf), nil
	case Div:
		if rf == 0 {
			return model.Null(), fmt.Errorf("expr: division by zero")
		}
		return model.Float(lf / rf), nil
	case Mod:
		return model.Null(), fmt.Errorf("expr: %% requires integer operands")
	}
	return model.Null(), fmt.Errorf("expr: unknown arithmetic operator")
}

// String renders the arithmetic expression.
func (a Arith) String() string { return render(a) }

// Exists holds when the bound object contains at least one component atom
// of the named type — useful because molecule totality permits empty
// branches (a point with no net neighbours still forms a molecule).
type Exists struct{ Type string }

// Eval tests component presence.
func (e Exists) Eval(b Binding) ([]model.Value, error) {
	n, err := b.Count(e.Type)
	if err != nil {
		return nil, err
	}
	return boolVal(n > 0), nil
}

// String renders the quantifier.
func (e Exists) String() string { return render(e) }

// All holds when *every* component atom of the referenced type satisfies
// the comparison — the universal counterpart of Cmp's existential default.
type All struct {
	Attr Attr
	Op   CmpOp
	R    Expr
}

// Eval tests the universal comparison. It is vacuously true when the
// molecule holds no atom of the referenced type.
func (a All) Eval(b Binding) ([]model.Value, error) {
	ls, err := a.Attr.Eval(b)
	if err != nil {
		return nil, err
	}
	rs, err := a.R.Eval(b)
	if err != nil {
		return nil, err
	}
	for _, l := range ls {
		ok := false
		for _, r := range rs {
			if !l.IsNull() && !r.IsNull() && a.Op.holds(l.Compare(r)) {
				ok = true
				break
			}
		}
		if !ok {
			return falseVal, nil
		}
	}
	return trueVal, nil
}

// String renders the quantifier.
func (a All) String() string { return render(a) }

// CountOf yields the number of component atoms of the named type, enabling
// formulas like COUNT(edge) > 3.
type CountOf struct{ Type string }

// Eval counts components.
func (c CountOf) Eval(b Binding) ([]model.Value, error) {
	n, err := b.Count(c.Type)
	if err != nil {
		return nil, err
	}
	return []model.Value{model.Int(int64(n))}, nil
}

// String renders the aggregate.
func (c CountOf) String() string { return render(c) }

// Func applies a built-in scalar function to single-valued arguments.
// Supported: LEN, LOWER, UPPER, ABS.
type Func struct {
	Name string
	Args []Expr
}

// Eval applies the function.
func (f Func) Eval(b Binding) ([]model.Value, error) {
	args := make([]model.Value, len(f.Args))
	for i, e := range f.Args {
		v, err := evalSingle(e, b)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return wrap(call(f.Name, args))
}

// call applies the built-in function named fname to single values.
func call(fname string, args []model.Value) (model.Value, error) {
	name := strings.ToUpper(fname)
	switch name {
	case "LEN":
		if err := arity(name, args, 1); err != nil {
			return model.Null(), err
		}
		s, ok := args[0].AsString()
		if !ok {
			return model.Null(), fmt.Errorf("expr: LEN requires a string, got %s", args[0])
		}
		return model.Int(int64(len(s))), nil
	case "LOWER", "UPPER":
		if err := arity(name, args, 1); err != nil {
			return model.Null(), err
		}
		s, ok := args[0].AsString()
		if !ok {
			return model.Null(), fmt.Errorf("expr: %s requires a string, got %s", name, args[0])
		}
		if name == "LOWER" {
			return model.Str(strings.ToLower(s)), nil
		}
		return model.Str(strings.ToUpper(s)), nil
	case "ABS":
		if err := arity(name, args, 1); err != nil {
			return model.Null(), err
		}
		if i, ok := args[0].AsInt(); ok {
			if i < 0 {
				i = -i
			}
			return model.Int(i), nil
		}
		if fv, ok := args[0].AsFloat(); ok {
			if fv < 0 {
				fv = -fv
			}
			return model.Float(fv), nil
		}
		return model.Null(), fmt.Errorf("expr: ABS requires a number, got %s", args[0])
	case "CONTAINS", "PREFIX", "SUFFIX":
		if err := arity(name, args, 2); err != nil {
			return model.Null(), err
		}
		s, ok1 := args[0].AsString()
		sub, ok2 := args[1].AsString()
		if !ok1 || !ok2 {
			return model.Null(), fmt.Errorf("expr: %s requires strings", name)
		}
		switch name {
		case "CONTAINS":
			return model.Bool(strings.Contains(s, sub)), nil
		case "PREFIX":
			return model.Bool(strings.HasPrefix(s, sub)), nil
		default:
			return model.Bool(strings.HasSuffix(s, sub)), nil
		}
	}
	return model.Null(), fmt.Errorf("expr: unknown function %q", fname)
}

func arity(name string, args []model.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("expr: %s expects %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

// String renders the call.
func (f Func) String() string { return render(f) }

// render is the String of every composite node: one appendExpr walk into
// one buffer, so a deep predicate renders in time linear in its size
// rather than copying every subtree's text once per enclosing node.
func render(e Expr) string { return string(appendExpr(nil, e)) }

// appendExpr appends e's MQL rendering to dst.
func appendExpr(dst []byte, e Expr) []byte {
	switch e := e.(type) {
	case Const:
		return e.V.Append(dst)
	case Attr:
		if e.Type != "" {
			dst = append(append(dst, e.Type...), '.')
		}
		return append(dst, e.Name...)
	case Cmp:
		return appendInfix(dst, e.L, e.Op.String(), e.R)
	case And:
		return append(appendInfix(append(dst, '('), e.L, "AND", e.R), ')')
	case Or:
		return append(appendInfix(append(dst, '('), e.L, "OR", e.R), ')')
	case Not:
		return append(appendExpr(append(dst, "(NOT "...), e.E), ')')
	case Arith:
		return append(appendInfix(append(dst, '('), e.L, e.Op.String(), e.R), ')')
	case Exists:
		return append(append(append(dst, "EXISTS("...), e.Type...), ')')
	case All:
		return append(appendInfix(append(dst, "ALL("...), e.Attr, e.Op.String(), e.R), ')')
	case CountOf:
		return append(append(append(dst, "COUNT("...), e.Type...), ')')
	case Func:
		dst = append(append(dst, strings.ToUpper(e.Name)...), '(')
		for i, a := range e.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendExpr(dst, a)
		}
		return append(dst, ')')
	}
	// Any other node, or a missing operand, renders as fmt always did.
	return fmt.Appendf(dst, "%s", e)
}

// appendInfix appends "l op r".
func appendInfix(dst []byte, l Expr, op string, r Expr) []byte {
	dst = append(append(append(appendExpr(dst, l), ' '), op...), ' ')
	return appendExpr(dst, r)
}

func boolVal(b bool) []model.Value {
	if b {
		return trueVal
	}
	return falseVal
}

// evalBool evaluates e and coerces the result to a single boolean.
func evalBool(e Expr, b Binding) (bool, error) {
	vs, err := e.Eval(b)
	if err != nil {
		return false, err
	}
	if len(vs) != 1 {
		return false, fmt.Errorf("expr: %s is not a predicate", e)
	}
	v, ok := vs[0].AsBool()
	if !ok {
		return false, fmt.Errorf("expr: %s does not evaluate to a boolean (got %s)", e, vs[0])
	}
	return v, nil
}

// evalSingle evaluates e and requires exactly one value.
func evalSingle(e Expr, b Binding) (model.Value, error) {
	vs, err := e.Eval(b)
	if err != nil {
		return model.Null(), err
	}
	if len(vs) != 1 {
		return model.Null(), fmt.Errorf("expr: %s is multi-valued here (%d values); use EXISTS/ALL", e, len(vs))
	}
	return vs[0], nil
}

// EvalPredicate evaluates e as the qualification predicate "qual":
// qual(restr, x) decides whether the bound object fulfills the condition.
func EvalPredicate(e Expr, b Binding) (bool, error) {
	if e == nil {
		return true, nil
	}
	return evalBool(e, b)
}
