package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// mixedDB builds r → c → e over random atoms: r (name STRING, n INT,
// b BOOL), c (n INT, f FLOAT, s STRING, b BOOL) and e (x INT), every
// attribute nullable. An r has 0–3 c atoms and a c 0–2 e atoms, so
// component sets are often empty or single, and n and b are ambiguous
// when unqualified.
func mixedDB(rng *rand.Rand) (*storage.Database, *core.MoleculeType, error) {
	db := storage.NewDatabase()
	for _, at := range []struct {
		name  string
		attrs []model.AttrDesc
	}{
		{"r", []model.AttrDesc{{Name: "name", Kind: model.KString}, {Name: "n", Kind: model.KInt}, {Name: "b", Kind: model.KBool}}},
		{"c", []model.AttrDesc{{Name: "n", Kind: model.KInt}, {Name: "f", Kind: model.KFloat}, {Name: "s", Kind: model.KString}, {Name: "b", Kind: model.KBool}}},
		{"e", []model.AttrDesc{{Name: "x", Kind: model.KInt}}},
	} {
		if _, err := db.DefineAtomType(at.name, model.MustDesc(at.attrs...)); err != nil {
			return nil, nil, err
		}
	}
	for _, l := range [][3]string{{"rc", "r", "c"}, {"ce", "c", "e"}} {
		if _, err := db.DefineLinkType(l[0], model.LinkDesc{SideA: l[1], SideB: l[2]}); err != nil {
			return nil, nil, err
		}
	}
	val := func(k model.Kind) model.Value {
		if rng.Intn(5) == 0 {
			return model.Null()
		}
		switch k {
		case model.KInt:
			return model.Int(int64(rng.Intn(7) - 3))
		case model.KFloat:
			return model.Float(float64(rng.Intn(9)-4) / 2)
		case model.KString:
			return model.Str([]string{"", "a", "ab", "B", "ba"}[rng.Intn(5)])
		}
		return model.Bool(rng.Intn(2) == 0)
	}
	for range 2 + rng.Intn(5) {
		r, err := db.InsertAtom("r", val(model.KString), val(model.KInt), val(model.KBool))
		if err != nil {
			return nil, nil, err
		}
		for range rng.Intn(4) {
			c, err := db.InsertAtom("c", val(model.KInt), val(model.KFloat), val(model.KString), val(model.KBool))
			if err == nil {
				err = db.Connect("rc", r, c)
			}
			if err != nil {
				return nil, nil, err
			}
			for range rng.Intn(3) {
				e, err := db.InsertAtom("e", val(model.KInt))
				if err == nil {
					err = db.Connect("ce", c, e)
				}
				if err != nil {
					return nil, nil, err
				}
			}
		}
	}
	mt, err := core.Define(db, "mixed", []string{"r", "c", "e"}, []core.DirectedLink{
		{Link: "rc", From: "r", To: "c"}, {Link: "ce", From: "c", To: "e"}})
	return db, mt, err
}

// randExpr draws a random qualification formula of depth ≤ depth over
// every node kind, with references that resolve, are ambiguous, or name
// no type or attribute, and with operands of every value kind.
func randExpr(rng *rand.Rand, depth int) expr.Expr {
	types := []string{"r", "c", "e", "zz"}
	attrs := []expr.Attr{
		{Type: "r", Name: "name"}, {Type: "r", Name: "n"}, {Type: "r", Name: "b"},
		{Type: "c", Name: "n"}, {Type: "c", Name: "f"}, {Type: "c", Name: "s"}, {Type: "c", Name: "b"},
		{Type: "e", Name: "x"}, {Type: "c", Name: "zz"}, {Type: "zz", Name: "x"},
		{Name: "name"}, {Name: "f"}, {Name: "s"}, {Name: "x"}, {Name: "n"}, {Name: "zz"},
	}
	consts := []model.Value{model.Null(), model.Int(0), model.Int(1), model.Int(-2), model.Float(0.5),
		model.Float(-1), model.Str("a"), model.Str("ab"), model.Bool(true), model.Bool(false)}
	attr := func() expr.Attr { return attrs[rng.Intn(len(attrs))] }
	op := func() expr.CmpOp { return expr.CmpOp(rng.Intn(6)) }
	leaf := func() expr.Expr {
		switch rng.Intn(4) {
		case 0, 1:
			return attr()
		case 2:
			return expr.CountOf{Type: types[rng.Intn(len(types))]}
		}
		return expr.Lit(consts[rng.Intn(len(consts))])
	}
	if depth <= 1 {
		return leaf()
	}
	sub := func() expr.Expr { return randExpr(rng, depth-1) }
	switch rng.Intn(11) {
	case 0:
		return leaf()
	case 1, 2:
		return expr.Cmp{Op: op(), L: sub(), R: sub()}
	case 3:
		return expr.And{L: sub(), R: sub()}
	case 4:
		return expr.Or{L: sub(), R: sub()}
	case 5:
		return expr.Not{E: sub()}
	case 6:
		return expr.Exists{Type: types[rng.Intn(len(types))]}
	case 7:
		return expr.All{Attr: attr(), Op: op(), R: sub()}
	case 8:
		return expr.Arith{Op: expr.ArithOp(rng.Intn(5)), L: sub(), R: sub()}
	case 9:
		fns := []string{"LEN", "lower", "UPPER", "ABS", "CONTAINS", "PREFIX", "SUFFIX", "NOPE"}
		args := make([]expr.Expr, 1+rng.Intn(2))
		for i := range args {
			args[i] = sub()
		}
		return expr.Func{Name: fns[rng.Intn(len(fns))], Args: args}
	}
	return expr.Cmp{Op: op(), L: attr(), R: sub()}
}

// oneAtom is the one-atom reader an atom-level predicate judges through.
type oneAtom [1]model.Atom

func (r *oneAtom) Atoms(int) ([]model.Atom, error) { return r[:], nil }
func (r *oneAtom) Count(int) int                   { return 1 }

// sameOutcome reports whether a compiled and an interpreted evaluation
// agree — the same boolean and the same error (or none) — counting the
// interpreter's outcome.
func sameOutcome(outcomes map[string]int, got bool, gerr error, want bool, werr error) bool {
	outcomes[fmt.Sprint(want, werr != nil)]++
	if gerr != nil || werr != nil {
		return gerr != nil && werr != nil && gerr.Error() == werr.Error()
	}
	return got == want
}

// TestCompiledMatchesInterpreterRandom: a compiled predicate answers
// exactly what the interpreter answers — the same boolean, the same
// error — on random formulas of depth ≤ 4 over every node kind, under
// molecule binding (with a component atom deleted behind some molecules'
// backs) and under one-atom binding.
func TestCompiledMatchesInterpreterRandom(t *testing.T) {
	kinds, outcomes := make(map[string]int), make(map[string]int)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, mt, err := mixedDB(rng)
		if err != nil {
			t.Log(err)
			return false
		}
		ms, err := mt.Derive()
		if err != nil {
			t.Log(err)
			return false
		}
		if rng.Intn(3) == 0 { // stale molecules: a component atom is gone
			for _, m := range ms {
				if cs := m.AtomsOf("c"); len(cs) > 0 {
					if _, err := db.DeleteAtom("c", cs[rng.Intn(len(cs))]); err != nil {
						t.Log(err)
						return false
					}
					break
				}
			}
		}
		scope := core.Scope{DB: db, Desc: mt.Desc()}
		rd := core.NewReader(db, mt.Desc(), db.View(0))
		cont, _ := db.Container("c")
		atomScope := expr.AtomScope{TypeName: "c", Desc: cont.Desc()}
		for range 40 {
			e := randExpr(rng, 1+rng.Intn(4))
			kinds[fmt.Sprintf("%T", e)]++
			mol, one := expr.Compile(e, scope), expr.Compile(e, atomScope)
			for _, m := range ms {
				want, werr := expr.EvalPredicate(e, core.Binding{DB: db, M: m})
				rd.Bind(m)
				if got, gerr := mol(rd); !sameOutcome(outcomes, got, gerr, want, werr) {
					t.Logf("seed %d: %s on %s: compiled %v, %v; interpreter %v, %v", seed, e, m.Format(db), got, gerr, want, werr)
					return false
				}
			}
			for _, a := range cont.Atoms() {
				want, werr := expr.EvalPredicate(e, expr.AtomBinding{TypeName: "c", Desc: cont.Desc(), Atom: a})
				r := oneAtom{a}
				if got, gerr := one(&r); !sameOutcome(outcomes, got, gerr, want, werr) {
					t.Logf("seed %d: %s on atom %v: compiled %v, %v; interpreter %v, %v", seed, e, a, got, gerr, want, werr)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"expr.Const", "expr.Attr", "expr.CountOf", "expr.Cmp", "expr.And", "expr.Or",
		"expr.Not", "expr.Exists", "expr.All", "expr.Arith", "expr.Func"} {
		if kinds[k] == 0 {
			t.Errorf("no formula was rooted at %s", k)
		}
	}
	for _, o := range []string{"true false", "false false", "false true"} {
		if outcomes[o] == 0 {
			t.Errorf("no evaluation had outcome (holds, errs) = %s: %v", o, outcomes)
		}
	}
}
