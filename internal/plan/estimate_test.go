package plan_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/storage"
)

// flaggedShop builds an asm-unit-part population: asms roots (bay 0–7),
// each with 4 units (slot 0–3) of 4 parts (weight 0.5), so about 16 part
// atoms per molecule. One asm in 64 carries the serial "F-3" on its first
// part; every other serial is unique. part.serial is indexed and ANALYZE
// has built its histogram.
func flaggedShop(t testing.TB, asms int) (*storage.Database, *core.MoleculeType) {
	t.Helper()
	db := storage.NewDatabase()
	for _, at := range []struct {
		name  string
		attrs []model.AttrDesc
	}{
		{"asm", []model.AttrDesc{{Name: "code", Kind: model.KString}, {Name: "bay", Kind: model.KInt}}},
		{"unit", []model.AttrDesc{{Name: "slot", Kind: model.KInt}}},
		{"part", []model.AttrDesc{{Name: "serial", Kind: model.KString}, {Name: "weight", Kind: model.KFloat}}},
	} {
		if _, err := db.DefineAtomType(at.name, model.MustDesc(at.attrs...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, lt := range [][3]string{{"asm-unit", "asm", "unit"}, {"unit-part", "unit", "part"}} {
		if _, err := db.DefineLinkType(lt[0], model.LinkDesc{SideA: lt[1], SideB: lt[2]}); err != nil {
			t.Fatal(err)
		}
	}
	txn := db.Begin()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < asms; i++ {
		aid, err := txn.InsertAtom("asm", model.Str(fmt.Sprintf("A%d", i)), model.Int(int64(i%8)))
		must(err)
		for u := 0; u < 4; u++ {
			uid, err := txn.InsertAtom("unit", model.Int(int64(u)))
			must(err)
			must(txn.Connect("asm-unit", aid, uid))
			for k := 0; k < 4; k++ {
				serial := fmt.Sprintf("SN-%d-%d-%d", i, u, k)
				if u == 0 && k == 0 && i%64 == 3 {
					serial = "F-3"
				}
				pid, err := txn.InsertAtom("part", model.Str(serial), model.Float(0.5))
				must(err)
				must(txn.Connect("unit-part", uid, pid))
			}
		}
	}
	must(txn.Commit())
	must(db.CreateIndex("part", "serial"))
	_, err := db.Analyze()
	must(err)
	mt, err := core.Define(db, "shop", []string{"asm", "unit", "part"}, []core.DirectedLink{
		{Link: "asm-unit", From: "asm", To: "unit"},
		{Link: "unit-part", From: "unit", To: "part"},
	})
	must(err)
	return db, mt
}

// TestResidualEstimatesAreMoleculeLevel: a residual comparison on a
// component type is existential over the molecule's atoms of that type,
// so the planner estimates it per molecule in closed form. On the
// four-conjunct chain below, the rare flag disjunction passes 1 molecule
// in 64; judged per atom (1 part in 1 024), and with COUNT(part) < 0 at
// the shape default, it used to rank third, behind two conjuncts every
// molecule passes. Judged per molecule it ranks first on the very first
// compile, so the first execution evaluates 4 096 + 3 × 64 residuals
// instead of 3 × 4 096 + 64.
func TestResidualEstimatesAreMoleculeLevel(t *testing.T) {
	db, mt := flaggedShop(t, 4096)
	attr := func(typeName, name string) expr.Attr { return expr.Attr{Type: typeName, Name: name} }
	serialIs := func(s string) expr.Expr {
		return expr.Cmp{Op: expr.EQ, L: attr("part", "serial"), R: expr.Lit(model.Str(s))}
	}
	flag := expr.Or{L: serialIs("F-3"), R: expr.Cmp{Op: expr.LT, L: expr.CountOf{Type: "part"}, R: expr.Lit(model.Int(0))}}
	chain := expr.And{L: expr.And{L: expr.And{
		L: expr.Cmp{Op: expr.GE, L: attr("unit", "slot"), R: attr("part", "weight")},
		R: expr.Cmp{Op: expr.GE, L: expr.CountOf{Type: "part"}, R: expr.CountOf{Type: "unit"}}},
		R: expr.Not{E: serialIs("SN-5-1-1")}},
		R: flag}

	p, err := plan.Compile(db, mt.Desc(), chain)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	for _, r := range p.Residuals {
		evals += r.Evals
	}
	if len(ms) != 64 || evals != 4096+3*64 || p.Residuals[0].Conjunct.String() != flag.String() {
		t.Fatalf("%d molecules after %d residual evaluations, want 64 after %d with the flag disjunction first:\n%s",
			len(ms), evals, 4096+3*64, p.Render())
	}
}

// TestExplainDeterministic: a plan depends on the data and its statistics
// only, never on how often or how fast it ran. The same statement over
// the same data gives a byte-equal EXPLAIN (ESTIMATE) after 0, 1 and 100
// executions while other sessions stream statements over the same
// database.
func TestExplainDeterministic(t *testing.T) {
	db, _ := assemblyDB(t, 64)
	const where = " FROM asm-unit-part WHERE COUNT(part) >= COUNT(unit) AND (part.serial = 'S-42' OR COUNT(part) < 0);"
	sess := mql.NewSession(db)
	exec := func(src string) *mql.Result {
		t.Helper()
		res, err := sess.Exec(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return res
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			other := mql.NewSession(db)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := other.Exec("SELECT ALL FROM asm-unit-part WHERE unit.slot >= 1 AND COUNT(part) >= 2;"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}()

	want := exec("EXPLAIN (ESTIMATE) SELECT ALL" + where).Message
	if !strings.Contains(want, "residual:") {
		t.Fatalf("the statement must keep a residual chain:\n%s", want)
	}
	runs := 0
	for _, after := range []int{1, 100} {
		for ; runs < after; runs++ {
			if res := exec("SELECT ALL" + where); len(res.Set) != 4 {
				t.Fatalf("run %d returned %d molecules, want 4", runs+1, len(res.Set))
			}
		}
		if got := exec("EXPLAIN (ESTIMATE) SELECT ALL" + where).Message; got != want {
			t.Fatalf("EXPLAIN after %d execution(s):\n%s\nbefore any:\n%s", runs, got, want)
		}
	}
}
