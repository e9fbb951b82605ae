package plan_test

import (
	"context"
	"testing"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/storage"
)

// lookupDB builds 256 root atoms, each linked to one part of its own;
// root.code and part.tag are unique and indexed, so an equality on
// either names exactly one molecule.
func lookupDB(t *testing.T) (*storage.Database, *core.Desc) {
	t.Helper()
	db := storage.NewDatabase()
	for _, tn := range []string{"root", "part"} {
		if _, err := db.DefineAtomType(tn, model.MustDesc(model.AttrDesc{Name: "code", Kind: model.KInt})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.DefineLinkType("rp", model.LinkDesc{SideA: "root", SideB: "part"}); err != nil {
		t.Fatal(err)
	}
	for i := range 256 {
		r, err := db.InsertAtom("root", model.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.InsertAtom("part", model.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Connect("rp", r, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, tn := range []string{"root", "part"} {
		if err := db.CreateIndex(tn, "code"); err != nil {
			t.Fatal(err)
		}
	}
	mt, err := core.Define(db, "lookup_mt", []string{"root", "part"},
		[]core.DirectedLink{{Link: "rp", From: "root", To: "part"}})
	if err != nil {
		t.Fatal(err)
	}
	return db, mt.Desc()
}

// TestIndexLookupStreamAllocs gates the allocations of streaming a
// selective statement end to end — compile excluded, stream opened,
// drained and closed: a one-molecule statement through a root index
// equality and through an interior index equality with its upward climb,
// and an ORDER BY … LIMIT 8 riding an index. Selective statements are
// most of a serving workload, so a change to how roots reach the
// derivation workers must not cost them allocations; the bounds are the
// counts measured with the stream's consumer driving the executor, each
// batch's molecules carved from shared slabs, and the interior entry's
// prune hook compiled once per plan.
func TestIndexLookupStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	db, desc := lookupDB(t)
	lookup := func(pred expr.Expr) *plan.Plan {
		p, err := plan.Compile(db, desc, pred)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	kdb, kmt := keyedDB(t, 4096, 0)
	for _, tc := range []struct {
		name  string
		p     *plan.Plan
		kind  plan.AccessKind
		want  int
		bound float64
	}{
		{"root-index", lookup(intCmp(expr.EQ, "root", "code", 17)), plan.IndexScan, 1, 23},
		{"interior-climb", lookup(intCmp(expr.EQ, "part", "code", 17)), plan.InteriorIndex, 1, 34},
		{"ORDER BY k DESC LIMIT 8 ride", mustCompile(t, kdb, kmt, nil, &plan.OrderBy{Attr: "k", Desc: true}, 0, 8), plan.OrderedScan, 8, 32},
	} {
		p := tc.p
		if p.Access.Kind != tc.kind {
			t.Fatalf("%s: access %v, want %v\n%s", tc.name, p.Access.Kind, tc.kind, p.Render())
		}
		run := func() {
			st, err := p.Stream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				m, err := st.Next()
				if err != nil {
					t.Fatal(err)
				}
				if m == nil {
					break
				}
				n++
			}
			if err := st.Close(); err != nil || n != tc.want {
				t.Fatalf("%s: %d molecules, close %v; want %d, nil", tc.name, n, err, tc.want)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(200, run); allocs > tc.bound {
			t.Errorf("%s: %.1f allocations per statement, want ≤ %.0f", tc.name, allocs, tc.bound)
		}
	}
}

// TestCompileAllocs gates the allocations of compiling one statement per
// access path: the contest's enumeration, costing and installation of
// the chosen entry. Every statement compiles afresh, so a compile's
// allocations are paid by every selective statement a server runs; the
// bounds are the counts measured when the access paths were last
// restructured.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	db, desc := lookupDB(t)
	shop, shopMT := jobShopDB(t, 16)
	kdb, kmt := keyedDB(t, 4096, 0)
	// Each measured compile builds its predicate, as a parsed statement
	// does.
	cmp := func(op expr.CmpOp, typeName, attr string, v int64) func() expr.Expr {
		return func() expr.Expr { return intCmp(op, typeName, attr, v) }
	}
	and := func(l, r func() expr.Expr) func() expr.Expr {
		return func() expr.Expr { return expr.And{L: l(), R: r()} }
	}
	none := func() expr.Expr { return nil }
	for _, tc := range []struct {
		name  string
		db    *storage.Database
		desc  *core.Desc
		pred  func() expr.Expr
		order *plan.OrderBy
		kind  plan.AccessKind
		bound float64
	}{
		{"full scan", db, desc, none, nil, plan.FullScan, 7},
		{"root equality", db, desc, cmp(expr.EQ, "root", "code", 17), nil, plan.IndexScan, 15},
		{"root range [17, 27)", db, desc, and(cmp(expr.GE, "root", "code", 17), cmp(expr.LT, "root", "code", 27)), nil, plan.IndexScan, 32},
		{"interior equality", db, desc, cmp(expr.EQ, "part", "code", 17), nil, plan.InteriorIndex, 25},
		{"interior range part.code ≥ 250", db, desc, cmp(expr.GE, "part", "code", 250), nil, plan.InteriorIndex, 28},
		{"two-entry intersection", shop, shopMT.Desc(), and(cmp(expr.EQ, "machine", "site", 3), cmp(expr.EQ, "tool", "grade", 5)), nil, plan.IndexIntersect, 54},
		{"ORDER BY k DESC ride", kdb, kmt.Desc(), none, &plan.OrderBy{Attr: "k", Desc: true}, plan.OrderedScan, 11},
	} {
		compile := func() *plan.Plan {
			p, err := plan.CompileOrdered(tc.db, tc.desc, tc.pred(), tc.order)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		if p := compile(); p.Access.Kind != tc.kind {
			t.Fatalf("%s: access %v, want %v\n%s", tc.name, p.Access.Kind, tc.kind, p.Render())
		}
		if allocs := testing.AllocsPerRun(200, func() { compile() }); allocs > tc.bound {
			t.Errorf("%s: %.1f allocations per compile, want ≤ %.0f", tc.name, allocs, tc.bound)
		}
	}
}

// residualChain and residualGroup are the residual-filter statements
// over flaggedShop: a four-conjunct residual chain that reads unit and
// part atoms through three references to part, and the same chain's
// head under a GROUP BY. Every molecule is derived and judged; 64 in
// 4 096 pass.
const (
	residualChain = "SELECT ALL FROM asm-unit-part WHERE unit.slot >= part.weight AND COUNT(part) >= COUNT(unit) " +
		"AND NOT part.serial = 'SN-5-1-1' AND (part.serial = 'F-3' OR COUNT(part) < 0);"
	residualGroup = "SELECT COUNT FROM asm-unit-part WHERE unit.slot >= part.weight AND COUNT(part) >= COUNT(unit) " +
		"AND NOT part.serial = 'SN-5-1-1' GROUP BY bay;"
)

// residualSession is a one-worker session over flaggedShop's 4 096
// molecules, so an allocation count does not depend on the machine's
// core count.
func residualSession(tb testing.TB) *mql.Session {
	db, _ := flaggedShop(tb, 4096)
	s := mql.NewSession(db)
	if _, err := s.Exec("SET WORKERS 1;"); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestResidualAllocs gates the allocations of the residual chain, parse
// to result: compiled residuals read each component type's atoms once
// per molecule into reused scratch and compare values in place, so the
// chain allocates nothing per molecule judged: the statement's count is
// its parse, compile, scratch and result. The bound is the count measured
// when predicates were first compiled; the interpreter took 21 327, about
// five per molecule.
func TestResidualAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s := residualSession(t)
	run := func() {
		r, err := s.Exec(residualChain)
		if err != nil || len(r.Set) != 64 {
			t.Fatalf("chain: %v, %v; want 64 molecules", r, err)
		}
	}
	if allocs := testing.AllocsPerRun(5, run); allocs > 631 {
		t.Errorf("chain: %.0f allocations per statement, want ≤ 631", allocs)
	}
}
