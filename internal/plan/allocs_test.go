package plan_test

import (
	"context"
	"testing"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
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
// counts measured with the stream's consumer driving the executor.
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
		{"root-index", lookup(intCmp(expr.EQ, "root", "code", 17)), plan.IndexScan, 1, 33},
		{"interior-climb", lookup(intCmp(expr.EQ, "part", "code", 17)), plan.InteriorIndex, 1, 47},
		{"ORDER BY k DESC LIMIT 8 ride", mustCompile(t, kdb, kmt, nil, &plan.OrderBy{Attr: "k", Desc: true}, 0, 8), plan.OrderedScan, 8, 119},
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
