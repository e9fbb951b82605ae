package plan_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/storage"
)

// jobShopDB builds the deterministic intersection fixture: side² "job"
// roots, each linked to one "machine" (site = i%side, indexed), one
// "tool" (grade = i/side, indexed) and 16 "step" atoms. A conjunction of
// machine.site = a AND tool.grade = b selects exactly one job, but each
// single entry alone recovers side candidate roots — the configuration
// where intersecting before derivation beats any single entry.
func jobShopDB(t testing.TB, side int) (*storage.Database, *core.MoleculeType) {
	t.Helper()
	db := storage.NewDatabase()
	for _, d := range []struct {
		name  string
		attrs []model.AttrDesc
	}{
		{"job", []model.AttrDesc{{Name: "id", Kind: model.KInt}}},
		{"machine", []model.AttrDesc{{Name: "site", Kind: model.KInt}}},
		{"tool", []model.AttrDesc{{Name: "grade", Kind: model.KInt}}},
		{"step", []model.AttrDesc{{Name: "seq", Kind: model.KInt}}},
	} {
		if _, err := db.DefineAtomType(d.name, model.MustDesc(d.attrs...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct{ name, a, b string }{
		{"jm", "job", "machine"}, {"jt", "job", "tool"}, {"js", "job", "step"},
	} {
		if _, err := db.DefineLinkType(l.name, model.LinkDesc{SideA: l.a, SideB: l.b}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < side*side; i++ {
		j, err := db.InsertAtom("job", model.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := db.InsertAtom("machine", model.Int(int64(i%side)))
		if err != nil {
			t.Fatal(err)
		}
		tl, err := db.InsertAtom("tool", model.Int(int64(i/side)))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Connect("jm", j, m); err != nil {
			t.Fatal(err)
		}
		if err := db.Connect("jt", j, tl); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 16; k++ {
			s, err := db.InsertAtom("step", model.Int(int64(k)))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Connect("js", j, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, idx := range [][2]string{{"machine", "site"}, {"tool", "grade"}} {
		if err := db.CreateIndex(idx[0], idx[1]); err != nil {
			t.Fatal(err)
		}
	}
	mt, err := core.Define(db, "shop",
		[]string{"job", "machine", "tool", "step"},
		[]core.DirectedLink{
			{Link: "jm", From: "job", To: "machine"},
			{Link: "jt", From: "job", To: "tool"},
			{Link: "js", From: "job", To: "step"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return db, mt
}

// TestIndexIntersectionChosen pins the deterministic contest outcome:
// with two selective indexed equalities on different interior types and
// an expensive derivation, the planner must pick the multi-entry
// intersection, the intersection must surface in EXPLAIN with per-entry
// counts, the result must match naive Σ, and no single entry may come
// close to its logical work.
func TestIndexIntersectionChosen(t *testing.T) {
	const side = 16
	db, mt := jobShopDB(t, side)
	pred := expr.And{L: intCmp(expr.EQ, "machine", "site", 3), R: intCmp(expr.EQ, "tool", "grade", 5)}

	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if p.Access.Kind != plan.IndexIntersect {
		t.Fatalf("contest chose %v, want IndexIntersect:\n%s", p.Access.Kind, p.Render())
	}
	if len(p.Access.Entries) != 2 {
		t.Fatalf("intersection has %d entries, want 2", len(p.Access.Entries))
	}
	got, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// job 83 is the only root with site 3 AND grade 5 (83%16 == 3, 83/16 == 5).
	if len(got) != 1 {
		t.Fatalf("intersection delivered %d molecules, want 1", len(got))
	}
	if p.Access.ActSurvivors != 1 {
		t.Fatalf("ActSurvivors = %d, want 1 intersection survivor", p.Access.ActSurvivors)
	}
	for i, e := range p.Access.Entries {
		if e.ActEntries != side || e.ActRoots != side {
			t.Fatalf("entry %d actuals = %d entries / %d roots, want %d/%d", i, e.ActEntries, e.ActRoots, side, side)
		}
	}

	r := p.Render()
	for _, want := range []string{"[intersect]", "sorted-merge intersection", "1 surviving root(s)"} {
		if !strings.Contains(r, want) {
			t.Fatalf("EXPLAIN lacks %q:\n%s", want, r)
		}
	}

	if want := naiveRestrict(t, mt, pred); !sameSets(got, want) {
		t.Fatalf("intersected %d vs naive %d molecules", len(got), len(want))
	}

	// The win is logical work: every other candidate of the contest,
	// forced, must fetch at least 3× the atoms the intersection does.
	fetches := func(p *plan.Plan) int64 {
		before := db.Stats().Snapshot()
		if _, err := p.Execute(); err != nil {
			t.Fatal(err)
		}
		return db.Stats().Snapshot().Sub(before).AtomsFetched
	}
	intersected := fetches(p)
	singles := 0
	for _, alt := range p.Alternatives {
		if strings.HasPrefix(alt.Label, "intersect[") {
			continue
		}
		forced, err := plan.CompileForced(db, mt.Desc(), pred, nil, alt.Label)
		if err != nil {
			t.Fatal(err)
		}
		if single := fetches(forced); single < 3*intersected {
			t.Fatalf("forced %s fetched %d atoms vs %d for the intersection — want ≥3×", alt.Label, single, intersected)
		}
		singles++
	}
	if singles == 0 {
		t.Fatalf("the contest lists no single-entry candidate:\n%s", p.Render())
	}
}

// starDB builds a random star schema r → b0, b1, …: every branch type's
// v attribute is indexed, each root connects to a few random atoms per
// branch, so indexed equalities on two branches make the intersection
// candidate eligible.
func starDB(rng *rand.Rand, branches, atomsPerType, domain int) (*storage.Database, []string, []core.DirectedLink, error) {
	db := storage.NewDatabase()
	types := make([]string, branches+1)
	types[0] = "r"
	if _, err := db.DefineAtomType("r", model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})); err != nil {
		return nil, nil, nil, err
	}
	var edges []core.DirectedLink
	for i := 1; i <= branches; i++ {
		types[i] = fmt.Sprintf("b%d", i-1)
		if _, err := db.DefineAtomType(types[i], model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})); err != nil {
			return nil, nil, nil, err
		}
		link := fmt.Sprintf("rb%d", i-1)
		if _, err := db.DefineLinkType(link, model.LinkDesc{SideA: "r", SideB: types[i]}); err != nil {
			return nil, nil, nil, err
		}
		edges = append(edges, core.DirectedLink{Link: link, From: "r", To: types[i]})
		if err := db.CreateIndex(types[i], "v"); err != nil {
			return nil, nil, nil, err
		}
	}
	ids := make([][]model.AtomID, branches+1)
	for i, tn := range types {
		for j := 0; j < atomsPerType; j++ {
			id, err := db.InsertAtom(tn, model.Int(int64(rng.Intn(domain))))
			if err != nil {
				return nil, nil, nil, err
			}
			ids[i] = append(ids[i], id)
		}
	}
	for i := 1; i <= branches; i++ {
		link := fmt.Sprintf("rb%d", i-1)
		for _, r := range ids[0] {
			for k := 0; k < 1+rng.Intn(3); k++ {
				b := ids[i][rng.Intn(len(ids[i]))]
				if err := db.Connect(link, r, b); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	return db, types, edges, nil
}

// TestRangeEntryParity exercises the range entry paths: a histogram-
// estimated root range must become a key-bounded index range walk whose
// result matches naive Σ, and an interior range entry must stay exact
// through its pushdown hook.
func TestRangeEntryParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, types, edges, err := starDB(rng, 2, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("r", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(db, "star", types, edges)
	if err != nil {
		t.Fatal(err)
	}

	// Root BETWEEN-shaped pair: both bounds merge into one walk.
	pred := expr.Expr(expr.And{
		L: expr.Cmp{Op: expr.GE, L: expr.Attr{Type: "r", Name: "v"}, R: expr.Lit(model.Int(3))},
		R: expr.Cmp{Op: expr.LT, L: expr.Attr{Type: "r", Name: "v"}, R: expr.Lit(model.Int(6))},
	})
	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if p.Access.Kind != plan.IndexScan || !p.Access.Entries[0].Ranged {
		t.Fatalf("root range should compile to an index range walk, got:\n%s", p.Render())
	}
	if !p.Access.Entries[0].HasLo || !p.Access.Entries[0].HasHi || !p.Access.Entries[0].LoInc || p.Access.Entries[0].HiInc {
		t.Fatalf("merged bounds wrong: %+v", p.Access)
	}
	got, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveRestrict(t, mt, pred); !sameSets(got, want) {
		t.Fatalf("root range walk: plan %d vs naive %d", len(got), len(want))
	}
	if !strings.Contains(p.Render(), "index range walk") {
		t.Fatalf("EXPLAIN lacks the range walk line:\n%s", p.Render())
	}

	// Interior range: exactness must come from the pushdown hook even
	// though the walk's climb over-approximates.
	ipred := expr.Cmp{Op: expr.GE, L: expr.Attr{Type: types[1], Name: "v"}, R: expr.Lit(model.Int(15))}
	ip, err := plan.Compile(db, mt.Desc(), ipred)
	if err != nil {
		t.Fatal(err)
	}
	igot, err := ip.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveRestrict(t, mt, ipred); !sameSets(igot, want) {
		t.Fatalf("interior range: plan %d vs naive %d\n%s", len(igot), len(want), ip.Render())
	}

	// Two interior range conjuncts on one attribute are each existential
	// over the molecule's atoms: "v > 15 AND v < 3" holds through two
	// different atoms, so the entry must not walk the (empty) intersected
	// interval.
	xpred := expr.And{
		L: expr.Cmp{Op: expr.GT, L: expr.Attr{Type: types[1], Name: "v"}, R: expr.Lit(model.Int(15))},
		R: expr.Cmp{Op: expr.LT, L: expr.Attr{Type: types[1], Name: "v"}, R: expr.Lit(model.Int(3))},
	}
	xp, err := plan.Compile(db, mt.Desc(), xpred)
	if err != nil {
		t.Fatal(err)
	}
	xgot, err := xp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveRestrict(t, mt, xpred); len(want) == 0 || !sameSets(xgot, want) {
		t.Fatalf("disjoint interior ranges: plan %d vs naive %d\n%s", len(xgot), len(want), xp.Render())
	}
}

// driftDB builds a fixture whose statistics mislead the contest: 16
// "grp" roots; 128 "item" atoms tagged 'hot', each linked to every group;
// 4096 items with unique tags, one group each. The index on item.tag has
// ~4097 distinct keys over 4224 atoms, so without a histogram the uniform
// estimate for tag = 'hot' is ~2 entries — off by 64× from the actual 128.
func driftDB(t testing.TB) (*storage.Database, *core.MoleculeType) {
	t.Helper()
	db := storage.NewDatabase()
	if _, err := db.DefineAtomType("grp", model.MustDesc(model.AttrDesc{Name: "name", Kind: model.KString})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineAtomType("item", model.MustDesc(model.AttrDesc{Name: "tag", Kind: model.KString})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLinkType("gi", model.LinkDesc{SideA: "grp", SideB: "item"}); err != nil {
		t.Fatal(err)
	}
	var grps []model.AtomID
	for i := 0; i < 16; i++ {
		id, err := db.InsertAtom("grp", model.Str(fmt.Sprintf("g%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		grps = append(grps, id)
	}
	for i := 0; i < 128; i++ {
		id, err := db.InsertAtom("item", model.Str("hot"))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range grps {
			if err := db.Connect("gi", g, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4096; i++ {
		id, err := db.InsertAtom("item", model.Str(fmt.Sprintf("u%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Connect("gi", grps[i%16], id); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("item", "tag"); err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(db, "drift", []string{"grp", "item"},
		[]core.DirectedLink{{Link: "gi", From: "grp", To: "item"}})
	if err != nil {
		t.Fatal(err)
	}
	return db, mt
}
