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

// layeredDB generates a random database with a layered schema
// t0 → t1 → … → t_{depth} (one link type per layer) plus a skip link
// t0 → t2 when depth permits, random atoms (attribute v drawn from a
// small domain so equality predicates hit and miss) and random links.
func layeredDB(rng *rand.Rand, depth, atomsPerType int) (*storage.Database, []string, []core.DirectedLink, error) {
	db := storage.NewDatabase()
	types := make([]string, depth+1)
	for i := range types {
		types[i] = fmt.Sprintf("t%d", i)
		desc := model.MustDesc(
			model.AttrDesc{Name: "v", Kind: model.KInt},
			model.AttrDesc{Name: "w", Kind: model.KFloat},
		)
		if _, err := db.DefineAtomType(types[i], desc); err != nil {
			return nil, nil, nil, err
		}
	}
	var edges []core.DirectedLink
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("l%d", i)
		if _, err := db.DefineLinkType(name, model.LinkDesc{SideA: types[i], SideB: types[i+1]}); err != nil {
			return nil, nil, nil, err
		}
		edges = append(edges, core.DirectedLink{Link: name, From: types[i], To: types[i+1]})
	}
	if depth >= 2 {
		if _, err := db.DefineLinkType("skip", model.LinkDesc{SideA: types[0], SideB: types[2]}); err != nil {
			return nil, nil, nil, err
		}
		edges = append(edges, core.DirectedLink{Link: "skip", From: types[0], To: types[2]})
	}
	ids := make([][]model.AtomID, len(types))
	for i, t := range types {
		for j := 0; j < atomsPerType; j++ {
			id, err := db.InsertAtom(t, model.Int(int64(rng.Intn(4))), model.Float(rng.Float64()*100))
			if err != nil {
				return nil, nil, nil, err
			}
			ids[i] = append(ids[i], id)
		}
	}
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("l%d", i)
		for _, a := range ids[i] {
			for k := 0; k < 2; k++ {
				b := ids[i+1][rng.Intn(len(ids[i+1]))]
				if err := db.Connect(name, a, b); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	if depth >= 2 {
		for _, a := range ids[0] {
			if rng.Intn(2) == 0 {
				b := ids[2][rng.Intn(len(ids[2]))]
				if err := db.Connect("skip", a, b); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	return db, types, edges, nil
}

// naiveRestrict is the specification the planner must match: derive the
// full occurrence, keep the molecules fulfilling the predicate.
func naiveRestrict(t *testing.T, mt *core.MoleculeType, pred expr.Expr) core.MoleculeSet {
	t.Helper()
	dv, err := mt.Deriver()
	if err != nil {
		t.Fatal(err)
	}
	var out core.MoleculeSet
	var evalErr error
	dv.Walk(func(m *core.Molecule) bool {
		keep, err := expr.EvalPredicate(pred, core.Binding{DB: mt.DB(), M: m})
		if err != nil {
			evalErr = err
			return false
		}
		if keep {
			out = append(out, m)
		}
		return true
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	return out
}

func sameSets(a, b core.MoleculeSet) bool {
	if len(a) != len(b) {
		return false
	}
	keys := make(map[string]bool, len(a))
	for _, m := range a {
		keys[m.Key()] = true
	}
	for _, m := range b {
		if !keys[m.Key()] {
			return false
		}
	}
	return true
}

// fixture builds a deterministic three-layer database for the targeted
// planner tests: 8 roots, each root's subtree reaching layer-2 atoms
// whose v-attribute makes pushdown selective.
func fixture(t *testing.T) (*storage.Database, *core.MoleculeType) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	db, types, edges, err := layeredDB(rng, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(db, "fix", types, edges)
	if err != nil {
		t.Fatal(err)
	}
	return db, mt
}

func TestCompileChoosesIndexScan(t *testing.T) {
	db, mt := fixture(t)
	if err := db.CreateIndex("t0", "v"); err != nil {
		t.Fatal(err)
	}
	pred := expr.And{
		L: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "t0", Name: "v"}, R: expr.Lit(model.Int(1))},
		R: expr.Cmp{Op: expr.GT, L: expr.Attr{Type: "t0", Name: "w"}, R: expr.Lit(model.Float(-1))},
	}
	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if p.Access.Kind != plan.IndexScan || p.Access.Entries[0].Attr != "v" {
		t.Fatalf("access = %+v, want index scan on v", p.Access)
	}
	if p.Access.Filter == nil {
		t.Fatal("the non-indexed root conjunct must become the root filter")
	}
	n, _ := db.CountAtoms("t0")
	if p.Access.EstRoots <= 0 || p.Access.EstRoots > n {
		t.Fatalf("EstRoots = %d, want within (0, %d]", p.Access.EstRoots, n)
	}
}

func TestCompileClassifiesPushdownAndResidual(t *testing.T) {
	db, mt := fixture(t)
	pred := expr.And{
		L: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "t2", Name: "v"}, R: expr.Lit(model.Int(2))},
		R: expr.Cmp{Op: expr.LE, L: expr.Attr{Type: "t0", Name: "w"}, R: expr.Attr{Type: "t1", Name: "w"}},
	}
	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pushdowns) != 1 || p.Pushdowns[0].Type != "t2" {
		t.Fatalf("pushdowns = %+v, want one at t2", p.Pushdowns)
	}
	if p.Residual == nil {
		t.Fatal("the multi-type conjunct must stay residual")
	}
	if p.Access.Kind != plan.FullScan {
		t.Fatalf("access = %+v, want full scan", p.Access)
	}
}

func TestPushdownCutsTraversal(t *testing.T) {
	db, mt := fixture(t)
	// A t1-level equality that disqualifies most molecules: pruned
	// derivations must traverse strictly fewer links than naive Σ.
	pred := expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "t1", Name: "v"}, R: expr.Lit(model.Int(3))}

	db.Stats().Reset()
	want := naiveRestrict(t, mt, pred)
	naiveWork := db.Stats().Snapshot()

	db.Stats().Reset()
	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	planWork := db.Stats().Snapshot()

	if !sameSets(got, want) {
		t.Fatalf("plan %d molecules, naive %d", len(got), len(want))
	}
	cut := 0
	for _, pd := range p.Pushdowns {
		cut += pd.Cut
	}
	if cut == 0 {
		t.Skip("predicate did not prune on this fixture")
	}
	if planWork.LinksTraversed >= naiveWork.LinksTraversed {
		t.Fatalf("pushdown traversed %d links, naive %d — no cut",
			planWork.LinksTraversed, naiveWork.LinksTraversed)
	}
}

// TestSameTypeConjunctsBothApply guards the prune-hook composition: two
// pushable conjuncts on the same non-root type must each aggregate
// existentially over the full component set (∃v=0 AND ∃v=1 is not
// ∃(v=0 AND v=1)), and neither may be dropped.
func TestSameTypeConjunctsBothApply(t *testing.T) {
	db := storage.NewDatabase()
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	for _, tn := range []string{"r", "c"} {
		if _, err := db.DefineAtomType(tn, desc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.DefineLinkType("rc", model.LinkDesc{SideA: "r", SideB: "c"}); err != nil {
		t.Fatal(err)
	}
	// Root 1 reaches c-atoms {0, 1}: satisfies both conjuncts.
	// Root 2 reaches only {1}: satisfies one conjunct, must be cut.
	r1, err := db.InsertAtom("r", model.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.InsertAtom("r", model.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	c0, err := db.InsertAtom("c", model.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := db.InsertAtom("c", model.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct{ a, b model.AtomID }{{r1, c0}, {r1, c1}, {r2, c1}} {
		if err := db.Connect("rc", l.a, l.b); err != nil {
			t.Fatal(err)
		}
	}
	mt, err := core.Define(db, "rc", []string{"r", "c"},
		[]core.DirectedLink{{Link: "rc", From: "r", To: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	eq := func(k int64) expr.Expr {
		return expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "c", Name: "v"}, R: expr.Lit(model.Int(k))}
	}
	pred := expr.And{L: eq(0), R: eq(1)}

	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pushdowns) != 2 {
		t.Fatalf("pushdowns = %+v, want both conjuncts at c", p.Pushdowns)
	}
	got, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := naiveRestrict(t, mt, pred)
	if !sameSets(got, want) {
		t.Fatalf("plan %d molecules, naive %d — a same-type conjunct was dropped", len(got), len(want))
	}
	if len(got) != 1 || got[0].Root() != r1 {
		t.Fatalf("result = %v, want exactly the molecule at r1", got.Roots())
	}
}

// assemblyDB builds the symmetric-access-path fixture: a three-level
// asm → unit → part chain where part.serial is unique except for a few
// flagged parts, so an index on it is genuinely selective while the root
// type offers nothing to index.
func assemblyDB(t *testing.T, assemblies int) (*storage.Database, *core.MoleculeType) {
	t.Helper()
	db := storage.NewDatabase()
	for _, at := range []struct {
		name  string
		attrs []model.AttrDesc
	}{
		{"asm", []model.AttrDesc{{Name: "code", Kind: model.KString}}},
		{"unit", []model.AttrDesc{{Name: "slot", Kind: model.KInt}}},
		{"part", []model.AttrDesc{{Name: "serial", Kind: model.KString}}},
	} {
		if _, err := db.DefineAtomType(at.name, model.MustDesc(at.attrs...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, lt := range []struct{ name, a, b string }{
		{"asm-unit", "asm", "unit"}, {"unit-part", "unit", "part"},
	} {
		if _, err := db.DefineLinkType(lt.name, model.LinkDesc{SideA: lt.a, SideB: lt.b}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < assemblies; i++ {
		aid, err := db.InsertAtom("asm", model.Str(fmt.Sprintf("A%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 3; u++ {
			uid, err := db.InsertAtom("unit", model.Int(int64(u)))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Connect("asm-unit", aid, uid); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				serial := fmt.Sprintf("SN-%d-%d-%d", i, u, k)
				if u == 0 && k == 0 && i%16 == 0 {
					serial = "S-42"
				}
				pid, err := db.InsertAtom("part", model.Str(serial))
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Connect("unit-part", uid, pid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	mt, err := core.Define(db, "assembly", []string{"asm", "unit", "part"},
		[]core.DirectedLink{
			{Link: "asm-unit", From: "asm", To: "unit"},
			{Link: "unit-part", From: "unit", To: "part"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return db, mt
}

// TestCompileChoosesInteriorIndex pins the tentpole behavior: with a
// selective index on a mid-structure attribute and nothing to index at
// the root, the planner enters the structure at the interior type, keeps
// the entry conjunct as a pushdown hook, records the losing
// alternatives, and the executed plan equals naive Σ on far less work.
func TestCompileChoosesInteriorIndex(t *testing.T) {
	db, mt := assemblyDB(t, 64)
	if err := db.CreateIndex("part", "serial"); err != nil {
		t.Fatal(err)
	}
	pred := expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "part", Name: "serial"}, R: expr.Lit(model.Str("S-42"))}

	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if p.Access.Kind != plan.InteriorIndex {
		t.Fatalf("access = %+v, want interior-index entry\n%s", p.Access, p.Render())
	}
	if p.Access.Entries[0].Type != "part" || p.Access.Entries[0].Attr != "serial" {
		t.Fatalf("entry = %s.%s, want part.serial", p.Access.Entries[0].Type, p.Access.Entries[0].Attr)
	}
	if len(p.Pushdowns) != 1 || p.Pushdowns[0].Type != "part" {
		t.Fatalf("the entry conjunct must stay on as a pushdown hook: %+v", p.Pushdowns)
	}
	if len(p.Alternatives) < 2 {
		t.Fatalf("alternatives = %+v, want at least full scan and interior-index", p.Alternatives)
	}
	chosen := 0
	for _, a := range p.Alternatives {
		if a.Chosen {
			chosen++
		}
	}
	if chosen != 1 {
		t.Fatalf("exactly one alternative must be chosen: %+v", p.Alternatives)
	}

	db.Stats().Reset()
	want := naiveRestrict(t, mt, pred)
	naiveWork := db.Stats().Snapshot()
	db.Stats().Reset()
	got, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	planWork := db.Stats().Snapshot()
	if !sameSets(got, want) {
		t.Fatalf("interior plan %d molecules, naive %d\n%s", len(got), len(want), p.Render())
	}
	if planWork.AtomsFetched >= naiveWork.AtomsFetched {
		t.Fatalf("interior entry fetched %d atoms, root scan %d — no win",
			planWork.AtomsFetched, naiveWork.AtomsFetched)
	}
	if p.Access.Entries[0].ActEntries == 0 || p.Access.ActRoots == 0 {
		t.Fatalf("actuals not filled: %+v", p.Access)
	}

	out := p.Render()
	for _, wantLine := range []string{"[interior-index]", "recover roots upward part ⇡ unit ⇡ asm", "considered:", "← chosen"} {
		if !strings.Contains(out, wantLine) {
			t.Fatalf("render missing %q:\n%s", wantLine, out)
		}
	}
}

// TestInteriorDiamondEquivalence drives the interior entry through a
// multi-parent (diamond) structure, where upward recovery genuinely
// over-approximates: the pushdown hook must discard the recovered roots
// whose molecules exclude every matching seed.
func TestInteriorDiamondEquivalence(t *testing.T) {
	db := storage.NewDatabase()
	vdesc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	for _, tn := range []string{"r", "x", "y", "z"} {
		if _, err := db.DefineAtomType(tn, vdesc); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct{ name, a, b string }{
		{"rx", "r", "x"}, {"ry", "r", "y"}, {"xz", "x", "z"}, {"yz", "y", "z"},
	} {
		if _, err := db.DefineLinkType(l.name, model.LinkDesc{SideA: l.a, SideB: l.b}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	var rs, xs, ys, zs []model.AtomID
	insert := func(tn string, out *[]model.AtomID) {
		id, err := db.InsertAtom(tn, model.Int(int64(rng.Intn(6))))
		if err != nil {
			t.Fatal(err)
		}
		*out = append(*out, id)
	}
	for i := 0; i < 24; i++ {
		insert("r", &rs)
		insert("x", &xs)
		insert("y", &ys)
		insert("z", &zs)
	}
	connect := func(link string, as, bs []model.AtomID, n int) {
		for _, a := range as {
			for k := 0; k < n; k++ {
				if err := db.Connect(link, a, bs[rng.Intn(len(bs))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	connect("rx", rs, xs, 2)
	connect("ry", rs, ys, 2)
	connect("xz", xs, zs, 2)
	connect("yz", ys, zs, 2)
	if err := db.CreateIndex("z", "v"); err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(db, "diamond", []string{"r", "x", "y", "z"},
		[]core.DirectedLink{
			{Link: "rx", From: "r", To: "x"},
			{Link: "ry", From: "r", To: "y"},
			{Link: "xz", From: "x", To: "z"},
			{Link: "yz", From: "y", To: "z"},
		})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 6; v++ {
		pred := expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "z", Name: "v"}, R: expr.Lit(model.Int(v))}
		p, err := plan.Compile(db, mt.Desc(), pred)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		want := naiveRestrict(t, mt, pred)
		if !sameSets(got, want) {
			t.Fatalf("v=%d: plan (%v access) %d molecules, naive %d\n%s",
				v, p.Access.Kind, len(got), len(want), p.Render())
		}
	}
}

// TestExecuteParallelMatchesSequential drives plan.Execute through the
// worker pool (Workers > 1 over a root batch large enough to fan out)
// and checks result set, order and every EXPLAIN actual against the
// forced-sequential execution of the same plan.
func TestExecuteParallelMatchesSequential(t *testing.T) {
	db, mt := assemblyDB(t, 200)
	// A pushdown conjunct that cuts most molecules plus a residual that
	// thins the rest, so all actuals are exercised.
	pred := expr.And{
		L: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "part", Name: "serial"}, R: expr.Lit(model.Str("S-42"))},
		R: expr.Cmp{Op: expr.GE, L: expr.CountOf{Type: "unit"}, R: expr.Lit(model.Int(1))},
	}
	seq, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	seq.Workers = 1
	wantSet, err := seq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	par, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	par.Workers = 4
	gotSet, err := par.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSet) != len(wantSet) {
		t.Fatalf("parallel %d molecules, sequential %d", len(gotSet), len(wantSet))
	}
	for i := range gotSet {
		if !gotSet[i].Equal(wantSet[i]) {
			t.Fatalf("molecule %d differs between parallel and sequential execution (order must match)", i)
		}
	}
	if par.Access.ActRoots != seq.Access.ActRoots || par.Derived != seq.Derived || par.Out != seq.Out {
		t.Fatalf("actuals differ: parallel roots/derived/out %d/%d/%d, sequential %d/%d/%d",
			par.Access.ActRoots, par.Derived, par.Out, seq.Access.ActRoots, seq.Derived, seq.Out)
	}
	for i := range par.Pushdowns {
		if par.Pushdowns[i].Cut != seq.Pushdowns[i].Cut {
			t.Fatalf("pushdown %d cut %d parallel vs %d sequential", i, par.Pushdowns[i].Cut, seq.Pushdowns[i].Cut)
		}
	}
	for i := range par.Residuals {
		if par.Residuals[i].Evals != seq.Residuals[i].Evals || par.Residuals[i].Passed != seq.Residuals[i].Passed {
			t.Fatalf("residual %d actuals differ", i)
		}
	}
}

func TestRenderShowsCardinalities(t *testing.T) {
	db, mt := fixture(t)
	if err := db.CreateIndex("t0", "v"); err != nil {
		t.Fatal(err)
	}
	pred := expr.And{
		L: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "t0", Name: "v"}, R: expr.Lit(model.Int(1))},
		R: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "t2", Name: "v"}, R: expr.Lit(model.Int(0))},
	}
	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	out := p.Render()
	for _, want := range []string{
		"index lookup t0.v",
		"est ≈",
		"actual",
		"pushdown:  Σ↓[t2.v = 0] at t2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
