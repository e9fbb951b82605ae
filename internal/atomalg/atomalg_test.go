package atomalg_test

import (
	"testing"

	"mad/internal/atomalg"
	"mad/internal/expr"
	"mad/internal/geo"
	"mad/internal/model"
	"mad/internal/storage"
)

func sampleDB(t *testing.T) *geo.Sample {
	t.Helper()
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestProjectDedupesAndInheritsLinks(t *testing.T) {
	s := sampleDB(t)
	res, err := atomalg.Project(s.DB, "state", []string{"abbrev"}, "state_abbrevs")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := s.DB.CountAtoms(res.TypeName)
	if n != 10 { // all abbreviations distinct
		t.Fatalf("projected count = %d", n)
	}
	c, _ := s.DB.Container(res.TypeName)
	if c.Desc().Len() != 1 || c.Desc().Attr(0).Name != "abbrev" {
		t.Fatalf("projected desc = %s", c.Desc())
	}
	// state participates in state-area; the result must have inherited a
	// link type to area.
	if len(res.Inherited) != 1 {
		t.Fatalf("inherited = %v", res.Inherited)
	}
	il := res.Inherited[0]
	if il.Partner != "area" || il.From != "state-area" {
		t.Fatalf("inheritance wrong: %+v", il)
	}
	nl, _ := s.DB.CountLinks(il.Name)
	if nl != 10 {
		t.Fatalf("inherited links = %d, want 10", nl)
	}
}

func TestProjectDuplicateElimination(t *testing.T) {
	db := storage.NewDatabase()
	if _, err := db.DefineAtomType("t", model.MustDesc(
		model.AttrDesc{Name: "a", Kind: model.KInt},
		model.AttrDesc{Name: "b", Kind: model.KInt},
	)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := db.InsertAtom("t", model.Int(int64(i%2)), model.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := atomalg.Project(db, "t", []string{"a"}, "")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := db.CountAtoms(res.TypeName)
	if n != 2 {
		t.Fatalf("set semantics broken: %d atoms, want 2", n)
	}
}

func TestRestrictKeepsIdentityAndRestrictsLinks(t *testing.T) {
	s := sampleDB(t)
	pred := expr.Cmp{Op: expr.GT, L: expr.Attr{Name: "hectare"}, R: expr.Lit(model.Float(500))}
	res, err := atomalg.Restrict(s.DB, "state", pred, "big_states")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := s.DB.CountAtoms(res.TypeName)
	if n != 2 { // MG 900, BA 1000
		t.Fatalf("restricted count = %d, want 2", n)
	}
	// Identity preserved: the MG atom keeps its id.
	if !s.DB.HasAtom(res.TypeName, s.States["MG"]) {
		t.Fatal("restriction must preserve atom identity")
	}
	// Inherited link occurrence restricted to kept atoms.
	if len(res.Inherited) != 1 {
		t.Fatalf("inherited = %v", res.Inherited)
	}
	nl, _ := s.DB.CountLinks(res.Inherited[0].Name)
	if nl != 2 {
		t.Fatalf("inherited links = %d, want 2", nl)
	}
	if err := s.DB.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestRestrictRejectsBadPredicate(t *testing.T) {
	s := sampleDB(t)
	pred := expr.Cmp{Op: expr.EQ, L: expr.Attr{Name: "nosuch"}, R: expr.Lit(model.Int(1))}
	if _, err := atomalg.Restrict(s.DB, "state", pred, ""); err == nil {
		t.Fatal("unknown attribute must fail statically")
	}
}

func TestProductBorderExample(t *testing.T) {
	// The paper's example: x(area, edge) = border, all link types of both
	// operands inherited.
	s := sampleDB(t)
	na, _ := s.DB.CountAtoms("area")
	ne, _ := s.DB.CountAtoms("edge")
	res, err := atomalg.Product(s.DB, "area", "edge", "border")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := s.DB.CountAtoms("border")
	if n != na*ne {
		t.Fatalf("|border| = %d, want %d", n, na*ne)
	}
	c, _ := s.DB.Container("border")
	if c.Desc().Len() != 2 { // area.tag + edge.tag (prefixed on collision)
		t.Fatalf("border desc = %s", c.Desc())
	}
	// area has state-area and area-edge; edge has area-edge, net-edge,
	// edge-point → 5 inherited link types.
	if len(res.Inherited) != 5 {
		t.Fatalf("inherited link types = %d, want 5", len(res.Inherited))
	}
	// The paper continues: σ[hectare>1000](border) — our border carries
	// area/edge attributes; restrict on the prefixed tag instead to show
	// the pipeline composes.
	pred := expr.Cmp{Op: expr.EQ, L: expr.Attr{Name: "area.tag"}, R: expr.Lit(model.Str("a_MG"))}
	res2, err := atomalg.Restrict(s.DB, "border", pred, "")
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := s.DB.CountAtoms(res2.TypeName)
	if n2 != ne {
		t.Fatalf("restricted border = %d, want %d", n2, ne)
	}
}

func TestUnionDifferenceIdentity(t *testing.T) {
	s := sampleDB(t)
	big, err := atomalg.Restrict(s.DB, "state",
		expr.Cmp{Op: expr.GT, L: expr.Attr{Name: "hectare"}, R: expr.Lit(model.Float(300))}, "")
	if err != nil {
		t.Fatal(err)
	}
	small, err := atomalg.Restrict(s.DB, "state",
		expr.Cmp{Op: expr.LE, L: expr.Attr{Name: "hectare"}, R: expr.Lit(model.Float(300))}, "")
	if err != nil {
		t.Fatal(err)
	}
	u, err := atomalg.Union(s.DB, big.TypeName, small.TypeName, "all_states")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := s.DB.CountAtoms(u.TypeName)
	if n != 10 {
		t.Fatalf("|ω| = %d, want 10", n)
	}
	d, err := atomalg.Difference(s.DB, u.TypeName, small.TypeName, "")
	if err != nil {
		t.Fatal(err)
	}
	nd, _ := s.DB.CountAtoms(d.TypeName)
	nbig, _ := s.DB.CountAtoms(big.TypeName)
	if nd != nbig {
		t.Fatalf("|δ| = %d, want %d", nd, nbig)
	}
	// δ(x, x) = ∅.
	e, err := atomalg.Difference(s.DB, big.TypeName, big.TypeName, "")
	if err != nil {
		t.Fatal(err)
	}
	if ne, _ := s.DB.CountAtoms(e.TypeName); ne != 0 {
		t.Fatalf("δ(x,x) = %d", ne)
	}
}

func TestUnionRequiresEqualDescriptions(t *testing.T) {
	s := sampleDB(t)
	if _, err := atomalg.Union(s.DB, "state", "river", ""); err == nil {
		t.Fatal("union of different descriptions must fail")
	}
	if _, err := atomalg.Difference(s.DB, "state", "area", ""); err == nil {
		t.Fatal("difference of different descriptions must fail")
	}
}

// TestClosureTheorem1 checks that atom-type operation results are valid
// operands for further operations and the database stays consistent — the
// closure of the atom-type algebra.
func TestClosureTheorem1(t *testing.T) {
	s := sampleDB(t)
	r1, err := atomalg.Restrict(s.DB, "state",
		expr.Cmp{Op: expr.GT, L: expr.Attr{Name: "hectare"}, R: expr.Lit(model.Float(100))}, "")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := atomalg.Project(s.DB, r1.TypeName, []string{"name", "hectare"}, "")
	if err != nil {
		t.Fatalf("π over σ result failed: %v", err)
	}
	r3, err := atomalg.Restrict(s.DB, r2.TypeName,
		expr.Cmp{Op: expr.LT, L: expr.Attr{Name: "hectare"}, R: expr.Lit(model.Float(950))}, "")
	if err != nil {
		t.Fatalf("σ over π result failed: %v", err)
	}
	if n, _ := s.DB.CountAtoms(r3.TypeName); n == 0 {
		t.Fatal("pipeline lost all atoms")
	}
	if err := s.DB.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after pipeline: %v", err)
	}
}

func TestReflexiveInheritance(t *testing.T) {
	db := storage.NewDatabase()
	if _, err := db.DefineAtomType("parts", model.MustDesc(
		model.AttrDesc{Name: "name", Kind: model.KString},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLinkType("composition", model.LinkDesc{SideA: "parts", SideB: "parts"}); err != nil {
		t.Fatal(err)
	}
	a, _ := db.InsertAtom("parts", model.Str("engine"))
	b, _ := db.InsertAtom("parts", model.Str("piston"))
	c, _ := db.InsertAtom("parts", model.Str("ring"))
	if err := db.Connect("composition", a, b); err != nil {
		t.Fatal(err)
	}
	if err := db.Connect("composition", b, c); err != nil {
		t.Fatal(err)
	}
	res, err := atomalg.Restrict(db, "parts",
		expr.Cmp{Op: expr.NE, L: expr.Attr{Name: "name"}, R: expr.Lit(model.Str("ring"))}, "")
	if err != nil {
		t.Fatal(err)
	}
	// Reflexive link type inherits per side: two inherited link types.
	if len(res.Inherited) != 2 {
		t.Fatalf("inherited = %d, want 2 (both roles)", len(res.Inherited))
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestEachOperatorIsOneCommit: every operator of Definition 4 enlarges
// the database in exactly one commit, and one that fails part-way — a
// predicate dividing by zero — leaves neither a commit nor a type behind.
func TestEachOperatorIsOneCommit(t *testing.T) {
	s := sampleDB(t)
	db := s.DB
	big, err := atomalg.Restrict(db, "state",
		expr.Cmp{Op: expr.GT, L: expr.Attr{Name: "hectare"}, R: expr.Lit(model.Float(300))}, "")
	if err != nil {
		t.Fatal(err)
	}
	small, err := atomalg.Restrict(db, "state",
		expr.Cmp{Op: expr.LE, L: expr.Attr{Name: "hectare"}, R: expr.Lit(model.Float(300))}, "")
	if err != nil {
		t.Fatal(err)
	}
	gt := func(v float64) expr.Expr {
		return expr.Cmp{Op: expr.GT, L: expr.Attr{Name: "hectare"}, R: expr.Lit(model.Float(v))}
	}
	for _, c := range []struct {
		name string
		run  func() (*atomalg.Result, error)
	}{
		{"π", func() (*atomalg.Result, error) { return atomalg.Project(db, "state", []string{"abbrev"}, "") }},
		{"σ", func() (*atomalg.Result, error) { return atomalg.Restrict(db, "state", gt(500), "") }},
		{"×", func() (*atomalg.Result, error) { return atomalg.Product(db, "state", "area", "") }},
		{"ω", func() (*atomalg.Result, error) { return atomalg.Union(db, big.TypeName, small.TypeName, "") }},
		{"δ", func() (*atomalg.Result, error) { return atomalg.Difference(db, "state", small.TypeName, "") }},
	} {
		ts := db.LatestTS()
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := db.LatestTS() - ts; got != 1 {
			t.Fatalf("%s took %d commits, want 1", c.name, got)
		}
		if n, _ := db.CountAtoms(res.TypeName); n == 0 {
			t.Fatalf("%s: empty result", c.name)
		}
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	ts, schema := db.LatestTS(), db.Schema().Render()
	byZero := expr.Cmp{Op: expr.GT, L: expr.Arith{Op: expr.Div, L: expr.Attr{Name: "hectare"}, R: expr.Lit(model.Float(0))},
		R: expr.Lit(model.Float(1))}
	if _, err := atomalg.Restrict(db, "state", byZero, ""); err == nil {
		t.Fatal("a predicate dividing by zero succeeded")
	}
	if db.LatestTS() != ts || db.Schema().Render() != schema {
		t.Fatalf("the failed σ committed (LatestTS %d → %d) or left types:\n%s", ts, db.LatestTS(), db.Schema().Render())
	}
}
