package core_test

import (
	"strings"
	"testing"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/geo"
	"mad/internal/model"
	"mad/internal/storage"
)

// mtState defines the Fig. 2 molecule type
// mt_state = α[mt_state, {<state-area,state,area>, <area-edge,area,edge>,
// <edge-point,edge,point>}](state, area, edge, point).
func mtState(t *testing.T, db *storage.Database) *core.MoleculeType {
	t.Helper()
	mt, err := core.Define(db, "mt_state",
		[]string{"state", "area", "edge", "point"},
		[]core.DirectedLink{
			{Link: "state-area", From: "state", To: "area"},
			{Link: "area-edge", From: "area", To: "edge"},
			{Link: "edge-point", From: "edge", To: "point"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// pointNeighborhood defines the Fig. 2 structure
// point-edge-(area-state, net-river) — the symmetric use of the links.
func pointNeighborhood(t *testing.T, db *storage.Database) *core.MoleculeType {
	t.Helper()
	mt, err := core.Define(db, "point-neighborhood",
		[]string{"point", "edge", "area", "state", "net", "river"},
		[]core.DirectedLink{
			{Link: "edge-point", From: "point", To: "edge"},
			{Link: "area-edge", From: "edge", To: "area"},
			{Link: "state-area", From: "area", To: "state"},
			{Link: "net-edge", From: "edge", To: "net"},
			{Link: "river-net", From: "net", To: "river"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

func sample(t *testing.T) *geo.Sample {
	t.Helper()
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDescValidation(t *testing.T) {
	s := sample(t)
	db := s.DB
	// Unknown atom type.
	if _, err := core.NewDesc(db, []string{"nosuch"}, nil); err == nil {
		t.Fatal("unknown type must fail")
	}
	// Unknown link type.
	if _, err := core.NewDesc(db, []string{"state", "area"},
		[]core.DirectedLink{{Link: "nosuch", From: "state", To: "area"}}); err == nil {
		t.Fatal("unknown link must fail")
	}
	// Wrong sides.
	if _, err := core.NewDesc(db, []string{"state", "edge"},
		[]core.DirectedLink{{Link: "state-area", From: "state", To: "edge"}}); err == nil {
		t.Fatal("side mismatch must fail")
	}
	// Incoherent (no edges between two types).
	if _, err := core.NewDesc(db, []string{"state", "river"}, nil); err == nil {
		t.Fatal("incoherent graph must fail")
	}
	// Duplicate type in C.
	if _, err := core.NewDesc(db, []string{"state", "state"}, nil); err == nil {
		t.Fatal("C is a set: duplicates must fail")
	}
	// Two roots: state→area and edge→point without connection.
	if _, err := core.NewDesc(db, []string{"state", "area", "edge", "point"},
		[]core.DirectedLink{
			{Link: "state-area", From: "state", To: "area"},
			{Link: "edge-point", From: "edge", To: "point"},
		}); err == nil {
		t.Fatal("two roots must fail")
	}
	// Valid.
	d, err := core.NewDesc(db, []string{"state", "area"},
		[]core.DirectedLink{{Link: "state-area", From: "state", To: "area"}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Root() != "state" {
		t.Fatalf("root = %q", d.Root())
	}
}

func TestDescRejectsCycle(t *testing.T) {
	s := sample(t)
	// area→edge→area is a cycle over two nodes using the same link type
	// twice — C is a set, so model it with both directions of area-edge.
	if _, err := core.NewDesc(s.DB, []string{"area", "edge"},
		[]core.DirectedLink{
			{Link: "area-edge", From: "area", To: "edge"},
			{Link: "area-edge", From: "edge", To: "area"},
		}); err == nil {
		t.Fatal("cyclic description must fail")
	}
}

func TestMtStateDerivation(t *testing.T) {
	s := sample(t)
	mt := mtState(t, s.DB)
	set, err := mt.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 10 {
		t.Fatalf("|mv| = %d, want 10 (one per state)", len(set))
	}
	if err := core.VerifySet(s.DB, set); err != nil {
		t.Fatal(err)
	}
	// Every molecule has exactly one state (the root) and one area.
	for _, m := range set {
		if len(m.AtomsOf("state")) != 1 {
			t.Fatalf("state count = %d", len(m.AtomsOf("state")))
		}
		if len(m.AtomsOf("area")) != 1 {
			t.Fatalf("area count = %d", len(m.AtomsOf("area")))
		}
		if len(m.AtomsOf("edge")) == 0 || len(m.AtomsOf("point")) == 0 {
			t.Fatal("states must have border edges and points")
		}
	}
	// Neighbouring states share border edges: the molecule set has
	// non-disjoint atom sets (Fig. 2's central claim).
	shared := set.SharedAtoms()
	if len(shared) == 0 {
		t.Fatal("expected shared subobjects between neighbouring states")
	}
	if set.DistinctAtoms() >= set.TotalAtoms() {
		t.Fatal("sharing must make distinct < total")
	}
}

func TestPointNeighborhoodSymmetricUse(t *testing.T) {
	s := sample(t)
	mt := pointNeighborhood(t, s.DB)
	dv, err := mt.Deriver()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dv.DeriveFor(s.PN)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyMolecule(s.DB, m); err != nil {
		t.Fatal(err)
	}
	// Fig. 2: the pn neighborhood reaches the states SP, MS, MG, GO and
	// the river Parana.
	gotStates := make(map[string]bool)
	for _, id := range m.AtomsOf("state") {
		a, _ := s.DB.GetAtom("state", id)
		ab, _ := a.Get(1).AsString()
		gotStates[ab] = true
	}
	for _, want := range []string{"SP", "MS", "MG", "GO"} {
		if !gotStates[want] {
			t.Errorf("state %s missing from point neighborhood: %v", want, gotStates)
		}
	}
	if len(gotStates) != 4 {
		t.Errorf("states = %v, want exactly {SP, MS, MG, GO}", gotStates)
	}
	rivers := m.AtomsOf("river")
	if len(rivers) != 1 {
		t.Fatalf("rivers = %d, want 1 (Parana)", len(rivers))
	}
	a, _ := s.DB.GetAtom("river", rivers[0])
	if name, _ := a.Get(0).AsString(); name != "Parana" {
		t.Fatalf("river = %s, want Parana", name)
	}
	// Formatting marks nothing shared within a single tree path but must
	// at least render the root.
	out := m.Format(s.DB)
	if !strings.Contains(out, `"pn"`) {
		t.Fatalf("Format output missing root: %s", out)
	}
}

func TestDerivationDeterministic(t *testing.T) {
	s := sample(t)
	mt := mtState(t, s.DB)
	a, err := mt.Derive()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mt.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic cardinality")
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("molecule %d differs between derivations", i)
		}
		if !a[i].Equal(b[i]) {
			t.Fatalf("molecule %d not Equal between derivations", i)
		}
	}
}

func TestRestrictionAndClosure(t *testing.T) {
	s := sample(t)
	mt := pointNeighborhood(t, s.DB)
	tr := &core.OpTrace{}
	pred := expr.Cmp{Op: expr.EQ,
		L: expr.Attr{Type: "point", Name: "name"},
		R: expr.Lit(model.Str("pn"))}
	res, err := core.Restrict(mt, pred, "pn_hood", tr)
	if err != nil {
		t.Fatal(err)
	}
	set, err := res.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("|Σ result| = %d, want 1", len(set))
	}
	if set[0].Root() != s.PN {
		t.Fatal("result rooted at wrong atom")
	}
	// Theorem 2: the result is a valid molecule type over the enlarged DB.
	if err := core.VerifySet(s.DB, set); err != nil {
		t.Fatalf("closure violated: %v", err)
	}
	// Fig. 5 anatomy: op-specific action, prop, α.
	var names []string
	for _, p := range tr.Phases {
		names = append(names, p.Name)
	}
	joined := strings.Join(names, ";")
	if !strings.Contains(joined, "restriction") || !strings.Contains(joined, "propagation") || !strings.Contains(joined, "definition") {
		t.Fatalf("trace phases = %v", names)
	}
	// The propagated occurrence re-derives to exactly the result set.
	rsv := core.MoleculeSet{set[0]}
	eq, err := core.EquivalentOccurrence(res, rsv)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("prop equivalence (Definition 9) violated")
	}
}

func TestRestrictionResultReusable(t *testing.T) {
	// Closure in action: feed a Σ result into another Σ.
	s := sample(t)
	mt := mtState(t, s.DB)
	big, err := core.Restrict(mt, expr.Cmp{Op: expr.GT,
		L: expr.Attr{Type: "state", Name: "hectare"},
		R: expr.Lit(model.Float(200))}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Count molecules with hectare > 200 by hand.
	want := 0
	for _, sd := range []float64{900, 1000, 340, 357, 46, 43, 248, 199, 95, 281} {
		if sd > 200 {
			want++
		}
	}
	if n, _ := big.Cardinality(); n != want {
		t.Fatalf("first Σ: %d molecules, want %d", n, want)
	}
	root := big.Desc().Root()
	huge, err := core.Restrict(big, expr.Cmp{Op: expr.GT,
		L: expr.Attr{Type: root, Name: "hectare"},
		R: expr.Lit(model.Float(500))}, "", nil)
	if err != nil {
		t.Fatalf("Σ over Σ result failed (closure broken): %v", err)
	}
	if n, _ := huge.Cardinality(); n != 2 { // MG 900, BA 1000
		t.Fatalf("second Σ: %d molecules, want 2", n)
	}
	set, err := huge.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySet(s.DB, set); err != nil {
		t.Fatal(err)
	}
}

func TestProjection(t *testing.T) {
	s := sample(t)
	mt := mtState(t, s.DB)
	res, err := core.Project(mt, core.Projection{
		Keep:  []string{"state", "area"},
		Attrs: map[string][]string{"state": {"name"}},
	}, "state_area", nil)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Desc()
	if d.NumTypes() != 2 || d.NumEdges() != 1 {
		t.Fatalf("projected structure = %s", d)
	}
	set, err := res.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 10 {
		t.Fatalf("|Π result| = %d", len(set))
	}
	if err := core.VerifySet(s.DB, set); err != nil {
		t.Fatal(err)
	}
	// The propagated state type carries only the name attribute.
	c, ok := s.DB.Container(d.Root())
	if !ok {
		t.Fatal("missing propagated root container")
	}
	if c.Desc().Len() != 1 || c.Desc().Attr(0).Name != "name" {
		t.Fatalf("projected root desc = %s", c.Desc())
	}
	// Projection must keep the root.
	if _, err := core.Project(mt, core.Projection{Keep: []string{"area", "edge"}}, "", nil); err == nil {
		t.Fatal("dropping the root must fail")
	}
	// Projection must keep coherence.
	if _, err := core.Project(mt, core.Projection{Keep: []string{"state", "edge"}}, "", nil); err == nil {
		t.Fatal("incoherent projection must fail")
	}
}

// TestProductIsOneCommit: X defines its pair-root type and mints the
// pair atoms in it inside its one transaction — one commit in all.
func TestProductIsOneCommit(t *testing.T) {
	s := sample(t)
	sa, err := core.Define(s.DB, "sa", []string{"state", "area"},
		[]core.DirectedLink{{Link: "state-area", From: "state", To: "area"}})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := core.Define(s.DB, "rn", []string{"river", "net"},
		[]core.DirectedLink{{Link: "river-net", From: "river", To: "net"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := s.DB.LatestTS()
	prod, err := core.Product(sa, rn, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DB.LatestTS() - ts; got != 1 {
		t.Fatalf("X took %d commits, want 1", got)
	}
	root, _ := s.DB.Schema().AtomType(prod.Desc().Root())
	n := 0
	s.DB.ScanAtoms(root.Name, func(a model.Atom) bool {
		if a.ID.TypeNum() != root.Num {
			t.Fatalf("pair atom %v not numbered in %s (%d)", a.ID, root.Name, root.Num)
		}
		n++
		return true
	})
	if n != 10*3 {
		t.Fatalf("%d pair atoms, want 30", n)
	}
}

func TestProduct(t *testing.T) {
	s := sample(t)
	stateArea, err := core.Define(s.DB, "sa", []string{"state", "area"},
		[]core.DirectedLink{{Link: "state-area", From: "state", To: "area"}})
	if err != nil {
		t.Fatal(err)
	}
	riverNet, err := core.Define(s.DB, "rn", []string{"river", "net"},
		[]core.DirectedLink{{Link: "river-net", From: "river", To: "net"}})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := core.Product(stateArea, riverNet, "sa_x_rn", nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := prod.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10*3 {
		t.Fatalf("|X| = %d, want 30", n)
	}
	set, err := prod.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySet(s.DB, set); err != nil {
		t.Fatal(err)
	}
	// Each pair molecule contains one state and one river.
	for _, m := range set {
		d := m.Desc()
		types := d.Types()
		// pair root + 2 + 2 component types
		if len(types) != 5 {
			t.Fatalf("pair structure types = %v", types)
		}
		if m.Size() != 5 {
			t.Fatalf("pair molecule size = %d, want 5", m.Size())
		}
	}
}

func TestUnionDifferenceIntersection(t *testing.T) {
	s := sample(t)
	mt := mtState(t, s.DB)
	big, err := core.Restrict(mt, expr.Cmp{Op: expr.GT,
		L: expr.Attr{Type: "state", Name: "hectare"}, R: expr.Lit(model.Float(300))}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	small, err := core.Restrict(mt, expr.Cmp{Op: expr.LE,
		L: expr.Attr{Type: "state", Name: "hectare"}, R: expr.Lit(model.Float(300))}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	nBig, _ := big.Cardinality()
	nSmall, _ := small.Cardinality()
	if nBig+nSmall != 10 {
		t.Fatalf("partition broken: %d + %d", nBig, nSmall)
	}

	// Ω(big, small) = all 10.
	u, err := core.Union(big, small, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := u.Cardinality(); n != 10 {
		t.Fatalf("|Ω| = %d, want 10", n)
	}
	uset, err := u.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySet(s.DB, uset); err != nil {
		t.Fatal(err)
	}

	// Ω(big, big) = big (idempotent).
	uu, err := core.Union(big, big, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := uu.Cardinality(); n != nBig {
		t.Fatalf("Ω idempotence broken: %d vs %d", n, nBig)
	}

	// Δ(union, small) = big.
	diff, err := core.Difference(u, rebindLike(t, u, small), "", nil)
	if err == nil {
		n, _ := diff.Cardinality()
		if n != nBig {
			t.Fatalf("|Δ| = %d, want %d", n, nBig)
		}
	} else {
		// union and small have different (propagated) descriptions of the
		// same shape; compatible() accepts shape equality, so this must
		// not error.
		t.Fatalf("Δ over same-shape operands failed: %v", err)
	}

	// Δ(big, big) = ∅.
	empty, err := core.Difference(big, big, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := empty.Cardinality(); n != 0 {
		t.Fatalf("Δ(x,x) = %d molecules, want 0", n)
	}

	// Ψ(union, big) = big (Ψ = Δ(a, Δ(a,b))).
	inter, err := core.Intersect(u, big, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := inter.Cardinality(); n != nBig {
		t.Fatalf("|Ψ| = %d, want %d", n, nBig)
	}
}

// rebindLike just documents intent; Δ accepts same-shape operands.
func rebindLike(t *testing.T, _, b *core.MoleculeType) *core.MoleculeType {
	t.Helper()
	return b
}

func TestMultiParentANDSemantics(t *testing.T) {
	// Diamond: r → a, r → b, a → c, b → c. The contained predicate demands
	// a linked parent for EVERY incoming directed link type, so a c-atom
	// joins only when reached from both an a-parent and a b-parent.
	db := storage.NewDatabase()
	for _, name := range []string{"r", "a", "b", "c"} {
		if _, err := db.DefineAtomType(name, model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})); err != nil {
			t.Fatal(err)
		}
	}
	mustLink := func(name, x, y string) {
		t.Helper()
		if _, err := db.DefineLinkType(name, model.LinkDesc{SideA: x, SideB: y}); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("ra", "r", "a")
	mustLink("rb", "r", "b")
	mustLink("ac", "a", "c")
	mustLink("bc", "b", "c")
	r, _ := db.InsertAtom("r", model.Int(0))
	a1, _ := db.InsertAtom("a", model.Int(1))
	b1, _ := db.InsertAtom("b", model.Int(2))
	cBoth, _ := db.InsertAtom("c", model.Int(3))  // linked from a and b
	cOnlyA, _ := db.InsertAtom("c", model.Int(4)) // linked from a only
	for _, c := range []struct {
		lt   string
		x, y model.AtomID
	}{{"ra", r, a1}, {"rb", r, b1}, {"ac", a1, cBoth}, {"bc", b1, cBoth}, {"ac", a1, cOnlyA}} {
		if err := db.Connect(c.lt, c.x, c.y); err != nil {
			t.Fatal(err)
		}
	}
	mt, err := core.Define(db, "diamond", []string{"r", "a", "b", "c"},
		[]core.DirectedLink{
			{Link: "ra", From: "r", To: "a"},
			{Link: "rb", From: "r", To: "b"},
			{Link: "ac", From: "a", To: "c"},
			{Link: "bc", From: "b", To: "c"},
		})
	if err != nil {
		t.Fatal(err)
	}
	set, err := mt.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("|mv| = %d", len(set))
	}
	m := set[0]
	cs := m.AtomsOf("c")
	if len(cs) != 1 || cs[0] != cBoth {
		t.Fatalf("c components = %v, want only %v (AND semantics)", cs, cBoth)
	}
	if m.Contains("c", cOnlyA) {
		t.Fatal("cOnlyA must be excluded: it lacks a b-parent")
	}
	if err := core.VerifyMolecule(db, m); err != nil {
		t.Fatal(err)
	}
}

func TestMoleculeBindingSemantics(t *testing.T) {
	s := sample(t)
	mt := mtState(t, s.DB)
	set, err := mt.Derive()
	if err != nil {
		t.Fatal(err)
	}
	m := set[0]
	b := core.Binding{DB: s.DB, M: m}
	// Qualified reference yields one value per component atom.
	vals, err := b.Resolve("point", "name")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(m.AtomsOf("point")) {
		t.Fatalf("point.name values = %d", len(vals))
	}
	// Unqualified unique attribute resolves.
	if _, err := b.Resolve("", "hectare"); err != nil {
		t.Fatalf("unqualified hectare: %v", err)
	}
	// Ambiguous unqualified attribute errors (name is on state and point).
	if _, err := b.Resolve("", "name"); err == nil {
		t.Fatal("ambiguous attribute must fail")
	}
	// Out-of-structure type errors.
	if _, err := b.Resolve("river", "name"); err == nil {
		t.Fatal("river is not part of mt_state")
	}
	// COUNT and EXISTS through expressions.
	cnt, err := expr.CountOf{Type: "edge"}.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := cnt[0].AsInt(); int(n) != len(m.AtomsOf("edge")) {
		t.Fatal("COUNT(edge) wrong")
	}
	ok, err := expr.EvalPredicate(expr.Exists{Type: "point"}, b)
	if err != nil || !ok {
		t.Fatal("EXISTS(point) must hold")
	}
}

func TestTraceAnatomy(t *testing.T) {
	s := sample(t)
	mt := mtState(t, s.DB)
	tr := &core.OpTrace{}
	if _, err := core.Restrict(mt, nil, "", tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Phases) < 3 {
		t.Fatalf("expected ≥3 phases (Fig. 5), got %d: %s", len(tr.Phases), tr)
	}
	if tr.Phases[0].Name != "restriction (op-specific)" {
		t.Fatalf("phase order: %v", tr.Phases[0].Name)
	}
	if !strings.Contains(tr.String(), "propagation") {
		t.Fatal("trace rendering incomplete")
	}
}
