package core_test

import (
	"slices"
	"testing"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// diamondDB builds a database whose molecule structure is a diamond
// r → (x, y) → z: z has two incoming edges, so downward derivation takes
// the intersection of its parents' partner sets while upward recovery
// unions them — the shape where root recovery genuinely over-approximates.
func diamondDB(t *testing.T) (*storage.Database, *core.Desc) {
	t.Helper()
	db := storage.NewDatabase()
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	for _, tn := range []string{"r", "x", "y", "z"} {
		if _, err := db.DefineAtomType(tn, desc); err != nil {
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
	d, err := core.NewDesc(db, []string{"r", "x", "y", "z"}, []core.DirectedLink{
		{Link: "rx", From: "r", To: "x"},
		{Link: "ry", From: "r", To: "y"},
		{Link: "xz", From: "x", To: "z"},
		{Link: "yz", From: "y", To: "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, d
}

func mustInsert(t *testing.T, db *storage.Database, tn string, v int64) model.AtomID {
	t.Helper()
	id, err := db.InsertAtom(tn, model.Int(v))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustConnect(t *testing.T, db *storage.Database, link string, a, b model.AtomID) {
	t.Helper()
	if err := db.Connect(link, a, b); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRootsChain checks root recovery on a linear chain: every
// root reachable downward from a seed is recovered, shared interiors
// recover multiple roots, and duplicates collapse.
func TestRecoverRootsChain(t *testing.T) {
	s := sample(t)
	mt := mtState(t, s.DB)
	dv, err := mt.Deriver()
	if err != nil {
		t.Fatal(err)
	}
	desc := mt.Desc()
	edgePos, _ := desc.Pos("edge")

	// Every molecule's full edge set must recover exactly that
	// molecule's root (and possibly more that share the edges).
	set := dv.Derive()
	for _, m := range set {
		seeds := m.AtomsOf("edge")
		roots, err := dv.RecoverRoots(edgePos, seeds)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range roots {
			if r == m.Root() {
				found = true
			}
		}
		if !found {
			t.Fatalf("root %v not recovered from its own edges %v (got %v)", m.Root(), seeds, roots)
		}
		for i := 1; i < len(roots); i++ {
			if roots[i-1] >= roots[i] {
				t.Fatalf("recovered roots not strictly sorted: %v", roots)
			}
		}
	}

	// Entering at the root is the identity (after dedup + sort).
	rootPos, _ := desc.Pos("state")
	rs := set.Roots()
	rs = append(rs, rs[0]) // duplicate seed
	roots, err := dv.RecoverRoots(rootPos, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != len(set) {
		t.Fatalf("root-position recovery returned %d roots, want %d", len(roots), len(set))
	}
}

// TestRecoverRootsDiamondSuperset pins down the over-approximation: on a
// diamond, a z-atom reachable from a root along only one branch is not
// contained in the derived molecule (intersection semantics), yet upward
// recovery still returns that root — recovery is a superset, and pruned
// downward derivation is what restores exactness.
func TestRecoverRootsDiamondSuperset(t *testing.T) {
	db, d := diamondDB(t)
	r1 := mustInsert(t, db, "r", 1)
	x1 := mustInsert(t, db, "x", 1)
	y1 := mustInsert(t, db, "y", 1)
	z1 := mustInsert(t, db, "z", 1)
	// r1's molecule contains z1 through both branches.
	mustConnect(t, db, "rx", r1, x1)
	mustConnect(t, db, "ry", r1, y1)
	mustConnect(t, db, "xz", x1, z1)
	mustConnect(t, db, "yz", y1, z1)
	// r2 reaches z2 only through x: z2 is NOT contained in r2's molecule.
	r2 := mustInsert(t, db, "r", 2)
	x2 := mustInsert(t, db, "x", 2)
	z2 := mustInsert(t, db, "z", 2)
	mustConnect(t, db, "rx", r2, x2)
	mustConnect(t, db, "xz", x2, z2)

	dv, err := core.NewDeriver(db, d)
	if err != nil {
		t.Fatal(err)
	}
	zPos, _ := d.Pos("z")

	roots, err := dv.RecoverRoots(zPos, []model.AtomID{z1})
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0] != r1 {
		t.Fatalf("RecoverRoots(z1) = %v, want [%v]", roots, r1)
	}

	// z2 recovers r2 even though r2's molecule excludes z2 — the superset.
	roots, err = dv.RecoverRoots(zPos, []model.AtomID{z2})
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0] != r2 {
		t.Fatalf("RecoverRoots(z2) = %v, want [%v]", roots, r2)
	}
	m, err := dv.DeriveFor(r2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Contains("z", z2) {
		t.Fatal("fixture broken: r2's molecule must exclude z2 (single-branch reach)")
	}
	// Pruned derivation from the recovered candidate with the seeding
	// check as hook discards r2 — exactness restored.
	pc := []core.PruneCheck{{Pos: zPos, Qualifies: func(atoms []model.AtomID) bool {
		return slices.Contains(atoms, z2)
	}}}
	run := dv.DeriveStream(nil, core.RootSlice([]model.AtomID{r2}), 1, 0,
		func(int) core.FusedWorker { return core.FusedWorker{Checks: pc} })
	survivors, err := run.Next()
	run.Close()
	if survived := len(survivors); err != nil || survived != 0 {
		t.Fatalf("pruned derivation from over-approximated root: %d survived, err=%v, want pruned", survived, err)
	}

	// The climb reads the view the deriver is attached to, like the
	// derivation does: a root a transaction inserted and connected to x1
	// is recovered through the transaction's view, and only through it.
	txn := db.Begin()
	defer txn.Rollback()
	r3, err := txn.InsertAtom("r", model.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Connect("rx", r3, x1); err != nil {
		t.Fatal(err)
	}
	roots, err = dv.At(txn.View()).RecoverRoots(zPos, []model.AtomID{z1})
	if err != nil || !slices.Equal(roots, []model.AtomID{r1, r3}) {
		t.Fatalf("RecoverRoots(z1) through the transaction's view = %v, %v, want [%v %v]", roots, err, r1, r3)
	}
	if roots, _ = dv.RecoverRoots(zPos, []model.AtomID{z1}); !slices.Equal(roots, []model.AtomID{r1}) {
		t.Fatalf("RecoverRoots(z1) on the committed state = %v, want [%v]", roots, r1)
	}

	// Out-of-range position errors.
	if _, err := dv.RecoverRoots(99, nil); err == nil {
		t.Fatal("out-of-range position must fail")
	}
}

// TestDeriveStreamPrunes checks the executor's prune hooks and filter
// sink against the naive oracle — derive every root in full, keep the
// molecules with a qualifying state atom and more than one edge — for any
// worker count: same molecules, same root order.
func TestDeriveStreamPrunes(t *testing.T) {
	s := sample(t)
	mt := pointNeighborhood(t, s.DB)
	dv, err := mt.Deriver()
	if err != nil {
		t.Fatal(err)
	}
	statePos, _ := mt.Desc().Pos("state")
	c, _ := s.DB.Container("state")
	pred := expr.Cmp{Op: expr.GT, L: expr.Attr{Type: "state", Name: "hectare"}, R: expr.Lit(model.Float(500))}
	bigState := func(atoms []model.AtomID) bool {
		for _, id := range atoms {
			a, ok := c.Get(id)
			if !ok {
				continue
			}
			keep, err := expr.EvalPredicate(pred, expr.AtomBinding{TypeName: "state", Desc: c.Desc(), Atom: a})
			if err == nil && keep {
				return true
			}
		}
		return false
	}
	manyEdges := func(m *core.Molecule) bool { return len(m.AtomsOf("edge")) > 1 }

	var want core.MoleculeSet
	dv.Walk(func(m *core.Molecule) bool {
		if bigState(m.AtomsOf("state")) && manyEdges(m) {
			want = append(want, m)
		}
		return true
	})
	if len(want) == 0 || len(want) == len(dv.RootIDs()) {
		t.Fatalf("fixture broken: %d of %d molecules qualify", len(want), len(dv.RootIDs()))
	}
	for _, workers := range []int{1, 2, 8} {
		got, _, _, err := drain(t, dv.DeriveStream(nil, core.RootSlice(dv.RootIDs()), workers, 2,
			func(int) core.FusedWorker {
				return core.FusedWorker{
					Checks: []core.PruneCheck{{Pos: statePos, Qualifies: bigState}},
					Keep:   manyEdges,
				}
			}), 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d molecules, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: molecule %d differs", workers, i)
			}
		}
	}
}
