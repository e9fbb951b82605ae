package core_test

import (
	"testing"

	"mad/internal/core"
	"mad/internal/model"
	"mad/internal/storage"
)

// workOf returns the logical work fn books in db's shared statistics.
func workOf(db *storage.Database, fn func()) storage.WorkTally {
	s := db.Stats()
	af, lt := s.AtomsFetched.Load(), s.LinksTraversed.Load()
	fn()
	return storage.WorkTally{AtomsFetched: s.AtomsFetched.Load() - af, LinksTraversed: s.LinksTraversed.Load() - lt}
}

// collectorWork builds a diamond structure r-(x, y)-z, where z's two
// parents intersect, and a closure over a diamond-shaped reflexive link
// type, and returns the two derivers.
func collectorWork(t *testing.T) (*storage.Database, *core.Deriver, *core.Deriver) {
	t.Helper()
	db := storage.NewDatabase()
	ids := map[string]model.AtomID{}
	for _, tn := range []string{"r", "x", "y", "z", "p"} {
		if _, err := db.DefineAtomType(tn, model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []string{"r1", "r2", "x1", "x2", "y1", "z1", "z2", "z3", "p1", "p2", "p3", "p4"} {
		id, err := db.InsertAtom(a[:1], model.Int(int64(len(ids))))
		if err != nil {
			t.Fatal(err)
		}
		ids[a] = id
	}
	for _, l := range [][3]string{
		{"rx", "r", "x"}, {"ry", "r", "y"}, {"xz", "x", "z"}, {"yz", "y", "z"}, {"sub", "p", "p"},
	} {
		if _, err := db.DefineLinkType(l[0], model.LinkDesc{SideA: l[1], SideB: l[2]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range [][3]string{
		{"rx", "r1", "x1"}, {"ry", "r1", "y1"}, {"xz", "x1", "z1"}, {"xz", "x1", "z2"}, {"yz", "y1", "z1"},
		{"rx", "r2", "x2"}, {"xz", "x2", "z3"},
		{"sub", "p1", "p2"}, {"sub", "p1", "p3"}, {"sub", "p2", "p4"}, {"sub", "p3", "p4"},
	} {
		if err := db.Connect(c[0], ids[c[1]], ids[c[2]]); err != nil {
			t.Fatal(err)
		}
	}
	diamond, err := core.NewDesc(db, []string{"r", "x", "y", "z"}, []core.DirectedLink{
		{Link: "rx", From: "r", To: "x"}, {Link: "ry", From: "r", To: "y"},
		{Link: "xz", From: "x", To: "z"}, {Link: "yz", From: "y", To: "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	closure, err := core.NewClosureDesc(db, "p", "sub", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	dvDiamond, err := core.NewDeriver(db, diamond)
	if err != nil {
		t.Fatal(err)
	}
	dvClosure, err := core.NewDeriver(db, closure)
	if err != nil {
		t.Fatal(err)
	}
	return db, dvDiamond, dvClosure
}

// TestCollectorWork pins the logical work the collectors book, computed
// by hand. A derivation fetches each contained atom once and, per type,
// reads every contained parent's partner list along every incoming edge
// twice — once to intersect the candidates, once to record them — each
// read costing its partners plus one; a closure reads each reached
// atom's partners once.
//
// Diamond: r1 fetches r1, x1, y1, z1 (z2 fails the y-side) and reads
// r1→x 2+2, r1→y 2+2, x1→z 3+3, y1→z 2+2 = 18; r2 fetches r2, x2 (z3
// has no y-parent) and reads r2→x 2+2, r2→y 1+1, x2→z 2+2 = 10.
// Closure p1→(p2, p3)→p4: p1 reaches 4 atoms reading 3+2+2+1 = 8, p2
// and p3 each 2 atoms reading 2+1 = 3, p4 itself reading 1.
func TestCollectorWork(t *testing.T) {
	db, diamond, closure := collectorWork(t)
	for _, tc := range []struct {
		name string
		dv   *core.Deriver
		want storage.WorkTally
	}{
		{"diamond", diamond, storage.WorkTally{AtomsFetched: 6, LinksTraversed: 28}},
		{"closure", closure, storage.WorkTally{AtomsFetched: 9, LinksTraversed: 15}},
	} {
		if got := workOf(db, func() { tc.dv.Derive() }); got != tc.want {
			t.Errorf("%s: Derive booked %+v, want %+v", tc.name, got, tc.want)
		}
		if got := workOf(db, func() {
			if _, err := tc.dv.DeriveRoots(tc.dv.RootIDs()); err != nil {
				t.Fatal(err)
			}
		}); got != tc.want {
			t.Errorf("%s: DeriveRoots booked %+v, want %+v", tc.name, got, tc.want)
		}
		if got := workOf(db, func() { tc.dv.Walk(func(*core.Molecule) bool { return true }) }); got != tc.want {
			t.Errorf("%s: Walk booked %+v, want %+v", tc.name, got, tc.want)
		}
	}

	// A walk stopped after k molecules derives nothing past them: it
	// books exactly those k molecules' atoms.
	for k, want := range []int64{4, 6, 8} {
		n := 0
		got := workOf(db, func() {
			closure.Walk(func(*core.Molecule) bool { n++; return n <= k })
		})
		if got.AtomsFetched != want || n != k+1 {
			t.Errorf("walk stopped at molecule %d: %d atoms fetched over %d molecules, want %d over %d",
				k+1, got.AtomsFetched, n, want, k+1)
		}
	}
}

// TestDeriveRootsNotRoot: a root outside the root type's occurrence fails
// the whole call, naming the atom and the root type, and returns no set.
func TestDeriveRootsNotRoot(t *testing.T) {
	_, diamond, _ := collectorWork(t)
	roots := diamond.RootIDs()
	bad := model.AtomID(999)
	set, err := diamond.DeriveRoots([]model.AtomID{roots[0], bad, roots[1]})
	if want := `core: atom ` + bad.String() + ` is not in root type "r"`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if set != nil {
		t.Fatalf("failed DeriveRoots returned %d molecules, want none", len(set))
	}
	if _, err := diamond.DeriveFor(bad); err == nil {
		t.Fatal("DeriveFor of a non-root atom must fail")
	}
}
