package core_test

import (
	"slices"
	"testing"

	"mad/internal/core"
	"mad/internal/model"
	"mad/internal/storage"
)

// closureDeriver builds roots disjoint part trees of size atoms each —
// atom i of a tree is the parent of atoms 2i+1 and 2i+2 — and returns the
// deriver of the full sub-component closure and the trees' roots.
func closureDeriver(tb testing.TB, roots, size int) (*core.Deriver, []model.AtomID) {
	tb.Helper()
	db := storage.NewDatabase()
	if _, err := db.DefineAtomType("p", model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.DefineLinkType("sub", model.LinkDesc{SideA: "p", SideB: "p"}); err != nil {
		tb.Fatal(err)
	}
	tree := make([]model.AtomID, size)
	var top []model.AtomID
	for range roots {
		for i := range tree {
			id, err := db.InsertAtom("p", model.Int(int64(i)))
			if err != nil {
				tb.Fatal(err)
			}
			tree[i] = id
			if i == 0 {
				top = append(top, id)
			} else {
				if err := db.Connect("sub", tree[(i-1)/2], id); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	d, err := core.NewClosureDesc(db, "p", "sub", false, 0)
	if err != nil {
		tb.Fatal(err)
	}
	dv, err := core.NewDeriver(db, d)
	if err != nil {
		tb.Fatal(err)
	}
	return dv, top
}

// structureDeriver builds roots molecules of the 3-level structure r-m-l,
// each root with fan m children and each m with fan l children, and
// returns the structure's deriver and its roots.
func structureDeriver(tb testing.TB, roots, fan int) (*core.Deriver, []model.AtomID) {
	tb.Helper()
	db := storage.NewDatabase()
	for _, tn := range []string{"r", "m", "l"} {
		if _, err := db.DefineAtomType(tn, model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})); err != nil {
			tb.Fatal(err)
		}
	}
	for _, l := range [][3]string{{"rm", "r", "m"}, {"ml", "m", "l"}} {
		if _, err := db.DefineLinkType(l[0], model.LinkDesc{SideA: l[1], SideB: l[2]}); err != nil {
			tb.Fatal(err)
		}
	}
	insert := func(tn string, parent model.AtomID, link string) model.AtomID {
		id, err := db.InsertAtom(tn, model.Int(0))
		if err != nil {
			tb.Fatal(err)
		}
		if link != "" {
			if err := db.Connect(link, parent, id); err != nil {
				tb.Fatal(err)
			}
		}
		return id
	}
	for range roots {
		r := insert("r", 0, "")
		for range fan {
			m := insert("m", r, "rm")
			for range fan {
				insert("l", m, "ml")
			}
		}
	}
	d, err := core.NewDesc(db, []string{"r", "m", "l"}, []core.DirectedLink{
		{Link: "rm", From: "r", To: "m"}, {Link: "ml", From: "m", To: "l"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	dv, err := core.NewDeriver(db, d)
	if err != nil {
		tb.Fatal(err)
	}
	return dv, dv.RootIDs()
}

// deriveAll streams the molecules of roots through one worker in batches
// of size and returns how many were delivered.
func deriveAll(dv *core.Deriver, roots []model.AtomID, size int) int {
	run := dv.DeriveStream(nil, core.RootSlice(roots), 1, size, passThrough)
	defer run.Close()
	n := 0
	for {
		batch, err := run.Next()
		if err != nil || len(batch) == 0 {
			return n
		}
		n += len(batch)
	}
}

// TestDeriveAllocs gates what a delivered molecule costs in allocations:
// the same whatever its size, and less than one — the worker builds every
// molecule in its reused scratch and a batch's survivors share their
// slabs. It counts the batches after the first, which grows the scratch;
// a map or a grown slice per molecule makes the count depend on the
// molecule's size.
func TestDeriveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const size = 8
	perMolecule := func(dv *core.Deriver, roots []model.AtomID) float64 {
		run := dv.DeriveStream(nil, core.RootSlice(roots), 1, size, passThrough)
		defer run.Close()
		// AllocsPerRun pulls one more batch than it counts, first.
		return testing.AllocsPerRun(len(roots)/size-1, func() {
			if batch, err := run.Next(); err != nil || len(batch) != size {
				t.Fatalf("batch of %d molecules, %v; want %d", len(batch), err, size)
			}
		}) / size
	}
	for _, tc := range []struct {
		name       string
		build      func(testing.TB, int, int) (*core.Deriver, []model.AtomID)
		small, big int
	}{
		{"closure of 64 vs 1 024 atoms", closureDeriver, 64, 1024},
		{"3 levels, 4 vs 16 children", structureDeriver, 4, 16},
	} {
		small, big := perMolecule(tc.build(t, 64, tc.small)), perMolecule(tc.build(t, 64, tc.big))
		if small != big || big >= 1 {
			t.Errorf("%s: %.4f vs %.4f allocations per delivered molecule; want equal and below one", tc.name, small, big)
		}
	}
}

// TestSlabAliasing checks that the molecules sharing a batch's slabs
// cannot reach each other: over a two-worker stream, appending to a
// delivered molecule's atom or link slices leaves every other molecule of
// its batch and of the next batch as it was. The closures outgrow the
// spare room a worker starts a molecule in, and must arrive whole.
func TestSlabAliasing(t *testing.T) {
	structure, sroots := structureDeriver(t, 48, 3)
	closure, croots := closureDeriver(t, 8, 1024)
	for _, tc := range []struct {
		dv    *core.Deriver
		roots []model.AtomID
		size  int
		check func(*core.Molecule) bool
	}{
		{structure, sroots, 8, func(m *core.Molecule) bool { return m.Size() == 13 && m.NumLinks() == 12 }},
		{closure, croots, 2, func(m *core.Molecule) bool {
			return m.Size() == 1024 && m.NumLinks() == 1023 && len(m.Levels()) == 11 && len(m.AtomSet()) == 1024
		}},
	} {
		batches := streamBatches(t, tc.dv, tc.roots, tc.size)
		if want := len(tc.roots) / tc.size; len(batches) != want {
			t.Fatalf("%d batches, want %d", len(batches), want)
		}
		for b, batch := range batches {
			var seen core.MoleculeSet
			for _, next := range batches[b:min(b+2, len(batches))] {
				seen = append(seen, next...)
			}
			wantAtoms := make([][]model.AtomID, len(seen))
			wantLinks := make([][]model.Link, len(seen))
			for i, m := range seen {
				if !tc.check(m) {
					t.Fatalf("molecule of root %v: %d atoms, %d links, %d levels", m.Root(), m.Size(), m.NumLinks(), len(m.Levels()))
				}
				wantAtoms[i], wantLinks[i] = content(m)
			}
			for _, m := range batch {
				for pos := range m.Desc().NumTypes() {
					_ = append(m.AtomsAt(pos), 0)
				}
				for e := range m.Desc().NumEdges() {
					_ = append(m.LinksAt(e), model.Link{})
				}
			}
			for i, m := range seen {
				atoms, links := content(m)
				if !slices.Equal(atoms, wantAtoms[i]) || !slices.Equal(links, wantLinks[i]) {
					t.Fatalf("batch %d: appending to its molecules changed molecule %d (root %v)", b, i, m.Root())
				}
			}
		}
	}
}

// streamBatches collects the batches of a two-worker stream over roots.
func streamBatches(t *testing.T, dv *core.Deriver, roots []model.AtomID, size int) []core.MoleculeSet {
	t.Helper()
	run := dv.DeriveStream(nil, core.RootSlice(roots), 2, size, passThrough)
	defer run.Close()
	var batches []core.MoleculeSet
	for {
		batch, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			return batches
		}
		batches = append(batches, batch)
	}
}

// content copies every atom and link of a molecule out of its slab.
func content(m *core.Molecule) (atoms []model.AtomID, links []model.Link) {
	for pos := range m.Desc().NumTypes() {
		atoms = append(atoms, m.AtomsAt(pos)...)
	}
	for e := range m.Desc().NumEdges() {
		links = append(links, m.LinksAt(e)...)
	}
	return atoms, links
}

// BenchmarkDeriveClosure derives 64 closures of 1 024 atoms each on one
// worker.
func BenchmarkDeriveClosure(b *testing.B) {
	dv, roots := closureDeriver(b, 64, 1024)
	benchmarkDerive(b, dv, roots)
}

// BenchmarkDeriveStructure derives 256 molecules of a 3-level structure
// with 8 children per parent (73 atoms each) on one worker.
func BenchmarkDeriveStructure(b *testing.B) {
	dv, roots := structureDeriver(b, 256, 8)
	benchmarkDerive(b, dv, roots)
}

func benchmarkDerive(b *testing.B, dv *core.Deriver, roots []model.AtomID) {
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if n := deriveAll(dv, roots, 0); n != len(roots) {
			b.Fatalf("%d molecules, want %d", n, len(roots))
		}
	}
}
