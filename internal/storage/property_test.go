package storage_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mad/internal/model"
	"mad/internal/storage"
)

// world is the map-based model the View and applyOp properties compare
// the storage layer against: the values of a txnDB's "n" atoms and its
// reflexive "e" links as stored.
type world struct {
	atoms map[model.AtomID]int64
	links map[model.Link]bool
	gone  []model.AtomID // deleted identifiers, probed for absence
}

func newWorld() *world {
	return &world{atoms: map[model.AtomID]int64{}, links: map[model.Link]bool{}}
}

func (w *world) clone() *world {
	return &world{atoms: maps.Clone(w.atoms), links: maps.Clone(w.links), gone: slices.Clone(w.gone)}
}

func (w *world) ids() []model.AtomID {
	return slices.Sorted(maps.Keys(w.atoms))
}

// op is one mutation, valid in the world it was drawn from.
type op struct {
	kind byte // 'i'nsert, 'u'pdate, 'd'elete, 'c'onnect, 'x' disconnect
	a, b model.AtomID
	v    int64
}

// draw picks a random operation valid in w; values come from a small
// domain so index postings collide, and a link may be a self-loop.
func (w *world) draw(rng *rand.Rand) op {
	ids := w.ids()
	pick := func() model.AtomID { return ids[rng.Intn(len(ids))] }
	v := int64(rng.Intn(4))
	switch r := rng.Intn(10); {
	case len(ids) < 2 || r < 3:
		return op{kind: 'i', v: v}
	case r < 5:
		return op{kind: 'u', a: pick(), v: v}
	case r < 6:
		return op{kind: 'd', a: pick()}
	case r < 9:
		return op{kind: 'c', a: pick(), b: pick()}
	}
	return op{kind: 'x', a: pick(), b: pick()}
}

// writer is what an op is issued against: the database (one auto-commit
// each) or a transaction (buffered).
type writer interface {
	InsertAtom(string, ...model.Value) (model.AtomID, error)
	AdoptAtom(string, model.Atom) error
	UpdateAtom(string, model.AtomID, []model.Value) error
	Connect(string, model.AtomID, model.AtomID) error
	Disconnect(string, model.AtomID, model.AtomID) (bool, error)
}

// defineTypes issues one schema step against wr: atom type x<k>, link
// type y<k> from n to it, atom a (value v) adopted into x<k> and linked to
// itself through y<k> — a transaction's buffered DDL, or four
// auto-commits.
func defineTypes(wr writer, k int, a model.AtomID, v int64) error {
	x, y := fmt.Sprintf("x%d", k), fmt.Sprintf("y%d", k)
	desc, link := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt}), model.LinkDesc{SideA: "n", SideB: x}
	var err error
	if txn, ok := wr.(*storage.Txn); ok {
		if err = txn.DefineAtomType(x, desc); err == nil {
			err = txn.DefineLinkType(y, link)
		}
	} else if _, err = wr.(*storage.Database).DefineAtomType(x, desc); err == nil {
		_, err = wr.(*storage.Database).DefineLinkType(y, link)
	}
	if err == nil {
		err = wr.AdoptAtom(x, model.NewAtom(a, model.Int(v)))
	}
	if err == nil {
		err = wr.Connect(y, a, a)
	}
	return err
}

// catalogOf renders the schema with every atom type's number.
func catalogOf(db *storage.Database) string {
	out := db.Schema().Render()
	for _, at := range db.Schema().AtomTypes() {
		out += fmt.Sprintf("%s=%d ", at.Name, at.Num)
	}
	return out
}

// issue runs o against wr and folds it into the model.
func (w *world) issue(wr writer, o op) error {
	var err error
	switch o.kind {
	case 'i':
		if o.a, err = wr.InsertAtom("n", model.Int(o.v)); err == nil {
			w.atoms[o.a] = o.v
		}
	case 'u':
		err = wr.UpdateAtom("n", o.a, []model.Value{model.Int(o.v)})
		w.atoms[o.a] = o.v
	case 'd':
		if db, ok := wr.(*storage.Database); ok {
			_, err = db.DeleteAtom("n", o.a)
		} else {
			err = wr.(*storage.Txn).DeleteAtom("n", o.a)
		}
		delete(w.atoms, o.a)
		maps.DeleteFunc(w.links, func(l model.Link, _ bool) bool { return l.A == o.a || l.B == o.a })
		w.gone = append(w.gone, o.a)
	case 'c':
		err = wr.Connect("e", o.a, o.b)
		if !w.links[model.Link{A: o.b, B: o.a}] { // reflexive: <b, a> is the same link
			w.links[model.Link{A: o.a, B: o.b}] = true
		}
	case 'x':
		var removed bool
		removed, err = wr.Disconnect("e", o.a, o.b)
		if had := w.links[model.Link{A: o.a, B: o.b}] || w.links[model.Link{A: o.b, B: o.a}]; err == nil && removed != had {
			err = fmt.Errorf("disconnect reported %v, model %v", removed, had)
		}
		delete(w.links, model.Link{A: o.a, B: o.b})
		delete(w.links, model.Link{A: o.b, B: o.a})
	}
	if err != nil {
		return fmt.Errorf("%c(%v, %v, %d): %w", o.kind, o.a, o.b, o.v, err)
	}
	return nil
}

// mismatch compares everything a View can be asked — Atom, Has, IDs,
// Partners in both directions, IndexLookup on n.v — with the model;
// overlay marks a view carrying buffered writes, which has no index.
func (w *world) mismatch(db *storage.Database, v storage.View, overlay bool) error {
	c, _ := db.Container("n")
	ls, _ := db.LinkStore("e")
	if got := v.IDs(c); !slices.Equal(got, w.ids()) {
		return fmt.Errorf("IDs = %v, model %v", got, w.ids())
	}
	for _, id := range w.gone {
		if _, ok := v.Atom(c, id); ok || v.Has(c, id) {
			return fmt.Errorf("deleted atom %v visible", id)
		}
	}
	byVal := map[int64][]model.AtomID{}
	for _, id := range w.ids() {
		a, ok := v.Atom(c, id)
		if got, _ := a.Get(0).AsInt(); !ok || !v.Has(c, id) || got != w.atoms[id] {
			return fmt.Errorf("Atom(%v) = %v, %v; model %d", id, a, ok, w.atoms[id])
		}
		byVal[w.atoms[id]] = append(byVal[w.atoms[id]], id)
		for _, fromA := range []bool{true, false} {
			var want []model.AtomID
			for l := range w.links {
				if fromA && l.A == id {
					want = append(want, l.B)
				} else if !fromA && l.B == id {
					want = append(want, l.A)
				}
			}
			got := slices.Clone(v.Partners(ls, id, fromA))
			if slices.Sort(got); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
				return fmt.Errorf("Partners(%v, fromA=%v) = %v, model %v", id, fromA, got, want)
			}
		}
	}
	atoms, ok := v.Atoms(c, append(w.ids(), w.gone...), nil)
	if ok == (len(w.gone) > 0) || len(atoms) != len(w.ids()) {
		return fmt.Errorf("Atoms stopped after %d of %d live atoms, ok=%v", len(atoms), len(w.ids()), ok)
	}
	for k, id := range w.ids() {
		if got, _ := atoms[k].Get(0).AsInt(); atoms[k].ID != id || got != w.atoms[id] {
			return fmt.Errorf("Atoms[%d] = %v, model %v = %d", k, atoms[k], id, w.atoms[id])
		}
	}
	for val := int64(0); val < 4; val++ {
		got, ok := v.IndexLookup("n", "v", model.Int(val))
		if ok == overlay || !overlay && !slices.Equal(got, byVal[val]) {
			return fmt.Errorf("IndexLookup(v=%d) = %v, %v; model %v (overlay %v)", val, got, ok, byVal[val], overlay)
		}
	}
	return nil
}

// indexedTxnDB is txnDB's schema, with an index on n.v, declared on db.
func indexedTxnDB(t *testing.T, db *storage.Database) *storage.Database {
	t.Helper()
	if err := txnSchema(t, db).CreateIndex("n", "v"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestViewProperty is the one test of "which occurrence does a read see":
// a random history of auto-commits and multi-op transactions, a snapshot
// pinned in the middle of it, and finally an open transaction holding
// buffered inserts, updates, deletes, connects and disconnects while one
// more commit lands beside it. The latest view, the pinned snapshot and the
// transaction's effective view must each answer exactly as their model —
// before and after a vacuum pass, which may reclaim nothing a view needs.
func TestViewProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := indexedTxnDB(t, storage.NewDatabase())
		w := newWorld()
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		var pinned *storage.Snapshot
		var frozen *world
		for step := 0; step < 60; step++ {
			if step == 30 {
				pinned, frozen = db.Snapshot(), w.clone()
			}
			if rng.Intn(3) > 0 {
				must(w.issue(db, w.draw(rng)))
				continue
			}
			txn := db.Begin()
			for k := 1 + rng.Intn(4); k > 0; k-- {
				must(w.issue(txn, w.draw(rng)))
			}
			must(txn.Commit())
		}
		txn, buffered := db.Begin(), w.clone()
		for k := 0; k < 12; k++ {
			must(buffered.issue(txn, buffered.draw(rng)))
		}
		must(w.issue(db, w.draw(rng)))
		for _, pass := range []string{"", " after vacuum"} {
			for _, c := range []struct {
				name string
				view storage.View
				want *world
			}{{"latest", db.View(0), w}, {"snapshot", pinned.View, frozen}, {"transaction", txn.View(), buffered}} {
				if err := c.want.mismatch(db, c.view, c.name == "transaction"); err != nil {
					t.Fatalf("seed %d, %s view%s: %v", seed, c.name, pass, err)
				}
			}
			db.Vacuum()
		}
		must(txn.Rollback())
		pinned.Close()
	}
}

// TestApplyOpProperty is the one test of "how does a write become a
// version": the same random operation sequence — data ops and, every ten
// steps, a schema step — issued as auto-commits, as one multi-op
// transaction, and as auto-commits to a durable database that is then
// closed and recovered from its log must leave identical atoms, links,
// index postings, catalogs and type numbers — the model's — and an
// integral database each time. A commit that fails after its DDL op
// changes neither the catalog nor the next type number.
func TestApplyOpProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		durable, err := storage.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		auto, batch := indexedTxnDB(t, storage.NewDatabase()), indexedTxnDB(t, storage.NewDatabase())
		indexedTxnDB(t, durable)
		txn := batch.Begin()
		w := newWorld()
		for step := 0; step < 50; step++ {
			if ids := w.ids(); step%10 == 9 && len(ids) > 0 {
				a := ids[rng.Intn(len(ids))]
				for _, wr := range []writer{durable, txn, auto} {
					if err := defineTypes(wr, step, a, w.atoms[a]); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
				}
				continue
			}
			o, before := w.draw(rng), w
			// Identifiers are issued in the same order everywhere, so one op
			// names the same atoms in all three databases.
			for _, wr := range []writer{durable, txn, auto} {
				w = before.clone()
				if err := w.issue(wr, o); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := durable.Close(); err != nil {
			t.Fatal(err)
		}
		recovered, err := storage.Recover(dir)
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		for name, db := range map[string]*storage.Database{"auto-commit": auto, "one transaction": batch, "recovered": recovered} {
			if err := w.mismatch(db, db.View(0), false); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			if err := db.CheckIntegrity(); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			ls, _ := db.LinkStore("e")
			if got := ls.Links(); len(got) != len(w.links) || slices.ContainsFunc(got, func(l model.Link) bool { return !w.links[l] }) {
				t.Fatalf("seed %d, %s: links %v, model %v", seed, name, got, w.links)
			}
			if got, want := catalogOf(db), catalogOf(auto); got != want {
				t.Fatalf("seed %d, %s: catalog\n%s\nauto-commit\n%s", seed, name, got, want)
			}
			if !bytes.Equal(snapshot(t, db), snapshot(t, auto)) {
				t.Fatalf("seed %d, %s: occurrences of the defined types differ from auto-commit", seed, name)
			}
		}
	}

	// The commit fails at an update of an atom a concurrent commit deleted,
	// after its two type definitions applied: their undo restores the
	// catalog, and the number x0 drew (2) stays a hole, so the type defined
	// next is number 3 live and after recovery.
	dir := t.TempDir()
	db, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	txnSchema(t, db)
	id, err := db.InsertAtom("n", model.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	before := catalogOf(db)
	txn := db.Begin()
	if err := defineTypes(txn, 0, id, 1); err != nil {
		t.Fatal(err)
	}
	if err := txn.UpdateAtom("n", id, []model.Value{model.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteAtom("n", id); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("commit of an update to a concurrently deleted atom succeeded")
	}
	if got := catalogOf(db); got != before || db.Schema().HasName("x0") || db.Schema().HasName("y0") {
		t.Fatalf("failed commit left its types behind:\n%s\nwant\n%s", got, before)
	}
	after, err := db.DefineAtomType("after", model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt}))
	if err != nil || after.Num != 3 {
		t.Fatalf("type defined after the failed commit: %+v, %v (want number 3)", after, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := storage.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := catalogOf(rec), catalogOf(db); got != want {
		t.Fatalf("recovered catalog\n%s\nlive\n%s", got, want)
	}
}
