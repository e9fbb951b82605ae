package storage_test

// Save and Load over databases built above the storage layer: the
// paper's geography sample and what propagation adds to it.

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"mad/internal/core"
	"mad/internal/geo"
	"mad/internal/model"
	"mad/internal/storage"
)

// roundTrip saves db to a file and loads it back.
func roundTrip(t testing.TB, db *storage.Database) *storage.Database {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.mad")
	if err := storage.Save(db, path); err != nil {
		t.Fatal(err)
	}
	back, err := storage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// equalDatabases compares schema object counts, atom contents and link
// contents of two databases.
func equalDatabases(t *testing.T, a, b *storage.Database) {
	t.Helper()
	if a.Schema().NumAtomTypes() != b.Schema().NumAtomTypes() {
		t.Fatal("atom type counts differ")
	}
	if a.Schema().NumLinkTypes() != b.Schema().NumLinkTypes() {
		t.Fatal("link type counts differ")
	}
	for _, at := range a.Schema().AtomTypes() {
		bt, ok := b.Schema().AtomType(at.Name)
		if !ok {
			t.Fatalf("atom type %q missing after round trip", at.Name)
		}
		if !at.Desc.Equal(bt.Desc) {
			t.Fatalf("description of %q differs", at.Name)
		}
		if at.Num != bt.Num {
			t.Fatalf("type number of %q differs (%d vs %d): identifiers broken", at.Name, at.Num, bt.Num)
		}
		ca, _ := a.Container(at.Name)
		cb, _ := b.Container(at.Name)
		if ca.Len() != cb.Len() {
			t.Fatalf("occurrence size of %q differs", at.Name)
		}
		ca.Scan(func(atom model.Atom) bool {
			other, ok := cb.Get(atom.ID)
			if !ok {
				t.Fatalf("atom %v missing after round trip", atom.ID)
			}
			for i, v := range atom.Vals {
				if !v.Equal(other.Vals[i]) {
					t.Fatalf("atom %v value %d differs: %s vs %s", atom.ID, i, v, other.Vals[i])
				}
			}
			return true
		})
	}
	for _, lt := range a.Schema().LinkTypes() {
		la, _ := a.LinkStore(lt.Name)
		lb, ok := b.LinkStore(lt.Name)
		if !ok {
			t.Fatalf("link type %q missing", lt.Name)
		}
		if la.Len() != lb.Len() {
			t.Fatalf("link occurrence of %q differs", lt.Name)
		}
		la.Scan(func(l model.Link) bool {
			if !lb.Has(l.A, l.B) {
				t.Fatalf("link %v missing after round trip", l)
			}
			return true
		})
	}
}

func TestRoundTripSample(t *testing.T) {
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, s.DB)
	equalDatabases(t, s.DB, back)
	if err := back.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Molecules derive identically over the restored database.
	define := func(db *storage.Database) core.MoleculeSet {
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
		set, err := mt.Derive()
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	s1, s2 := define(s.DB), define(back)
	if len(s1) != len(s2) {
		t.Fatal("molecule counts differ after round trip")
	}
	for i := range s1 {
		if s1[i].Key() != s2[i].Key() {
			t.Fatalf("molecule %d differs after round trip", i)
		}
	}
}

func TestRoundTripAfterPropagation(t *testing.T) {
	// Propagated types adopt foreign identifiers; the state file must
	// keep them intact.
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(s.DB, "sa", []string{"state", "area"},
		[]core.DirectedLink{{Link: "state-area", From: "state", To: "area"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Restrict(mt, nil, "", nil); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, s.DB)
	equalDatabases(t, s.DB, back)
}

func TestSaveLoadFile(t *testing.T) {
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "geo.mad")
	if err := storage.Save(s.DB, path); err != nil {
		t.Fatal(err)
	}
	back, err := storage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	equalDatabases(t, s.DB, back)
}

func TestDecodeRejectsGarbage(t *testing.T) {
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "geo.mad")
	if err := storage.Save(s.DB, path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"garbage":   []byte("not a state file"),
		"empty":     nil,
		"truncated": saved[:len(saved)/2],
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.Load(path); err == nil {
			t.Fatalf("%s input must fail", name)
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	// Property 10 of DESIGN.md: encode∘decode = identity for values, via
	// a single-type database carrying random values.
	f := func(i int64, fl float64, s string, b bool, pick uint8) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		db := storage.NewDatabase()
		desc := model.MustDesc(
			model.AttrDesc{Name: "i", Kind: model.KInt},
			model.AttrDesc{Name: "f", Kind: model.KFloat},
			model.AttrDesc{Name: "s", Kind: model.KString},
			model.AttrDesc{Name: "b", Kind: model.KBool},
		)
		if _, err := db.DefineAtomType("t", desc); err != nil {
			return false
		}
		vals := []model.Value{model.Int(i), model.Float(fl), model.Str(s), model.Bool(b)}
		if pick%3 == 0 {
			vals[1] = model.Null() // exercise null encoding
		}
		id, err := db.InsertAtom("t", vals...)
		if err != nil {
			return false
		}
		back := roundTrip(t, db)
		a, ok := back.GetAtom("t", id)
		if !ok {
			return false
		}
		for j, v := range vals {
			if !a.Vals[j].Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
