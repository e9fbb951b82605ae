package storage_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"mad/internal/model"
	"mad/internal/storage"
)

// fanDB defines the side-count property's schema on db: atom types p and
// q, the reflexive link type pp (whose mirrored pairs connect and
// disconnect as one link) and the plain link type pq.
func fanDB(t *testing.T, db *storage.Database) {
	t.Helper()
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	for _, name := range []string{"p", "q"} {
		if _, err := db.DefineAtomType(name, desc); err != nil {
			t.Fatal(err)
		}
	}
	for name, d := range map[string]model.LinkDesc{"pp": {SideA: "p", SideB: "p"}, "pq": {SideA: "p", SideB: "q"}} {
		if _, err := db.DefineLinkType(name, d); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFans compares AvgFan on both sides of every link type of fanDB
// against a brute-force count over the occurrence: its size over the
// distinct atoms heading a non-empty partner list on that side.
func checkFans(t *testing.T, db *storage.Database, when string) {
	t.Helper()
	for _, name := range []string{"pp", "pq"} {
		ls, _ := db.LinkStore(name)
		links := ls.Links()
		sideA, sideB := map[model.AtomID]bool{}, map[model.AtomID]bool{}
		for _, l := range links {
			sideA[l.A], sideB[l.B] = true, true
		}
		fan := func(linked int) float64 {
			if linked == 0 {
				return 0
			}
			return float64(len(links)) / float64(linked)
		}
		if got, want := ls.AvgFan(true), fan(len(sideA)); got != want {
			t.Fatalf("%s: %s AvgFan(side A) = %v, brute force %v", when, name, got, want)
		}
		if got, want := ls.AvgFan(false), fan(len(sideB)); got != want {
			t.Fatalf("%s: %s AvgFan(side B) = %v, brute force %v", when, name, got, want)
		}
		if ls.Len() != len(links) {
			t.Fatalf("%s: %s Len = %d, %d links", when, name, ls.Len(), len(links))
		}
	}
}

// TestLinkFanProperty drives a durable database through random connects,
// disconnects (mirrored ones included), cascading deletes, commits that
// fail re-validation and undo, vacuums, save/load round trips and
// recoveries, and checks after every step that the per-side counts
// behind AvgFan agree with the occurrence.
func TestLinkFanProperty(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db, err := storage.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		fanDB(t, db)
		atoms := map[string][]model.AtomID{}
		insert := func(typ string) model.AtomID {
			id, err := db.InsertAtom(typ, model.Int(rng.Int63n(4)))
			if err != nil {
				t.Fatal(err)
			}
			atoms[typ] = append(atoms[typ], id)
			return id
		}
		for i := 0; i < 6; i++ {
			insert("p")
			insert("q")
		}
		pick := func(typ string) model.AtomID { return atoms[typ][rng.Intn(len(atoms[typ]))] }
		pair := func() (string, model.AtomID, model.AtomID) {
			if rng.Intn(2) == 0 {
				return "pp", pick("p"), pick("p")
			}
			return "pq", pick("p"), pick("q")
		}
		for step := 0; step < 120; step++ {
			var what string
			switch r := rng.Intn(20); {
			case r < 8:
				what = "connect"
				name, a, b := pair()
				if err := db.Connect(name, a, b); err != nil {
					t.Fatal(err)
				}
			case r < 13:
				what = "disconnect"
				name, a, b := pair()
				if _, err := db.Disconnect(name, a, b); err != nil {
					t.Fatal(err)
				}
			case r < 15:
				what = "delete"
				typ := []string{"p", "q"}[rng.Intn(2)]
				i := rng.Intn(len(atoms[typ]))
				if _, err := db.DeleteAtom(typ, atoms[typ][i]); err != nil {
					t.Fatal(err)
				}
				atoms[typ] = append(atoms[typ][:i], atoms[typ][i+1:]...)
				insert(typ)
			case r < 17:
				// A commit whose last connect names an atom deleted after
				// it was buffered fails re-validation, and the undo pops
				// the connects applied before it.
				what = "failed commit"
				doomed := insert("p")
				txn := db.Begin()
				for i := 0; i < 3; i++ {
					name, a, b := pair()
					if err := txn.Connect(name, a, b); err != nil {
						t.Fatal(err)
					}
				}
				if err := txn.Connect("pp", pick("p"), doomed); err != nil {
					t.Fatal(err)
				}
				if _, err := db.DeleteAtom("p", doomed); err != nil {
					t.Fatal(err)
				}
				atoms["p"] = atoms["p"][:len(atoms["p"])-1]
				if err := txn.Commit(); err == nil {
					t.Fatalf("seed %d step %d: a commit connecting a deleted atom succeeded", seed, step)
				}
			case r < 18:
				what = "vacuum"
				db.Vacuum()
				if rng.Intn(2) == 0 {
					if _, err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			case r < 19:
				what = "save and load"
				path := filepath.Join(t.TempDir(), "fan.mad")
				if err := storage.Save(db, path); err != nil {
					t.Fatal(err)
				}
				loaded, err := storage.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				checkFans(t, loaded, "loaded copy")
			default:
				what = "recover"
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				rec, err := storage.Recover(dir)
				if err != nil {
					t.Fatal(err)
				}
				checkFans(t, rec, "recovered copy")
				if db, err = storage.Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			checkFans(t, db, what)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
