package mql_test

import (
	"runtime"
	"strings"
	"testing"

	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/storage"
)

const defineSetup = `
CREATE ATOM TYPE assembly (name STRING NOT NULL, weight FLOAT);
CREATE ATOM TYPE part (name STRING NOT NULL, weight FLOAT);
CREATE LINK TYPE uses BETWEEN assembly AND part;
INSERT INTO assembly VALUES ('car', 900.0), ('bike', 12.0), ('kart', 150.0);
INSERT INTO part VALUES ('wheel', 9.0), ('bolt', 0.1), ('seat', 3.0);
CONNECT assembly WHERE name = 'car' TO part VIA uses;
CONNECT assembly WHERE name = 'bike' TO part WHERE name = 'wheel' VIA uses;
CONNECT assembly WHERE name = 'kart' TO part WHERE weight < 5.0 VIA uses;
`

// sighting is one observation of a propagated type by the watcher: the
// published timestamp, the occurrence size there, and the size a snapshot
// pinned before the DEFINE sees.
type sighting struct {
	name           string
	ts             uint64
	latest, pinned int
}

// watch polls, from a goroutine, every atom type the catalog lists beyond
// those in known, until the returned stop is called.
func watch(db *storage.Database, pinned *storage.Snapshot, known map[string]bool) (stop func() []sighting) {
	done, out := make(chan struct{}), make(chan []sighting)
	go func() {
		var seen []sighting
		for {
			select {
			case <-done:
				out <- seen
				return
			default:
			}
			for _, at := range db.Schema().AtomTypes() {
				if !known[at.Name] && len(seen) < 1<<16 {
					c, _ := db.Container(at.Name)
					ts := db.LatestTS()
					seen = append(seen, sighting{at.Name, ts, len(db.View(ts).IDs(c)), len(pinned.IDs(c))})
				}
			}
			runtime.Gosched()
		}
	}()
	return func() []sighting {
		close(done)
		return <-out
	}
}

// TestDefineIsOneCommit: every DEFINE form — Σ, Σ+Π, Π, Ω, Δ, Ψ, and a
// DEFINE inside BEGIN at its COMMIT — advances LatestTS by exactly one on
// an in-memory and on a durable database, growing the catalog by |types|
// atom types and |edges| link types for each propagation it performs. A
// latest-view reader polling beside it (under -race in scripts/stress.sh)
// sees every propagated type empty below that commit and whole from it
// on; a snapshot and a session that began before the DEFINE see it empty
// throughout.
func TestDefineIsOneCommit(t *testing.T) {
	forms := []struct {
		name, src    string
		types, links int
	}{
		{"Σ", "DEFINE MOLECULE TYPE heavy AS SELECT ALL FROM assembly-part WHERE assembly.weight > 100.0;", 2, 1},
		{"Σ again", "DEFINE MOLECULE TYPE light AS SELECT ALL FROM assembly-part WHERE assembly.weight <= 100.0;", 2, 1},
		{"Σ+Π", "DEFINE MOLECULE TYPE heavy_names AS SELECT assembly.name, part FROM assembly-part WHERE assembly.weight > 100.0;", 4, 2},
		{"Π", "DEFINE MOLECULE TYPE roots AS SELECT assembly FROM assembly-part;", 1, 0},
		{"Ω", "DEFINE MOLECULE TYPE every AS UNION OF heavy AND light;", 2, 1},
		{"Δ", "DEFINE MOLECULE TYPE heavy2 AS DIFFERENCE OF every AND light;", 2, 1},
		{"Ψ", "DEFINE MOLECULE TYPE both AS INTERSECT OF every AND heavy;", 2, 1},
		{"BEGIN … COMMIT", `BEGIN; INSERT INTO assembly VALUES ('truck', 5000.0);
CONNECT assembly WHERE name = 'truck' TO part WHERE name = 'wheel' VIA uses;
DEFINE MOLECULE TYPE big AS SELECT ALL FROM assembly-part WHERE assembly.weight > 1000.0; COMMIT;`, 2, 1},
	}
	for _, durable := range []bool{false, true} {
		db := storage.NewDatabase()
		if durable {
			var err error
			if db, err = storage.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		sess := mql.NewSession(db)
		if _, err := sess.ExecScript(defineSetup); err != nil {
			t.Fatal(err)
		}
		for _, f := range forms {
			schema := db.Schema()
			ts, nTypes, nLinks := db.LatestTS(), schema.NumAtomTypes(), schema.NumLinkTypes()
			known := map[string]bool{}
			for _, at := range schema.AtomTypes() {
				known[at.Name] = true
			}
			before := mql.NewSession(db)
			if _, err := before.Exec("BEGIN;"); err != nil {
				t.Fatal(err)
			}
			pinned := db.Snapshot()
			stop := watch(db, pinned, known)
			_, err := sess.ExecScript(f.src)
			seen := stop()
			if err != nil {
				t.Fatalf("durable=%v %s: %v", durable, f.name, err)
			}
			if db.LatestTS() != ts+1 {
				t.Fatalf("durable=%v %s: LatestTS %d → %d, want exactly one commit", durable, f.name, ts, db.LatestTS())
			}
			if dt, dl := schema.NumAtomTypes()-nTypes, schema.NumLinkTypes()-nLinks; dt != f.types || dl != f.links {
				t.Fatalf("durable=%v %s: catalog grew by %d atom and %d link types, want %d and %d", durable, f.name, dt, dl, f.types, f.links)
			}
			whole := map[string]int{}
			for _, at := range schema.AtomTypes() {
				if !known[at.Name] {
					c, _ := db.Container(at.Name)
					whole[at.Name] = len(db.View(0).IDs(c))
					if r, err := before.Exec("SELECT COUNT FROM " + at.Name + ";"); err != nil || r.Count != 0 {
						t.Fatalf("durable=%v %s: a session begun before the DEFINE counts %v in %s (%v)", durable, f.name, r, at.Name, err)
					}
				}
			}
			for _, lt := range schema.LinkTypes()[nLinks:] {
				ls, _ := db.LinkStore(lt.Name)
				ca, _ := db.Container(lt.Desc.SideA)
				n := 0
				for _, id := range db.View(ts + 1).IDs(ca) {
					n += len(db.View(ts+1).Partners(ls, id, true))
					if len(db.View(ts).Partners(ls, id, true)) != 0 || len(pinned.Partners(ls, id, true)) != 0 {
						t.Fatalf("durable=%v %s: links of %s visible below their commit", durable, f.name, lt.Name)
					}
				}
				if n == 0 || n != ls.Len() {
					t.Fatalf("durable=%v %s: %s holds %d links at its commit, %d at the newest versions", durable, f.name, lt.Name, n, ls.Len())
				}
			}
			for _, s := range seen {
				want := whole[s.name]
				if s.ts <= ts {
					want = 0
				}
				if s.latest != want || s.pinned != 0 {
					t.Fatalf("durable=%v %s: %s at ts %d (commit %d): %d atoms (pinned %d), want %d", durable, f.name, s.name, s.ts, ts+1, s.latest, s.pinned, want)
				}
			}
			pinned.Close()
			before.Close()
		}
		if r, err := sess.Exec("SHOW MOLECULES;"); err != nil || strings.Count(r.Message, "MOLECULE TYPE") != len(forms) {
			t.Fatalf("durable=%v: SHOW MOLECULES:\n%v %v", durable, r, err)
		}
		plan.Release(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
