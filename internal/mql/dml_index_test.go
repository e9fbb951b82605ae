package mql_test

import (
	"fmt"
	"strings"
	"testing"

	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/storage"
)

// itemDB builds n items — code 'c<i>' unique, grp = i mod 64, qty = i —
// with code and grp indexed, and one hub 'h' that CONNECT can link items
// to.
func itemDB(t *testing.T, n int) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	s := mql.NewSession(db)
	if _, err := s.ExecScript(`
CREATE ATOM TYPE item (code STRING NOT NULL, grp INT, qty INT);
CREATE ATOM TYPE hub (name STRING NOT NULL);
CREATE LINK TYPE holds BETWEEN hub AND item;
INSERT INTO hub VALUES ('h');
`); err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if _, err := db.InsertAtom("item", model.Str(fmt.Sprintf("c%d", i)), model.Int(int64(i%64)), model.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, attr := range []string{"code", "grp"} {
		if err := db.CreateIndex("item", attr); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestIndexedDMLMatch pins the index path of DML matching: with the key
// indexed, an UPDATE fetches the same atoms at 1 024 and 16 384 atoms,
// and a CONNECT whose target predicate an index answers links the same
// atoms, in the same order, as the scan a transaction with buffered
// writes falls back to.
func TestIndexedDMLMatch(t *testing.T) {
	fetched := map[int]int64{}
	for _, n := range []int{1024, 16384} {
		db := itemDB(t, n)
		before := db.Stats().AtomsFetched.Load()
		r, err := mql.NewSession(db).Exec("UPDATE item SET qty = 0 WHERE code = 'c17';")
		if err != nil || r.Affected != 1 {
			t.Fatalf("n=%d: UPDATE affected %v, %v; want 1", n, r, err)
		}
		fetched[n] = db.Stats().AtomsFetched.Load() - before
	}
	if fetched[1024] != fetched[16384] || fetched[1024] >= 1024 {
		t.Errorf("UPDATE on an indexed key fetched %d atoms at 1 024 and %d at 16 384; want equal, not a scan", fetched[1024], fetched[16384])
	}

	const connect = "CONNECT hub WHERE name = 'h' TO item WHERE grp = 5 AND qty < 700 VIA holds;"
	linked := func(script string) (string, int64) {
		db := itemDB(t, 1024)
		s := mql.NewSession(db)
		before := db.Stats().AtomsFetched.Load()
		if _, err := s.ExecScript(script); err != nil {
			t.Fatal(err)
		}
		work := db.Stats().AtomsFetched.Load() - before
		r, err := s.Exec("SELECT ALL FROM hub-item WHERE hub.name = 'h';")
		if err != nil {
			t.Fatal(err)
		}
		return r.Render(db), work
	}
	indexed, work := linked(connect)
	// The scan fetches every item; the index path only grp 5's 16.
	if work >= 1024 {
		t.Fatalf("CONNECT fetched %d atoms; the index on item.grp was not used", work)
	}
	scanned, _ := linked("BEGIN; INSERT INTO hub VALUES ('other'); " + connect + " COMMIT;")
	if indexed != scanned {
		t.Errorf("index match differs from the scan:\n%s\nscan:\n%s", indexed, scanned)
	}

	// A 10-key range reaches DML through the plan's index range walk.
	// grp = i mod 64 puts n/64 atoms under every grp key, so the row
	// walks the unique qty instead: the same 10 atoms at either size.
	const rangeUpdate = "UPDATE item SET grp = 99 WHERE qty >= 100 AND qty < 110;"
	state := map[string]string{}
	for _, n := range []int{1024, 16384} {
		db := itemDB(t, n)
		if err := db.CreateIndex("item", "qty"); err != nil {
			t.Fatal(err)
		}
		before := db.Stats().AtomsFetched.Load()
		r, err := mql.NewSession(db).Exec(rangeUpdate)
		if err != nil || r.Affected != 10 {
			t.Fatalf("n=%d: range UPDATE affected %v, %v; want 10", n, r, err)
		}
		fetched[n] = db.Stats().AtomsFetched.Load() - before
		if n == 1024 {
			state["auto-commit"] = itemState(t, db)
		}
	}
	if fetched[1024] != fetched[16384] || fetched[1024] >= 1024 {
		t.Errorf("range UPDATE fetched %d atoms at 1 024 and %d at 16 384; want equal, not a scan", fetched[1024], fetched[16384])
	}
	// The same UPDATE after a write in BEGIN runs the full scan of the
	// dirty view and commits the same items.
	db := itemDB(t, 1024)
	if err := db.CreateIndex("item", "qty"); err != nil {
		t.Fatal(err)
	}
	if _, err := mql.NewSession(db).ExecScript("BEGIN; INSERT INTO hub VALUES ('other'); " + rangeUpdate + " COMMIT;"); err != nil {
		t.Fatal(err)
	}
	if state["in BEGIN"] = itemState(t, db); state["in BEGIN"] != state["auto-commit"] {
		t.Errorf("range UPDATE in BEGIN committed other items than in auto-commit:\n%s\nauto-commit:\n%s", state["in BEGIN"], state["auto-commit"])
	}

	// A DELETE by indexed equality reads no atom: the index names it.
	for _, n := range []int{1024, 16384} {
		db := itemDB(t, n)
		s := mql.NewSession(db)
		before := db.Stats().AtomsFetched.Load()
		if r, err := s.Exec("DELETE FROM item WHERE code = 'c17';"); err != nil || r.Affected != 1 {
			t.Fatalf("n=%d: DELETE affected %v, %v; want 1", n, r, err)
		}
		fetched[n] = db.Stats().AtomsFetched.Load() - before
		if r, err := s.Exec("SELECT COUNT FROM item;"); err != nil || r.Count != n-1 {
			t.Fatalf("n=%d: %v items after the DELETE, %v; want %d", n, r, err, n-1)
		}
	}
	if fetched[1024] != fetched[16384] || fetched[1024] >= 1024 {
		t.Errorf("DELETE on an indexed key fetched %d atoms at 1 024 and %d at 16 384; want equal, not a scan", fetched[1024], fetched[16384])
	}

	// A CONNECT whose target is a range on item.grp walks the index and
	// links what the scan of a dirty view links.
	const connectRange = "CONNECT hub WHERE name = 'h' TO item WHERE grp >= 5 AND grp < 7 VIA holds;"
	indexed, work = linked(connectRange)
	if work >= 1024 {
		t.Fatalf("range CONNECT fetched %d atoms; the index on item.grp was not used", work)
	}
	if scanned, _ = linked("BEGIN; INSERT INTO hub VALUES ('other'); " + connectRange + " COMMIT;"); indexed != scanned {
		t.Errorf("range match differs from the scan:\n%s\nscan:\n%s", indexed, scanned)
	}
	// A comparison with NULL holds for no atom, although the grp index
	// keys the NULL grp of item 'cn': no SELECT or DML with it in its
	// WHERE takes the index to match that atom, in auto-commit or in BEGIN.
	for _, where := range []string{"grp = NULL", "NULL = grp", "grp >= NULL", "grp < NULL AND grp > 3"} {
		db := itemDB(t, 64)
		s := mql.NewSession(db)
		if _, err := s.Exec("INSERT INTO item VALUES ('cn', NULL, 7);"); err != nil {
			t.Fatal(err)
		}
		if r, err := s.Exec("SELECT COUNT FROM item WHERE " + where + ";"); err != nil || r.Count != 0 {
			t.Errorf("SELECT COUNT WHERE %s: %v, %v; want 0", where, r, err)
		}
		for _, stmt := range []string{"UPDATE item SET qty = 0 WHERE " + where + ";", "DELETE FROM item WHERE " + where + ";"} {
			for _, wrap := range []string{"%s", "BEGIN; INSERT INTO hub VALUES ('other'); %s COMMIT;"} {
				db := itemDB(t, 1024)
				s := mql.NewSession(db)
				if _, err := s.Exec("INSERT INTO item VALUES ('cn', NULL, 7);"); err != nil {
					t.Fatal(err)
				}
				before := itemState(t, db)
				if _, err := s.ExecScript(fmt.Sprintf(wrap, stmt)); err != nil {
					t.Fatalf("%s: %v", fmt.Sprintf(wrap, stmt), err)
				}
				if after := itemState(t, db); after != before {
					t.Errorf("%s changed the items; a comparison with NULL selects none", fmt.Sprintf(wrap, stmt))
				}
			}
		}
	}
}

// itemState renders every committed item.
func itemState(t *testing.T, db *storage.Database) string {
	t.Helper()
	r, err := mql.NewSession(db).Exec("SELECT ALL FROM item;")
	if err != nil {
		t.Fatal(err)
	}
	return r.Render(db)
}

// TestOneTypeMatchHasNoResidual: a one-type structure compiles every
// conjunct — a reference-free one too — into the root filter, so the
// roots alone decide its match: DML whose WHERE carries one still
// matches, and a COUNT over it takes the root-batch fast path with the
// same count.
func TestOneTypeMatchHasNoResidual(t *testing.T) {
	db := itemDB(t, 64)
	s := mql.NewSession(db)
	for stmt, want := range map[string]int{
		"UPDATE item SET qty = 0 WHERE 1 = 1 AND code = 'c17';": 1,
		"UPDATE item SET qty = 1 WHERE 2 > 1;":                  64,
		"DELETE FROM item WHERE 1 = 2;":                         0,
	} {
		if r, err := s.Exec(stmt); err != nil || r.Affected != want {
			t.Fatalf("%s affected %v, %v; want %d", stmt, r, err, want)
		}
	}
	if r, err := s.Exec("SELECT COUNT FROM item WHERE 1 = 1;"); err != nil || r.Count != 64 {
		t.Fatalf("COUNT WHERE 1 = 1: %v, %v; want 64", r, err)
	}
	r, err := s.Exec("EXPLAIN SELECT COUNT FROM item WHERE 1 = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Message, "root filter 1 = 1") || strings.Contains(r.Message, "residual:") ||
		!strings.Contains(r.Message, "root-batch fast path") {
		t.Errorf("a one-type COUNT does not judge 1 = 1 at the root:\n%s", r.Message)
	}
}
