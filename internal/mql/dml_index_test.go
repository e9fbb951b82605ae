package mql_test

import (
	"fmt"
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
}
