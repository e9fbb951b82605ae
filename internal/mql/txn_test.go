package mql_test

import (
	"strings"
	"testing"

	"mad/internal/mql"
	"mad/internal/storage"
)

// txnSession builds a small parts/supplier schema shared by the
// transaction tests and returns two sessions over the same database —
// one to run the transaction, one to observe it from outside.
func txnSession(t *testing.T) (*storage.Database, *mql.Session, *mql.Session) {
	t.Helper()
	db := storage.NewDatabase()
	sess := mql.NewSession(db)
	script := `
CREATE ATOM TYPE parts (name STRING NOT NULL, weight FLOAT);
CREATE ATOM TYPE supplier (name STRING NOT NULL);
CREATE LINK TYPE supplies BETWEEN supplier AND parts;
INSERT INTO parts VALUES ('engine', 120.5), ('piston', 2.5);
INSERT INTO supplier VALUES ('acme');
CONNECT supplier WHERE name = 'acme' TO parts WHERE name = 'engine' VIA supplies;
`
	if _, err := sess.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return db, sess, mql.NewSession(db)
}

func countParts(t *testing.T, s *mql.Session) int {
	t.Helper()
	r, err := s.Exec("SELECT ALL FROM parts;")
	if err != nil {
		t.Fatal(err)
	}
	return len(r.Set)
}

func TestTxnCommitMakesWritesVisibleAtomically(t *testing.T) {
	db, sess, other := txnSession(t)
	if _, err := sess.Exec("BEGIN;"); err != nil {
		t.Fatal(err)
	}
	if !sess.InTxn() {
		t.Fatal("InTxn false after BEGIN")
	}
	script := `
INSERT INTO parts VALUES ('ring', 0.1);
INSERT INTO parts VALUES ('bolt', 0.05);
CONNECT supplier WHERE name = 'acme' TO parts WHERE name = 'piston' VIA supplies;
`
	if _, err := sess.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	// Buffered writes are invisible to everyone else until COMMIT — to
	// other sessions and to the raw database — but the writing session's
	// own SELECTs are read-your-writes: they see the buffered inserts.
	if n := countParts(t, other); n != 2 {
		t.Fatalf("other session sees %d parts before commit", n)
	}
	if n, _ := db.CountAtoms("parts"); n != 2 {
		t.Fatalf("db sees %d parts before commit", n)
	}
	if n := countParts(t, sess); n != 4 {
		t.Fatalf("txn session sees %d parts before commit (read-your-writes must show its own inserts)", n)
	}
	r, err := sess.Exec("COMMIT;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Message, "committed 3 mutation(s)") {
		t.Fatalf("commit message: %q", r.Message)
	}
	if sess.InTxn() {
		t.Fatal("InTxn true after COMMIT")
	}
	if n := countParts(t, other); n != 4 {
		t.Fatalf("parts after commit = %d", n)
	}
	if n, _ := db.CountLinks("supplies"); n != 2 {
		t.Fatalf("supplies after commit = %d", n)
	}
}

func TestTxnRollbackDiscardsBufferedWrites(t *testing.T) {
	db, sess, other := txnSession(t)
	if _, err := sess.Exec("BEGIN TRANSACTION;"); err != nil {
		t.Fatal(err)
	}
	script := `
INSERT INTO parts VALUES ('ring', 0.1);
UPDATE parts SET weight = 9.9 WHERE name = 'piston';
DELETE FROM parts WHERE name = 'engine';
`
	if _, err := sess.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	r, err := sess.Exec("ROLLBACK;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Message, "rolled back") {
		t.Fatalf("rollback message: %q", r.Message)
	}
	if n := countParts(t, other); n != 2 {
		t.Fatalf("parts after rollback = %d", n)
	}
	if n, _ := db.CountLinks("supplies"); n != 1 {
		t.Fatalf("supplies after rollback = %d", n)
	}
	if n := db.VersionCount(); n == 0 {
		t.Fatal("sanity: version chains empty")
	}
	// The rolled-back UPDATE must not have touched piston.
	res, err := other.Exec("SELECT ALL FROM parts WHERE parts.weight > 5.0;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 1 { // engine only
		t.Fatalf("heavy parts after rollback = %d", len(res.Set))
	}
}

func TestTxnSelectReadsBeginSnapshot(t *testing.T) {
	_, sess, other := txnSession(t)
	if _, err := sess.Exec("BEGIN;"); err != nil {
		t.Fatal(err)
	}
	// A concurrent auto-commit writer installs a new part mid-transaction.
	if _, err := other.Exec("INSERT INTO parts VALUES ('gasket', 0.2);"); err != nil {
		t.Fatal(err)
	}
	// The transaction still reads its begin snapshot...
	if n := countParts(t, sess); n != 2 {
		t.Fatalf("txn SELECT sees %d parts (begin snapshot has 2)", n)
	}
	// ...and its predicates match against that snapshot too: the
	// concurrently inserted atom is not visible to UPDATE either.
	if r, err := sess.Exec("UPDATE parts SET weight = 1.0 WHERE name = 'gasket';"); err != nil || r.Affected != 0 {
		t.Fatalf("txn UPDATE of invisible atom: affected=%d err=%v", r.Affected, err)
	}
	if _, err := sess.Exec("COMMIT;"); err != nil {
		t.Fatal(err)
	}
	// Out of the transaction the session reads latest again.
	if n := countParts(t, sess); n != 3 {
		t.Fatalf("parts after commit = %d", n)
	}
}

func TestTxnDMLTargetsOwnBufferedWrites(t *testing.T) {
	db, sess, other := txnSession(t)
	if _, err := sess.Exec("BEGIN;"); err != nil {
		t.Fatal(err)
	}
	// DML predicates match the transaction's effective view: the INSERT
	// below is invisible to SELECT but targetable by UPDATE and CONNECT.
	script := `
INSERT INTO parts VALUES ('ring', 0.1);
UPDATE parts SET weight = 0.2 WHERE name = 'ring';
CONNECT supplier WHERE name = 'acme' TO parts WHERE name = 'ring' VIA supplies;
`
	if _, err := sess.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if r, err := sess.Exec("UPDATE parts SET weight = 0.3 WHERE name = 'ring';"); err != nil || r.Affected != 1 {
		t.Fatalf("update own insert: affected=%d err=%v", r.Affected, err)
	}
	// A buffered delete hides the atom from later statements of the
	// same transaction.
	if r, err := sess.Exec("DELETE FROM parts WHERE name = 'ring';"); err != nil || r.Affected != 1 {
		t.Fatalf("delete own insert: affected=%d err=%v", r.Affected, err)
	}
	if r, err := sess.Exec("UPDATE parts SET weight = 0.4 WHERE name = 'ring';"); err != nil || r.Affected != 0 {
		t.Fatalf("update after buffered delete: affected=%d err=%v", r.Affected, err)
	}
	if _, err := sess.Exec("COMMIT;"); err != nil {
		t.Fatal(err)
	}
	// The insert/update/connect/delete sequence nets out to no ring atom
	// and the original link set.
	if n := countParts(t, other); n != 2 {
		t.Fatalf("parts after commit = %d", n)
	}
	if n, _ := db.CountLinks("supplies"); n != 1 {
		t.Fatalf("supplies after commit = %d", n)
	}
}

func TestTxnStatementErrors(t *testing.T) {
	_, sess, _ := txnSession(t)
	if _, err := sess.Exec("COMMIT;"); err == nil || !strings.Contains(err.Error(), "no transaction") {
		t.Fatalf("COMMIT without txn: %v", err)
	}
	if _, err := sess.Exec("ROLLBACK;"); err == nil || !strings.Contains(err.Error(), "no transaction") {
		t.Fatalf("ROLLBACK without txn: %v", err)
	}
	if _, err := sess.Exec("BEGIN;"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("BEGIN;"); err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("double BEGIN: %v", err)
	}
	// The failed BEGIN must not have clobbered the open transaction.
	if !sess.InTxn() {
		t.Fatal("transaction lost after rejected BEGIN")
	}
	if _, err := sess.Exec("ROLLBACK;"); err != nil {
		t.Fatal(err)
	}
}

func TestSessionCloseRollsBackOpenTxn(t *testing.T) {
	db, sess, other := txnSession(t)
	if _, err := sess.Exec("BEGIN;"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO parts VALUES ('ring', 0.1);"); err != nil {
		t.Fatal(err)
	}
	before := db.VersionCount()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if sess.InTxn() {
		t.Fatal("InTxn true after Close")
	}
	if n := countParts(t, other); n != 2 {
		t.Fatalf("parts after abandoned session = %d", n)
	}
	if after := db.VersionCount(); after != before {
		t.Fatalf("abandoned txn changed version count: %d -> %d", before, after)
	}
	// With no snapshot pinning the horizon anymore, vacuum reaches a
	// fixpoint (the abandoned BEGIN released its snapshot).
	db.Vacuum()
	if st := db.Vacuum(); st.Reclaimed != 0 {
		t.Fatalf("vacuum not at fixpoint after session close: %+v", st)
	}
	if err := sess.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}

// TestTxnDDLAndDefine: inside BEGIN, CREATE ATOM/LINK TYPE and DEFINE
// belong to the transaction — the committed catalog and other sessions do
// not see them, ROLLBACK forgets them (the names are free again), COMMIT
// installs everything as one commit — and CREATE INDEX is refused. A
// DEFINE reads the transaction's own uncommitted writes.
func TestTxnDDLAndDefine(t *testing.T) {
	const light = `INSERT INTO parts VALUES ('ring', 0.5);
DEFINE MOLECULE TYPE light AS SELECT ALL FROM parts WHERE weight < 1.0;`
	for _, c := range []struct {
		name, script, end string
		msg, err          string   // expected in the script's last result / error
		visible           []string // in the rendered catalog after end
		gone              []string // names free after end
		named             bool     // light registered after end
	}{
		{name: "atom type rolled back", script: "CREATE ATOM TYPE gadget (name STRING);", end: "ROLLBACK;",
			gone: []string{"gadget"}},
		{name: "atom and link type committed", script: "CREATE ATOM TYPE gadget (name STRING); CREATE LINK TYPE fits BETWEEN gadget AND parts;",
			end: "COMMIT;", visible: []string{"ATOM TYPE gadget", "LINK TYPE fits BETWEEN gadget AND parts"}},
		{name: "index refused", script: "CREATE INDEX ON parts (name);", err: "CREATE INDEX inside a transaction", end: "ROLLBACK;"},
		{name: "define rolled back", script: light, msg: `"light" defined (1 molecules)`, end: "ROLLBACK;"},
		{name: "define committed", script: light, msg: `"light" defined (1 molecules)`, end: "COMMIT;",
			visible: []string{"ATOM TYPE parts~"}, named: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, sess, other := txnSession(t)
			before, ts := db.Schema().Render(), db.LatestTS()
			if _, err := sess.Exec("BEGIN;"); err != nil {
				t.Fatal(err)
			}
			res, err := sess.ExecScript(c.script)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("error %v, want %q", err, c.err)
				}
			} else if err != nil {
				t.Fatal(err)
			} else if msg := res[len(res)-1].Message; !strings.Contains(msg, c.msg) {
				t.Fatalf("message %q, want %q", msg, c.msg)
			}
			if got := db.Schema().Render(); got != before || db.LatestTS() != ts {
				t.Fatalf("uncommitted DDL reached the catalog or the clock:\n%s", got)
			}
			if _, err := other.Exec("SELECT ALL FROM light;"); err == nil {
				t.Fatal("another session resolves the uncommitted DEFINE")
			}
			if _, err := sess.Exec(c.end); err != nil {
				t.Fatal(err)
			}
			if c.end == "COMMIT;" && db.LatestTS() != ts+1 {
				t.Fatalf("COMMIT advanced LatestTS %d → %d, want one commit", ts, db.LatestTS())
			}
			for _, want := range c.visible {
				if !strings.Contains(db.Schema().Render(), want) {
					t.Fatalf("%q missing after %s\n%s", want, c.end, db.Schema().Render())
				}
			}
			if c.end == "ROLLBACK;" && db.Schema().Render() != before {
				t.Fatalf("ROLLBACK left types behind:\n%s", db.Schema().Render())
			}
			for _, n := range c.gone {
				if db.Schema().HasName(n) {
					t.Fatalf("%q survives %s", n, c.end)
				}
			}
			if c.err != "" && db.HasIndex("parts", "name") {
				t.Fatal("CREATE INDEX inside BEGIN built an index")
			}
			if _, ok := sess.NamedType("light"); ok != c.named {
				t.Fatalf("light registered = %v after %s", ok, c.end)
			}
			switch {
			case c.named:
				if r, err := other.Exec("SELECT ALL FROM parts WHERE weight < 1.0;"); err != nil || len(r.Set) != 1 {
					t.Fatalf("committed ring: %v", err)
				}
				if r, err := sess.Exec("SELECT ALL FROM light;"); err != nil || len(r.Set) != 1 {
					t.Fatalf("SELECT ALL FROM light after COMMIT: %v", err)
				}
			case c.end == "ROLLBACK;" && c.err == "":
				if _, err := sess.ExecScript(c.script); err != nil {
					t.Fatalf("a rolled-back name is not free again: %v", err)
				}
			}
		})
	}
}

// TestAutoCommitStatementIsOneCommit: outside BEGIN a write statement is
// one transaction of its own — a row that fails leaves the rows before it
// uncommitted, and a multi-row INSERT or a multi-atom UPDATE lands as a
// single commit (one fsync on a durable database).
func TestAutoCommitStatementIsOneCommit(t *testing.T) {
	db := storage.NewDatabase()
	sess := mql.NewSession(db)
	if _, err := sess.Exec("CREATE ATOM TYPE a (n INT NOT NULL);"); err != nil {
		t.Fatal(err)
	}
	count := func() int {
		n, err := db.CountAtoms("a")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	ts := db.LatestTS()
	if _, err := sess.Exec("INSERT INTO a VALUES (1), (2), (NULL);"); err == nil {
		t.Fatal("INSERT of a NULL into a NOT NULL attribute succeeded")
	}
	if n := count(); n != 0 || db.LatestTS() != ts {
		t.Fatalf("failed INSERT left %d atom(s) and %d commit(s)", n, db.LatestTS()-ts)
	}
	if _, err := sess.Exec("INSERT INTO a VALUES (1), (2), (3), (4);"); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 4 || db.LatestTS() != ts+1 {
		t.Fatalf("4-row INSERT: %d atom(s) in %d commit(s), want 4 in 1", n, db.LatestTS()-ts)
	}
	r, err := sess.Exec("UPDATE a SET n = 0;")
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 4 || db.LatestTS() != ts+2 {
		t.Fatalf("UPDATE of %d atom(s) took %d commit(s), want 4 in 1", r.Affected, db.LatestTS()-ts-1)
	}
	if sess.InTxn() {
		t.Fatal("an auto-commit statement left a transaction open")
	}
}
