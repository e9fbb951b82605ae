package mql_test

import (
	"fmt"
	"strings"
	"testing"

	"mad/internal/mql"
	"mad/internal/storage"
)

// prepSession builds a session over a small indexed part-supplier
// database: 12 "part" roots (pn = i, bin = i%3, indexed) each linked to
// one "box" (slot = i).
func prepSession(t *testing.T) *mql.Session {
	t.Helper()
	db := storage.NewDatabase()
	sess := mql.NewSession(db)
	var sb strings.Builder
	sb.WriteString(`
CREATE ATOM TYPE part (pn INT NOT NULL, bin INT);
CREATE ATOM TYPE box (slot INT);
CREATE LINK TYPE pb BETWEEN part AND box;
CREATE INDEX ON part(bin);
`)
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "INSERT INTO part VALUES (%d, %d);\n", i, i%3)
		fmt.Fprintf(&sb, "INSERT INTO box VALUES (%d);\n", i)
		fmt.Fprintf(&sb, "CONNECT part WHERE pn = %d TO box WHERE slot = %d VIA pb;\n", i, i)
	}
	if _, err := sess.ExecScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestPrepareExecute is the parameterized-statement contract: EXECUTE
// binds literals into the prepared statement, and each binding returns
// exactly the molecules its literals select.
func TestPrepareExecute(t *testing.T) {
	sess := prepSession(t)

	res, err := sess.Exec(`PREPARE by_bin AS SELECT ALL FROM part-[pb]-box WHERE part.bin = ?;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, `"by_bin" prepared (1 parameter(s))`) {
		t.Fatalf("PREPARE message = %q", res.Message)
	}

	r0, err := sess.Exec(`EXECUTE by_bin (0);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r0.Set) != 4 {
		t.Fatalf("EXECUTE by_bin (0) delivered %d molecules, want 4", len(r0.Set))
	}

	// A different literal through the same statement.
	r1, err := sess.Exec(`EXECUTE by_bin (1);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Set) != 4 {
		t.Fatalf("EXECUTE by_bin (1) delivered %d molecules, want 4", len(r1.Set))
	}

	// The two bindings must select disjoint parts (bin 0 vs bin 1).
	keys := map[string]bool{}
	for _, m := range r0.Set {
		keys[m.Key()] = true
	}
	for _, m := range r1.Set {
		if keys[m.Key()] {
			t.Fatal("EXECUTE (0) and EXECUTE (1) overlap; a binding leaked a literal")
		}
	}

	// Out-of-range bin: empty, not an error.
	r9, err := sess.Exec(`EXECUTE by_bin (9);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r9.Set) != 0 {
		t.Fatalf("EXECUTE by_bin (9) delivered %d molecules, want 0", len(r9.Set))
	}
}

// TestPrepareExecuteErrors pins the error surface: duplicate PREPARE,
// unknown statement, and arity mismatch all fail cleanly.
func TestPrepareExecuteErrors(t *testing.T) {
	sess := prepSession(t)
	if _, err := sess.Exec(`PREPARE q AS SELECT ALL FROM part-[pb]-box WHERE part.bin = ?;`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(`PREPARE q AS SELECT ALL FROM part-[pb]-box;`); err == nil {
		t.Fatal("duplicate PREPARE must fail")
	}
	if _, err := sess.Exec(`EXECUTE nosuch (1);`); err == nil {
		t.Fatal("EXECUTE of an unknown statement must fail")
	}
	if _, err := sess.Exec(`EXECUTE q;`); err == nil {
		t.Fatal("EXECUTE with missing parameters must fail")
	}
	if _, err := sess.Exec(`EXECUTE q (1, 2);`); err == nil {
		t.Fatal("EXECUTE with excess parameters must fail")
	}
}

// TestPrepareCount covers the aggregate path: a prepared SELECT COUNT
// folds per binding without materializing molecules.
func TestPrepareCount(t *testing.T) {
	sess := prepSession(t)
	if _, err := sess.Exec(`PREPARE n AS SELECT COUNT FROM part-[pb]-box WHERE part.bin = ?;`); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(`EXECUTE n (2);`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4 {
		t.Fatalf("EXECUTE n (2) counted %d, want 4", res.Count)
	}
}
