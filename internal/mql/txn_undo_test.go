package mql_test

import (
	"errors"
	"strings"
	"testing"

	"mad/internal/mql"
)

// failInTxn runs a statement that must fail inside the open transaction
// and checks that the transaction stays open.
func failInTxn(t *testing.T, s *mql.Session, stmt string) error {
	t.Helper()
	_, err := s.Exec(stmt)
	if err == nil {
		t.Fatalf("%s: succeeded, want an error", stmt)
	}
	if !s.InTxn() {
		t.Fatalf("%s: the failed statement ended the transaction", stmt)
	}
	return err
}

// TestTxnFailedStatementIsUndone: a multi-row INSERT inside BEGIN whose
// second row violates NOT NULL leaves its first row out of the
// transaction, and COMMIT publishes nothing of it. The error wraps the
// statement's own and says it was undone.
func TestTxnFailedStatementIsUndone(t *testing.T) {
	_, sess, other := txnSession(t)
	if _, err := sess.Exec("BEGIN;"); err != nil {
		t.Fatal(err)
	}
	err := failInTxn(t, sess, "INSERT INTO parts VALUES ('ring', 0.1), (NULL, 1.0);")
	if _, err := sess.Exec("COMMIT;"); err != nil {
		t.Fatal(err)
	}
	if n := countParts(t, other); n != 2 {
		t.Fatalf("another session counts %d parts after COMMIT, want 2", n)
	}
	if !strings.Contains(err.Error(), "statement undone") || errors.Unwrap(err) == nil ||
		!strings.Contains(errors.Unwrap(err).Error(), "NOT NULL") {
		t.Fatalf("error %q does not wrap the NOT NULL violation and say the statement was undone", err)
	}
}

// TestTxnWrongArityRowIsUndone: a multi-row INSERT with a column list
// whose second row has the wrong arity leaves nothing behind, and the
// transaction goes on.
func TestTxnWrongArityRowIsUndone(t *testing.T) {
	_, sess, other := txnSession(t)
	if _, err := sess.Exec("BEGIN;"); err != nil {
		t.Fatal(err)
	}
	failInTxn(t, sess, "INSERT INTO parts (name) VALUES ('gear'), ('bolt', 2.0);")
	if n := countParts(t, sess); n != 2 {
		t.Fatalf("the transaction sees %d parts after the undone INSERT, want 2", n)
	}
	if _, err := sess.ExecScript("INSERT INTO parts VALUES ('nut', 0.01);\nCOMMIT;"); err != nil {
		t.Fatal(err)
	}
	if n := countParts(t, other); n != 3 {
		t.Fatalf("another session counts %d parts after COMMIT, want 3", n)
	}
}

// TestTxnUndoKeepsEarlierTypes: undoing a statement keeps the type an
// earlier statement of the transaction created, with its atoms, and
// COMMIT publishes them.
func TestTxnUndoKeepsEarlierTypes(t *testing.T) {
	_, sess, other := txnSession(t)
	script := `
BEGIN;
CREATE ATOM TYPE gear (teeth INT NOT NULL);
INSERT INTO gear VALUES (12);
`
	if _, err := sess.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	failInTxn(t, sess, "INSERT INTO gear VALUES (24), (NULL);")
	if _, err := sess.ExecScript("INSERT INTO gear VALUES (36);\nCOMMIT;"); err != nil {
		t.Fatal(err)
	}
	r, err := other.Exec("SELECT ALL FROM gear;")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Set) != 2 {
		t.Fatalf("gear holds %d atoms after COMMIT, want 2 (12 and 36)", len(r.Set))
	}
}
