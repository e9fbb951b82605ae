package mql_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mad/internal/core"
	"mad/internal/mql"
	"mad/internal/storage"
)

// TestCursorStreamsSelect: QueryContext delivers the same molecules, in
// the same order, as the materialized Exec — and reports its projected
// description.
func TestCursorStreamsSelect(t *testing.T) {
	sess, _ := session(t)
	const q = "SELECT ALL FROM mt_state(state-area-edge-point);"
	res, err := sess.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Set

	cur, err := sess.QueryContext(context.Background(), "SELECT ALL FROM mt_state;")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Streaming() {
		t.Fatal("SELECT must stream")
	}
	var got core.MoleculeSet
	for {
		m, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			break
		}
		got = append(got, m)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d molecules, Exec returned %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("molecule %d differs from the materialized order", i)
		}
	}
	if cur.Err() != nil {
		t.Fatalf("err after drain: %v", cur.Err())
	}
	if cur.Delivered() != len(want) {
		t.Fatalf("delivered = %d, want %d", cur.Delivered(), len(want))
	}
}

// TestCursorProjection: the cursor applies the SELECT list per molecule
// — the projected description and attribute narrowing match the
// materialized path.
func TestCursorProjection(t *testing.T) {
	sess, _ := session(t)
	const q = "SELECT state.name, area FROM mt2(state-area) WHERE hectare > 10;"
	res, err := sess.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sess.QueryContext(context.Background(), "SELECT state.name, area FROM mt2;")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Desc().String() != res.Desc.String() {
		t.Fatalf("cursor desc %s, materialized desc %s", cur.Desc(), res.Desc)
	}
	r2, err := cur.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Set) != len(res.Set) {
		t.Fatalf("cursor result %d molecules, Exec %d", len(r2.Set), len(res.Set))
	}
	for i := range res.Set {
		if !r2.Set[i].Equal(res.Set[i]) {
			t.Fatalf("projected molecule %d differs", i)
		}
	}
	if r2.Attrs["state"][0] != "name" {
		t.Fatalf("attrs = %v", r2.Attrs)
	}
}

// TestCursorLimitSyntax: SELECT ... LIMIT n delivers exactly the first n
// molecules of the deterministic order, on both surfaces.
func TestCursorLimitSyntax(t *testing.T) {
	sess, _ := session(t)
	full, err := sess.Exec("SELECT ALL FROM mt_state(state-area-edge-point);")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Set) < 2 {
		t.Fatalf("fixture too small: %d molecules", len(full.Set))
	}
	res, err := sess.Exec("SELECT ALL FROM mt_state LIMIT 2;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 2 {
		t.Fatalf("LIMIT 2 returned %d molecules", len(res.Set))
	}
	for i := range res.Set {
		if !res.Set[i].Equal(full.Set[i]) {
			t.Fatalf("LIMIT must deliver a prefix; molecule %d differs", i)
		}
	}
	if _, err := sess.Exec("SELECT ALL FROM mt_state LIMIT 0;"); err == nil {
		t.Fatal("LIMIT 0 must be rejected")
	}
}

// TestCursorCancel: cancelling the query context surfaces through Next
// and stops the execution.
func TestCursorCancel(t *testing.T) {
	sess, _ := session(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cur, err := sess.QueryContext(ctx, "SELECT ALL FROM mt_state(state-area-edge-point);")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for {
		m, nerr := cur.Next()
		if nerr != nil {
			if !errors.Is(nerr, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", nerr)
			}
			break
		}
		if m == nil {
			t.Fatal("cursor over a cancelled context ended cleanly")
		}
	}
}

// TestSetStatement: SET WORKERS installs a session default and rejects
// bad values; every other option is unknown.
func TestSetStatement(t *testing.T) {
	sess, _ := session(t)
	if res, err := sess.Exec("SET WORKERS = 2;"); err != nil || !strings.Contains(res.Message, "workers set to 2") {
		t.Fatalf("SET WORKERS: %v %v", res, err)
	}
	if _, err := sess.Exec("SET WORKERS = -1;"); err == nil {
		t.Fatal("negative workers must be rejected")
	}
	for _, opt := range []string{"SET VERBOSE = TRUE;", "SET NOCACHE = TRUE;"} {
		_, err := sess.Exec(opt)
		if err == nil || !strings.HasSuffix(err.Error(), "(supported: WORKERS)") {
			t.Fatalf("%s: want the unknown-option error listing WORKERS alone, got %v", opt, err)
		}
	}
}

// TestCursorNonStreamingStatements: DDL and SHOW run eagerly through
// QueryContext and surface their Result immediately.
func TestCursorNonStreamingStatements(t *testing.T) {
	sess, _ := session(t)
	cur, err := sess.QueryContext(context.Background(), "SHOW INDEXES;")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Streaming() {
		t.Fatal("SHOW must not stream")
	}
	if m, err := cur.Next(); m != nil || err != nil {
		t.Fatalf("non-streaming Next = %v, %v", m, err)
	}
	r, err := cur.Result()
	if err != nil || r.Kind != mql.RMessage {
		t.Fatalf("result = %+v, %v", r, err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLimitOnRecursiveAndDefine: LIMIT caps a recursive SELECT's result
// (eager derivation, deterministic order) and is rejected in algebra
// mode — DEFINE registers whole occurrences.
func TestLimitOnRecursiveAndDefine(t *testing.T) {
	db := storage.NewDatabase()
	sess := mql.NewSession(db)
	setup := `
CREATE ATOM TYPE parts (name STRING NOT NULL);
CREATE LINK TYPE composition BETWEEN parts AND parts;
INSERT INTO parts VALUES ('car'), ('engine'), ('piston');
CONNECT parts WHERE name = 'car' TO parts WHERE name = 'engine' VIA composition;
CONNECT parts WHERE name = 'engine' TO parts WHERE name = 'piston' VIA composition;
`
	if _, err := sess.ExecScript(setup); err != nil {
		t.Fatal(err)
	}
	full, err := sess.Exec("SELECT ALL FROM RECURSIVE parts VIA composition;")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Set) != 3 {
		t.Fatalf("|rec| = %d, want 3", len(full.Set))
	}
	capped, err := sess.Exec("SELECT ALL FROM RECURSIVE parts VIA composition LIMIT 2;")
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Set) != 2 {
		t.Fatalf("recursive LIMIT 2 returned %d", len(capped.Set))
	}
	for i := range capped.Set {
		if capped.Set[i].Root() != full.Set[i].Root() {
			t.Fatalf("recursive LIMIT must deliver a prefix; molecule %d differs", i)
		}
	}
	// The streaming surface honours it too.
	cur, err := sess.QueryContext(context.Background(),
		"SELECT ALL FROM RECURSIVE parts VIA composition LIMIT 1;")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	r, err := cur.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Set) != 1 {
		t.Fatalf("recursive LIMIT 1 through QueryContext returned %d", len(r.Set))
	}

	if _, err := sess.Exec("DEFINE MOLECULE TYPE few AS SELECT ALL FROM parts LIMIT 1;"); err == nil {
		t.Fatal("DEFINE ... AS SELECT ... LIMIT must be rejected")
	}
}
