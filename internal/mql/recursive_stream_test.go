package mql_test

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/storage"
)

// partsDB builds the canonical BOM fixture directly against storage so
// tests hold the atom ids: car → engine → piston → ring over the
// reflexive composition link, with a category attribute for grouping.
func partsDB(t testing.TB) (*storage.Database, []model.AtomID) {
	t.Helper()
	db := storage.NewDatabase()
	desc := model.MustDesc(
		model.AttrDesc{Name: "name", Kind: model.KString},
		model.AttrDesc{Name: "cat", Kind: model.KString},
	)
	if _, err := db.DefineAtomType("parts", desc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLinkType("composition", model.LinkDesc{SideA: "parts", SideB: "parts"}); err != nil {
		t.Fatal(err)
	}
	rows := []struct{ name, cat string }{
		{"car", "assembly"}, {"engine", "assembly"}, {"piston", "piece"}, {"ring", "piece"},
	}
	ids := make([]model.AtomID, len(rows))
	for i, r := range rows {
		id, err := db.InsertAtom("parts", model.Str(r.name), model.Str(r.cat))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i < 3; i++ {
		if err := db.Connect("composition", ids[i], ids[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return db, ids
}

// TestRecursiveSnapshotUniformUnderWriter (satellite 1): a recursive
// cursor pins one snapshot for the whole closure. A writer committing
// mid-closure — renaming an atom and growing the assembly — must be
// invisible: every molecule and every rendered value is version-uniform
// at the cursor's SnapshotTS.
func TestRecursiveSnapshotUniformUnderWriter(t *testing.T) {
	db, ids := partsDB(t)
	defer plan.Release(db)
	sess := mql.NewSession(db)
	cur, err := sess.QueryContext(context.Background(), "SELECT ALL FROM RECURSIVE parts VIA composition;")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Streaming() {
		t.Fatal("recursive SELECT must stream")
	}
	ts := cur.SnapshotTS()
	if ts == 0 {
		t.Fatal("recursive cursor must pin a snapshot")
	}
	first, err := cur.Next()
	if err != nil || first == nil {
		t.Fatalf("first molecule: %v, %v", first, err)
	}

	// Writer commits while the closure is still streaming: ring becomes
	// a washer and gains a sub-component.
	if err := db.UpdateAtom("parts", ids[3], []model.Value{model.Str("washer"), model.Str("piece")}); err != nil {
		t.Fatal(err)
	}
	bolt, err := db.InsertAtom("parts", model.Str("bolt"), model.Str("piece"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Connect("composition", ids[3], bolt); err != nil {
		t.Fatal(err)
	}

	got := map[model.AtomID]int{first.Root(): first.Size()}
	rendered := mql.RenderMoleculeAt(db, ts, 1, first, cur.Attrs())
	for i := 2; ; i++ {
		m, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			break
		}
		if m.Contains("parts", bolt) {
			t.Fatalf("closure of %v saw the mid-stream commit", m.Root())
		}
		got[m.Root()] = m.Size()
		rendered += mql.RenderMoleculeAt(db, ts, i, m, cur.Attrs())
	}
	// Pre-commit shape: car 4, engine 3, piston 2, ring 1 — the bolt
	// never joins, and ring still renders under its old name.
	want := map[model.AtomID]int{ids[0]: 4, ids[1]: 3, ids[2]: 2, ids[3]: 1}
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("closure sizes not version-uniform: %v", got)
		}
	}
	if !strings.Contains(rendered, "ring") || strings.Contains(rendered, "washer") || strings.Contains(rendered, "bolt") {
		t.Fatalf("rendering not uniform at SnapshotTS %d:\n%s", ts, rendered)
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
}

// TestRecursiveCount (satellite 2): SELECT COUNT folds over the
// streaming fixpoint instead of erroring — plain, filtered, and grouped
// by a root attribute.
func TestRecursiveCount(t *testing.T) {
	db, _ := partsDB(t)
	defer plan.Release(db)
	sess := mql.NewSession(db)

	res, err := sess.Exec("SELECT COUNT FROM RECURSIVE parts VIA composition;")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != mql.RCount || res.Count != 4 {
		t.Fatalf("count = %+v", res)
	}

	res, err = sess.Exec("SELECT COUNT FROM RECURSIVE parts VIA composition WHERE cat = 'assembly';")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Fatalf("filtered count = %d, want 2", res.Count)
	}

	res, err = sess.Exec("SELECT COUNT FROM RECURSIVE parts VIA composition GROUP BY cat;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 || res.GroupAttr != "cat" {
		t.Fatalf("groups = %+v", res)
	}
	for _, g := range res.Groups {
		if g.Count != 2 {
			t.Fatalf("group %s = %d closures, want 2", g.Value, g.Count)
		}
	}
	out := res.Render(db)
	if !strings.Contains(out, "2 group(s) by cat") {
		t.Fatalf("render: %s", out)
	}

	// LIMIT caps groups, not the underlying closures.
	res, err = sess.Exec("SELECT COUNT FROM RECURSIVE parts VIA composition GROUP BY name LIMIT 2;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("limited groups = %d, want 2", len(res.Groups))
	}
}

// TestRecursiveLimitReleasesWorkers (satellite 3): LIMIT on a recursive
// SELECT cancels the in-flight expansion instead of deriving the full
// set and truncating, and tearing the cursor down leaks no goroutines.
func TestRecursiveLimitReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	db := storage.NewDatabase()
	desc := model.MustDesc(model.AttrDesc{Name: "pn", Kind: model.KInt})
	if _, err := db.DefineAtomType("parts", desc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLinkType("composition", model.LinkDesc{SideA: "parts", SideB: "parts"}); err != nil {
		t.Fatal(err)
	}
	const roots, depth = 256, 8
	ids := make([]model.AtomID, roots*depth)
	for i := range ids {
		id, err := db.InsertAtom("parts", model.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for r := 0; r < roots; r++ {
		for d := 0; d < depth-1; d++ {
			if err := db.Connect("composition", ids[r*depth+d], ids[r*depth+d+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer plan.Release(db)
	sess := mql.NewSession(db)

	stats := db.Stats()
	stats.Reset()
	cur, err := sess.QueryContext(context.Background(),
		"SELECT ALL FROM RECURSIVE parts VIA composition LIMIT 2;", mql.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		m, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("LIMIT 2 delivered %d molecules", n)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	// The cap must cancel expansion: nowhere near the full 2048-atom
	// closure set may have been derived.
	if fetched := stats.Snapshot().AtomsFetched; fetched > roots*depth/2 {
		t.Fatalf("LIMIT derived eagerly: %d atoms fetched", fetched)
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecursiveExplainFixpoint: EXPLAIN on a recursive SELECT is the
// common plan rendering — the closure shape on the structure line, the
// table's access line, and the semi-naive derive line with the estimated
// atoms per root next to the actual.
func TestRecursiveExplainFixpoint(t *testing.T) {
	db, _ := partsDB(t)
	defer plan.Release(db)
	sess := mql.NewSession(db)
	res, err := sess.Exec("EXPLAIN SELECT ALL FROM RECURSIVE parts VIA composition WHERE name = 'car' LIMIT 1;")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"structure: <{parts*}, {<composition, parts, parts> ⟲ down}>",
		"access:    full scan of parts",
		`root filter name = "car" before derivation`,
		"semi-naive (est ≈4.0 atoms/root [link-fan], actual 1 at 4.0 atoms/root)",
		"output:    1 molecule(s)",
	} {
		if !strings.Contains(res.Message, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, res.Message)
		}
	}

	res, err = sess.Exec("EXPLAIN SELECT COUNT FROM RECURSIVE parts VIA composition GROUP BY cat;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "aggregate: COUNT GROUP BY cat") {
		t.Fatalf("COUNT EXPLAIN:\n%s", res.Message)
	}
}

// rootNames executes a SELECT over parts and returns the name of every
// delivered molecule's root, in delivery order.
func rootNames(t *testing.T, db *storage.Database, sess *mql.Session, src string) []string {
	t.Helper()
	res, err := sess.Exec(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	c, _ := db.Container("parts")
	names := make([]string, len(res.Set))
	for i, m := range res.Set {
		a, _ := c.Get(m.Root())
		names[i], _ = a.Get(0).AsString()
	}
	return names
}

// TestRecursiveThroughOnePipeline: what the main pipeline has, a
// recursive statement has too — every case here failed while FROM
// RECURSIVE ran on an executor of its own that lacked it.
func TestRecursiveThroughOnePipeline(t *testing.T) {
	const rec = "FROM RECURSIVE parts VIA composition"
	cases := []struct {
		name string
		run  func(t *testing.T, db *storage.Database, sess *mql.Session)
	}{
		{"order by", func(t *testing.T, db *storage.Database, sess *mql.Session) {
			if got := rootNames(t, db, sess, "SELECT ALL "+rec+" ORDER BY name DESC;"); !slices.Equal(got, []string{"ring", "piston", "engine", "car"}) {
				t.Fatalf("ORDER BY name DESC delivered %v", got)
			}
			if got := rootNames(t, db, sess, "SELECT ALL "+rec+" ORDER BY name LIMIT 2;"); !slices.Equal(got, []string{"car", "engine"}) {
				t.Fatalf("ORDER BY name LIMIT 2 delivered %v", got)
			}
			if _, err := sess.Exec("SELECT ALL " + rec + " ORDER BY nosuch;"); err == nil {
				t.Fatal("ORDER BY an unknown attribute must fail")
			}
		}},
		{"dirty transaction", func(t *testing.T, db *storage.Database, sess *mql.Session) {
			if _, err := sess.ExecScript(`
BEGIN;
INSERT INTO parts VALUES ('bolt', 'piece');
CONNECT parts WHERE name = 'ring' TO parts WHERE name = 'bolt' VIA composition;`); err != nil {
				t.Fatal(err)
			}
			plain, recursive := execR(t, sess, "SELECT COUNT FROM parts;"), execR(t, sess, "SELECT COUNT "+rec+";")
			if plain != "count: 5\n" || recursive != plain {
				t.Fatalf("one transaction, two databases: plain %q, recursive %q", plain, recursive)
			}
			// The inserted root has a closure of its own, and the buffered
			// link extends the car's explosion down to it.
			out := execR(t, sess, "SELECT ALL "+rec+" WHERE name = 'bolt' OR name = 'car';")
			for _, want := range []string{"2 recursive molecule(s)", "5 atoms, depth 4", `level 4: "bolt"`, `level 0: "bolt"`} {
				if !strings.Contains(out, want) {
					t.Fatalf("recursive SELECT inside the transaction misses %q:\n%s", want, out)
				}
			}
			if out := execR(t, mql.NewSession(db), "SELECT COUNT "+rec+";"); out != "count: 4\n" {
				t.Fatalf("another session sees the uncommitted root: %s", out)
			}
		}},
		{"prepare", func(t *testing.T, db *storage.Database, sess *mql.Session) {
			if _, err := sess.Exec("PREPARE q AS SELECT ALL " + rec + " WHERE name = ?;"); err != nil {
				t.Fatal(err)
			}
			if out := execR(t, sess, "EXECUTE q ('car');"); !strings.Contains(out, "4 atoms, depth 3") {
				t.Fatalf("EXECUTE q ('car'):\n%s", out)
			}
			hits, _, compiles := plan.CacheFor(db).Counters()
			if out := execR(t, sess, "EXECUTE q ('piston');"); !strings.Contains(out, "2 atoms, depth 1") {
				t.Fatalf("EXECUTE q ('piston'):\n%s", out)
			}
			if h, _, c := plan.CacheFor(db).Counters(); h != hits+1 || c != compiles {
				t.Fatalf("second EXECUTE: hits %d→%d, compiles %d→%d; want one hit, no compile", hits, h, compiles, c)
			}
		}},
		{"plan cache", func(t *testing.T, db *storage.Database, sess *mql.Session) {
			const src = "SELECT ALL " + rec + " UP DEPTH 2 WHERE name = 'ring';"
			execR(t, sess, src)
			hits, _, compiles := plan.CacheFor(db).Counters()
			execR(t, sess, src)
			if h, _, c := plan.CacheFor(db).Counters(); h != hits+1 || c != compiles {
				t.Fatalf("repeated statement: hits %d→%d, compiles %d→%d; want one hit, no compile", hits, h, compiles, c)
			}
			if out := execR(t, sess, "SHOW CACHE;"); !strings.Contains(out, "<composition, parts, parts> ⟲ up, depth ≤ 2") {
				t.Fatalf("SHOW CACHE does not list the closure shape:\n%s", out)
			}
		}},
		{"define by name", func(t *testing.T, db *storage.Database, sess *mql.Session) {
			if _, err := sess.ExecScript(`
DEFINE MOLECULE TYPE expl AS SELECT ALL ` + rec + `;
DEFINE MOLECULE TYPE shallow AS SELECT ALL ` + rec + ` DEPTH 1;`); err != nil {
				t.Fatal(err)
			}
			if out := execR(t, sess, "SELECT ALL FROM expl WHERE name = 'car';"); !strings.Contains(out, "4 atoms, depth 3") {
				t.Fatalf("SELECT over the named closure:\n%s", out)
			}
			if out := execR(t, sess, "SELECT ALL FROM shallow WHERE name = 'car';"); !strings.Contains(out, "2 atoms, depth 1") {
				t.Fatalf("SELECT over the named depth-bounded closure:\n%s", out)
			}
			out := execR(t, sess, "SHOW MOLECULES;")
			for _, want := range []string{
				"MOLECULE TYPE expl = <{parts*}, {<composition, parts, parts> ⟲ down}>;",
				"MOLECULE TYPE shallow = <{parts*}, {<composition, parts, parts> ⟲ down, depth ≤ 1}>;",
			} {
				if !strings.Contains(out, want) {
					t.Fatalf("SHOW MOLECULES misses %q:\n%s", want, out)
				}
			}
			if _, err := sess.Exec("DEFINE MOLECULE TYPE expl AS SELECT ALL " + rec + " UP;"); err == nil {
				t.Fatal("redefining expl was accepted")
			}
		}},
		{"define refuses what it cannot propagate", func(t *testing.T, db *storage.Database, sess *mql.Session) {
			// The SELECT returns one molecule; a DEFINE that dropped the
			// clause would define all four.
			for clause, src := range map[string]string{
				"WHERE":       "DEFINE MOLECULE TYPE carx AS SELECT ALL " + rec + " WHERE name = 'car';",
				"SELECT list": "DEFINE MOLECULE TYPE carx AS SELECT parts(name) " + rec + ";",
			} {
				if _, err := sess.Exec(src); err == nil || !strings.Contains(err.Error(), clause) {
					t.Fatalf("%s: got %v, want an error naming the %s", src, err, clause)
				}
			}
			if _, err := sess.Exec("SELECT ALL FROM carx;"); err == nil {
				t.Fatal("a refused DEFINE registered its name")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, _ := partsDB(t)
			defer plan.Release(db)
			c.run(t, db, mql.NewSession(db))
		})
	}
}

// TestExplainReadsTransactionView: EXPLAIN runs what SELECT runs, through
// the session's read view — the begin snapshot of a clean transaction,
// the effective view of a dirty one — not at the latest commit.
func TestExplainReadsTransactionView(t *testing.T) {
	db, _ := partsDB(t)
	defer plan.Release(db)
	sess, other := mql.NewSession(db), mql.NewSession(db)
	if _, err := sess.Exec("BEGIN;"); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Exec("INSERT INTO parts VALUES ('bolt', 'piece');"); err != nil {
		t.Fatal(err)
	}
	// Clean transaction: the other session's later commit is invisible to
	// SELECT, so it must be invisible to EXPLAIN's actuals.
	if out := execR(t, sess, "SELECT ALL FROM parts;"); !strings.Contains(out, "4 molecule(s)") {
		t.Fatalf("begin-snapshot SELECT:\n%s", out)
	}
	if out := execR(t, sess, "EXPLAIN SELECT ALL FROM parts;"); !strings.Contains(out, "actual 4)") || !strings.Contains(out, "output:    4 molecule(s)") {
		t.Fatalf("EXPLAIN in a clean transaction read past the begin snapshot:\n%s", out)
	}
	// Dirty transaction: the buffered insert is what SELECT returns, so
	// EXPLAIN reports it — entered by the full scan, the only path that
	// reaches uncommitted atoms.
	if _, err := sess.Exec("INSERT INTO parts VALUES ('nut', 'piece');"); err != nil {
		t.Fatal(err)
	}
	out := execR(t, sess, "EXPLAIN SELECT ALL FROM parts WHERE name = 'nut';")
	for _, want := range []string{"access:    full scan of parts", "actual 1)", "output:    1 molecule(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN in a dirty transaction misses %q:\n%s", want, out)
		}
	}
}
