// Tests of the public facade: everything a downstream user touches first.
package mad_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mad"
	"mad/internal/expr"
)

// buildLibrary assembles a small publication database through the facade.
func buildLibrary(t *testing.T) (*mad.Database, *mad.Session) {
	t.Helper()
	db := mad.NewDatabase()
	sess := mad.NewSession(db)
	_, err := sess.ExecScript(`
CREATE ATOM TYPE author (name STRING NOT NULL);
CREATE ATOM TYPE paper (title STRING NOT NULL, year INT);
CREATE LINK TYPE wrote BETWEEN author AND paper;
INSERT INTO author VALUES ('a1'), ('a2');
INSERT INTO paper VALUES ('p1', 1989), ('p2', 1987);
CONNECT author WHERE name = 'a1' TO paper VIA wrote;
CONNECT author WHERE name = 'a2' TO paper WHERE year = 1987 VIA wrote;
`)
	if err != nil {
		t.Fatal(err)
	}
	return db, sess
}

func TestFacadeQuickstartFlow(t *testing.T) {
	db, sess := buildLibrary(t)
	res, err := sess.Exec(`SELECT ALL FROM author-[wrote]-paper;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 2 {
		t.Fatalf("molecules = %d", len(res.Set))
	}
	// p2 is a shared subobject: the same atom (by identity) belongs to
	// both author molecules.
	shared := res.Set.SharedAtoms()
	if len(shared) != 1 {
		t.Fatalf("shared atoms = %v, want exactly the 1987 paper", shared)
	}
	out := res.Render(db)
	if !strings.Contains(out, "p2") || !strings.Contains(out, "a2") {
		t.Fatalf("render incomplete: %s", out)
	}
}

func TestFacadeAlgebraOps(t *testing.T) {
	db, _ := buildLibrary(t)
	mt, err := mad.Define(db, "aw", []string{"author", "paper"},
		[]mad.DirectedLink{{Link: "wrote", From: "author", To: "paper"}})
	if err != nil {
		t.Fatal(err)
	}
	tr := &mad.OpTrace{}
	oldOnly, err := mad.Restrict(mt, expr.Cmp{Op: expr.LT,
		L: expr.Attr{Type: "paper", Name: "year"},
		R: expr.Lit(mad.Int(1989))}, "", tr)
	if err != nil {
		t.Fatal(err)
	}
	n, err := oldOnly.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // both authors wrote the 1987 paper
		t.Fatalf("Σ result = %d molecules", n)
	}
	if len(tr.Phases) < 3 {
		t.Fatal("trace incomplete")
	}
	// Ψ(mt, mt) = mt.
	inter, err := mad.Intersect(mt, mt, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ni, _ := inter.Cardinality(); ni != 2 {
		t.Fatalf("Ψ(x,x) = %d", ni)
	}
	// Atom-level algebra through the facade.
	res, err := mad.AtomRestrict(db, "paper", expr.Cmp{Op: expr.EQ,
		L: expr.Attr{Name: "year"}, R: expr.Lit(mad.Int(1987))}, "")
	if err != nil {
		t.Fatal(err)
	}
	if cnt, _ := db.CountAtoms(res.TypeName); cnt != 1 {
		t.Fatalf("σ result = %d atoms", cnt)
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	db, _ := buildLibrary(t)
	path := filepath.Join(t.TempDir(), "lib.mad")
	if err := mad.Save(db, path); err != nil {
		t.Fatal(err)
	}
	back, err := mad.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalAtoms() != db.TotalAtoms() || back.TotalLinks() != db.TotalLinks() {
		t.Fatal("snapshot round trip lost data")
	}
	// The restored database answers queries.
	sess := mad.NewSession(back)
	res, err := sess.Exec(`SELECT ALL FROM author-[wrote]-paper WHERE paper.year = 1987;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 2 {
		t.Fatalf("restored query = %d molecules", len(res.Set))
	}
}

func TestFacadeEngine(t *testing.T) {
	db, _ := buildLibrary(t)
	e := mad.NewEngine(db)
	res, rep, err := e.RunMQL(`SELECT ALL FROM author-[wrote]-paper;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 2 || rep.AtomLayer.AtomsFetched == 0 {
		t.Fatalf("engine result = %d molecules, report %+v", len(res.Set), rep)
	}
}

func TestFacadeRecursive(t *testing.T) {
	db := mad.NewDatabase()
	sess := mad.NewSession(db)
	if _, err := sess.ExecScript(`
CREATE ATOM TYPE parts (name STRING NOT NULL);
CREATE LINK TYPE composition BETWEEN parts AND parts;
INSERT INTO parts VALUES ('a'), ('b'), ('c');
CONNECT parts WHERE name = 'a' TO parts WHERE name = 'b' VIA composition;
CONNECT parts WHERE name = 'b' TO parts WHERE name = 'c' VIA composition;
`); err != nil {
		t.Fatal(err)
	}
	rt, err := mad.DefineRecursive(db, "", "parts", "composition", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := rt.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0].Size() != 3 {
		t.Fatalf("recursive derive: %d molecules, first size %d", len(ms), ms[0].Size())
	}
}

func TestFacadeParse(t *testing.T) {
	if _, err := mad.Parse("SELECT ALL FROM a-b;"); err != nil {
		t.Fatal(err)
	}
	if _, err := mad.Parse("SELEKT;"); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestFacadeAtomAlgebraFamily(t *testing.T) {
	db, _ := buildLibrary(t)
	// π: project paper titles (set semantics).
	proj, err := mad.AtomProject(db, "paper", []string{"title"}, "titles")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := db.CountAtoms(proj.TypeName); n != 2 {
		t.Fatalf("π = %d atoms", n)
	}
	// ×: authors × papers with inherited link types.
	prod, err := mad.AtomProduct(db, "author", "paper", "authorpaper")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := db.CountAtoms(prod.TypeName); n != 4 {
		t.Fatalf("× = %d atoms", n)
	}
	if len(prod.Inherited) == 0 {
		t.Fatal("product must inherit link types")
	}
	// ω and δ over two σ results.
	old, err := mad.AtomRestrict(db, "paper", expr.Cmp{Op: expr.LT,
		L: expr.Attr{Name: "year"}, R: expr.Lit(mad.Int(1989))}, "")
	if err != nil {
		t.Fatal(err)
	}
	recent, err := mad.AtomRestrict(db, "paper", expr.Cmp{Op: expr.GE,
		L: expr.Attr{Name: "year"}, R: expr.Lit(mad.Int(1989))}, "")
	if err != nil {
		t.Fatal(err)
	}
	u, err := mad.AtomUnion(db, old.TypeName, recent.TypeName, "")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := db.CountAtoms(u.TypeName); n != 2 {
		t.Fatalf("ω = %d atoms", n)
	}
	d, err := mad.AtomDifference(db, u.TypeName, old.TypeName, "")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := db.CountAtoms(d.TypeName); n != 1 {
		t.Fatalf("δ = %d atoms", n)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProductAndUnion(t *testing.T) {
	db, _ := buildLibrary(t)
	mt, err := mad.Define(db, "aw", []string{"author", "paper"},
		[]mad.DirectedLink{{Link: "wrote", From: "author", To: "paper"}})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := mad.Product(mt, mt, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := prod.Cardinality(); n != 4 { // 2 × 2 pairs
		t.Fatalf("X = %d molecules", n)
	}
	u, err := mad.Union(mt, mt, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := u.Cardinality(); n != 2 {
		t.Fatalf("Ω(x,x) = %d molecules", n)
	}
	dd, err := mad.Difference(mt, mt, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := dd.Cardinality(); n != 0 {
		t.Fatalf("Δ(x,x) = %d molecules", n)
	}
	proj, err := mad.Project(mt, mad.Projection{Keep: []string{"author"}}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Desc().NumTypes() != 1 {
		t.Fatal("Π structure wrong")
	}
}

func TestFacadeAtomDescAndValues(t *testing.T) {
	desc, err := mad.NewAtomDesc(
		mad.AttrDesc{Name: "a", Kind: mad.KInt, NotNull: true},
		mad.AttrDesc{Name: "b", Kind: mad.KString},
	)
	if err != nil {
		t.Fatal(err)
	}
	db := mad.NewDatabase()
	if _, err := db.DefineAtomType("t", desc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertAtom("t", mad.Int(1), mad.Str("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertAtom("t", mad.Null(), mad.Str("x")); err == nil {
		t.Fatal("NOT NULL must hold through the facade")
	}
	if _, err := db.InsertAtom("t", mad.Int(1), mad.Bool(true)); err == nil {
		t.Fatal("kind checking must hold through the facade")
	}
	_ = mad.Float(1.5) // exercised elsewhere; keep the constructor visible
}

func TestFacadeStatsAndPlanCache(t *testing.T) {
	db, sess := buildLibrary(t)
	n, err := mad.Analyze(db)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("Analyze built no histograms")
	}
	var h *mad.Histogram
	h, ok := db.Histogram("paper", "year")
	if !ok || h.Total() != 2 {
		t.Fatalf("histogram on paper.year: ok=%v", ok)
	}

	cache := mad.PlanCacheFor(db)
	_, _, base := cache.Counters()
	q := `SELECT ALL FROM author-[wrote]-paper WHERE year = 1987;`
	for i := 0; i < 3; i++ {
		if _, err := sess.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, compiles := cache.Counters(); compiles != base+1 {
		t.Fatalf("3 executions compiled %d plans, want 1", compiles-base)
	}

	res, err := sess.Exec(`EXPLAIN (ESTIMATE) ` + q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "[histogram]") && !strings.Contains(res.Message, "[default]") {
		t.Fatalf("EXPLAIN must label estimate sources:\n%s", res.Message)
	}
	if strings.Contains(res.Message, "actual") {
		t.Fatalf("EXPLAIN (ESTIMATE) executed:\n%s", res.Message)
	}
}

// TestFacadeStreamingQuery drives the streaming surface end to end
// through the facade: QueryContext with per-query options, the Cursor's
// incremental delivery, the Seq adapter, MQL's SET/LIMIT syntax, and
// Plan.Stream with a context.
func TestFacadeStreamingQuery(t *testing.T) {
	db, sess := buildLibrary(t)
	defer mad.ReleasePlanCache(db)

	full, err := sess.Exec(`SELECT ALL FROM author-paper;`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sess.QueryContext(context.Background(), `SELECT ALL FROM author-paper;`,
		mad.WithWorkers(2), mad.WithLimit(1), mad.WithNoCache())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for m := range cur.Seq() {
		if !m.Equal(full.Set[n]) {
			t.Fatalf("streamed molecule %d differs from the materialized order", n)
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("WithLimit(1) delivered %d molecules", n)
	}

	if _, err := sess.Exec(`SET WORKERS = 2;`); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(`SELECT ALL FROM author-paper LIMIT 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 1 {
		t.Fatalf("LIMIT 1 returned %d molecules", len(res.Set))
	}

	// Plan-level streaming: the facade's Stream type is plan.Stream.
	mt, err := mad.Define(db, "", []string{"author", "paper"},
		[]mad.DirectedLink{{Link: "wrote", From: "author", To: "paper"}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := mad.CompilePlan(db, mt.Desc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var st *mad.Stream
	st, err = p.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		m, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			break
		}
		got++
	}
	if got != len(full.Set) {
		t.Fatalf("plan stream delivered %d, want %d", got, len(full.Set))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// durableLibrary seeds a durable database with enough rows that ANALYZE
// builds meaningful histograms.
func durableLibrary(t *testing.T, dir string) (*mad.Database, *mad.Session) {
	t.Helper()
	db, err := mad.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess := mad.NewSession(db)
	var sb strings.Builder
	sb.WriteString(`
CREATE ATOM TYPE author (name STRING NOT NULL);
CREATE ATOM TYPE paper (title STRING NOT NULL, year INT);
CREATE LINK TYPE wrote BETWEEN author AND paper;
`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "INSERT INTO author VALUES ('a%d');\n", i)
		fmt.Fprintf(&sb, "INSERT INTO paper VALUES ('p%d', %d);\n", i, 1980+i%10)
		fmt.Fprintf(&sb, "CONNECT author WHERE name = 'a%d' TO paper WHERE title = 'p%d' VIA wrote;\n", i, i)
	}
	if _, err := sess.ExecScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	return db, sess
}

// TestDurableOpenRoundTrip is the basic durability contract through the
// facade: committed data survives Close and reopens without a checkpoint.
func TestDurableOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, sess := durableLibrary(t, dir)
	res, err := sess.Exec(`SELECT ALL FROM author-[wrote]-paper;`)
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Set)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := mad.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res2, err := mad.NewSession(db2).Exec(`SELECT ALL FROM author-[wrote]-paper;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Set) != want {
		t.Fatalf("recovered %d molecules, want %d", len(res2.Set), want)
	}
}

// TestCheckpointRequiresDurable pins down the in-memory behaviour: the
// CHECKPOINT statement must refuse a database with no directory.
func TestCheckpointRequiresDurable(t *testing.T) {
	_, sess := buildLibrary(t)
	if _, err := sess.Exec(`CHECKPOINT;`); err == nil {
		t.Fatal("CHECKPOINT on an in-memory database must fail")
	}
}

// TestRestartKeepsHistograms pins what survives a restart of the planner's
// state: the histograms ANALYZE built live in the checkpoint, so the first
// EXPLAIN after reopening estimates from them and plans exactly as the
// live session did; the plan cache is memory-only, so the directory holds
// nothing beside the WAL segments and the checkpoint.
func TestRestartKeepsHistograms(t *testing.T) {
	dir := t.TempDir()
	db, sess := durableLibrary(t, dir)

	q := `SELECT ALL FROM author-[wrote]-paper WHERE year = 1985 AND COUNT(paper) >= COUNT(author);`
	script := []string{
		`ANALYZE;`,
		`EXPLAIN ` + q, // executes the plan
		`EXPLAIN ` + q,
		`CHECKPOINT;`,
	}
	for _, stmt := range script {
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	res, err := sess.Exec(`EXPLAIN (ESTIMATE) ` + q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "[histogram]") {
		t.Fatalf("pre-restart EXPLAIN lacks [histogram] provenance:\n%s", res.Message)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if ok, _ := filepath.Match("wal-*.log", e.Name()); !ok && e.Name() != "checkpoint.mad" {
			t.Errorf("database directory holds %s; want only wal-*.log and checkpoint.mad", e.Name())
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := mad.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res2, err := mad.NewSession(db2).Exec(`EXPLAIN (ESTIMATE) ` + q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Message != res.Message {
		t.Fatalf("first post-restart EXPLAIN differs from the live session's:\n%s\nwant:\n%s", res2.Message, res.Message)
	}
}
