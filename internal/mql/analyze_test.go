package mql_test

import (
	"fmt"
	"strings"
	"testing"

	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/storage"
)

func TestAnalyzeStatement(t *testing.T) {
	sess, s := session(t)
	res, err := sess.Exec("ANALYZE state;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "histogram") {
		t.Fatalf("ANALYZE message: %s", res.Message)
	}
	if _, ok := s.DB.Histogram("state", "hectare"); !ok {
		t.Fatal("ANALYZE state must build a histogram on state.hectare")
	}
	if _, ok := s.DB.Histogram("area", "tag"); ok {
		t.Fatal("ANALYZE state must not touch other types")
	}
	if _, err := sess.Exec("ANALYZE;"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.DB.Histogram("area", "tag"); !ok {
		t.Fatal("bare ANALYZE must cover every atom type")
	}
	if _, err := sess.Exec("ANALYZE nosuch;"); err == nil {
		t.Fatal("ANALYZE of an unknown type must fail")
	}

	show, err := sess.Exec("SHOW HISTOGRAMS;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(show.Message, "HISTOGRAM ON state.hectare") {
		t.Fatalf("SHOW HISTOGRAMS: %s", show.Message)
	}
}

func TestExplainEstimateDoesNotExecute(t *testing.T) {
	sess, s := session(t)
	if err := s.DB.CreateIndex("state", "abbrev"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT ALL FROM state-area-edge-point WHERE state.abbrev = 'SP';"

	s.DB.Stats().Reset()
	res, err := sess.Exec("EXPLAIN (ESTIMATE) " + q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != mql.RPlan {
		t.Fatalf("kind = %v", res.Kind)
	}
	if !strings.Contains(res.Message, "est ≈") {
		t.Fatalf("estimate missing:\n%s", res.Message)
	}
	if strings.Contains(res.Message, "actual") {
		t.Fatalf("EXPLAIN (ESTIMATE) must not report actuals:\n%s", res.Message)
	}
	if w := s.DB.Stats().Snapshot(); w.AtomsFetched != 0 || w.LinksTraversed != 0 {
		t.Fatalf("EXPLAIN (ESTIMATE) touched the database: %s", w)
	}

	// The plain form still executes and reports actuals.
	res, err = sess.Exec("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "actual") {
		t.Fatalf("plain EXPLAIN must report actuals:\n%s", res.Message)
	}
}

// TestSessionPlanCacheProbe: a named-molecule SELECT compiles on the
// indexes and statistics of the moment — the statement right after
// CREATE INDEX enters by the index, the one right after ANALYZE
// estimates from the histogram.
func TestSessionPlanCacheProbe(t *testing.T) {
	sess, _ := session(t)
	if _, err := sess.Exec("DEFINE MOLECULE TYPE mt_st AS SELECT ALL FROM state-area;"); err != nil {
		t.Fatal(err)
	}
	explain := func() string {
		t.Helper()
		if _, err := sess.Exec("SELECT ALL FROM mt_st WHERE abbrev = 'NY';"); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Exec("EXPLAIN (ESTIMATE) SELECT ALL FROM mt_st WHERE abbrev = 'NY';")
		if err != nil {
			t.Fatal(err)
		}
		return res.Message
	}
	if out := explain(); !strings.Contains(out, "access:    full scan of state") {
		t.Fatalf("no index yet, yet:\n%s", out)
	}
	if _, err := sess.Exec("CREATE INDEX ON state(abbrev);"); err != nil {
		t.Fatal(err)
	}
	out := explain()
	if !strings.Contains(out, "access:    index lookup state.abbrev") {
		t.Fatalf("the statement after CREATE INDEX does not enter by it:\n%s", out)
	}
	if strings.Contains(out, "[histogram]") {
		t.Fatalf("histogram estimate before ANALYZE:\n%s", out)
	}
	if _, err := sess.Exec("ANALYZE state;"); err != nil {
		t.Fatal(err)
	}
	if out := explain(); !strings.Contains(out, "[histogram]") {
		t.Fatalf("the statement after ANALYZE does not estimate from the histogram:\n%s", out)
	}
}

// TestExplainCostsCurrentStatistics: a session's plan is costed on the
// statistics of the moment it compiles. After a SELECT ran, a commit of
// nine links moves side a's fan by a tenth (90 → 99 links over 45 atoms)
// while no index, type or histogram changes; the session's EXPLAIN
// (ESTIMATE) of the same statement must then render byte-equal to a fresh
// compile over the same database.
func TestExplainCostsCurrentStatistics(t *testing.T) {
	db := storage.NewDatabase()
	sess := mql.NewSession(db)
	var sb strings.Builder
	sb.WriteString(`
CREATE ATOM TYPE a (k INT NOT NULL);
CREATE ATOM TYPE b (v INT NOT NULL);
CREATE LINK TYPE ab BETWEEN a AND b;
CREATE INDEX ON b(v);
`)
	for i := 0; i < 45; i++ {
		fmt.Fprintf(&sb, "INSERT INTO a VALUES (%d);\n", i)
		for j := 0; j < 2; j++ {
			fmt.Fprintf(&sb, "INSERT INTO b VALUES (%d);\n", 2*i+j)
			fmt.Fprintf(&sb, "CONNECT a WHERE k = %d TO b WHERE v = %d VIA ab;\n", i, 2*i+j)
		}
	}
	if _, err := sess.ExecScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT ALL FROM a-[ab]-b WHERE b.v = 7;"
	if _, err := sess.Exec(q); err != nil {
		t.Fatal(err)
	}

	ca, _ := db.Container("a")
	cb, _ := db.Container("b")
	as, bs := db.View(0).IDs(ca), db.View(0).IDs(cb)
	txn := db.Begin()
	for i := 0; i < 9; i++ {
		if err := txn.Connect("ab", as[i], bs[2*i+4]); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	res, err := sess.Exec("EXPLAIN (ESTIMATE) " + q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*mql.SelectStmt)
	desc, err := mql.BuildDesc(db, sel.From.Struct)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := plan.CompileOrdered(db, desc, sel.Where, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Message != fresh.Render() {
		t.Fatalf("the session's EXPLAIN renders\n%s\na compile over the same database renders\n%s", res.Message, fresh.Render())
	}
}
