package mql_test

import (
	"strings"
	"testing"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/geo"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/storage"
)

func session(t *testing.T) (*mql.Session, *geo.Sample) {
	t.Helper()
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	return mql.NewSession(s.DB), s
}

func TestParseStructureChain(t *testing.T) {
	st, err := mql.Parse("SELECT ALL FROM state-area-edge-point")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*mql.SelectStmt)
	if sel.From.Struct.String() != "state-area-edge-point" {
		t.Fatalf("structure = %s", sel.From.Struct)
	}
}

func TestParseStructureBranch(t *testing.T) {
	st, err := mql.Parse("SELECT ALL FROM point-edge-(area-state, net-river) WHERE point.name = 'pn'")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*mql.SelectStmt)
	s := sel.From.Struct
	if s.Type != "point" || len(s.Children) != 1 {
		t.Fatalf("root = %+v", s)
	}
	edge := s.Children[0].Node
	if edge.Type != "edge" || len(edge.Children) != 2 {
		t.Fatalf("edge node = %+v", edge)
	}
	if edge.Children[0].Node.Type != "area" || edge.Children[1].Node.Type != "net" {
		t.Fatalf("branches wrong: %s", s)
	}
	if sel.Where == nil {
		t.Fatal("WHERE lost")
	}
}

func TestParseExplicitLink(t *testing.T) {
	st, err := mql.Parse("SELECT ALL FROM state-[state-area]-area")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*mql.SelectStmt)
	if sel.From.Struct.Children[0].Link != "state-area" {
		t.Fatalf("explicit link = %q", sel.From.Struct.Children[0].Link)
	}
}

func TestParseNamedDefinition(t *testing.T) {
	st, err := mql.Parse("SELECT ALL FROM mt_state(state-area-edge-point)")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*mql.SelectStmt)
	if sel.From.Name != "mt_state" {
		t.Fatalf("name = %q", sel.From.Name)
	}
	if sel.From.Struct == nil {
		t.Fatal("structure missing")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT",
		"SELECT ALL",
		"SELECT ALL FROM",
		"SELECT ALL FROM a-(b,c)-d",   // chain after group
		"SELECT ALL FROM a WHERE",     // missing predicate
		"FRobnicate",                  // unknown statement
		"SELECT ALL FROM a; SELECT",   // trailing garbage for Parse
		"INSERT INTO t VALUES 1",      // missing parens
		"CREATE ATOM TYPE t (a BLOB)", // unknown kind
		"SHOW CACHE",                  // unknown SHOW target
	}
	for _, src := range bad {
		if _, err := mql.Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestQ1PaperQuery reproduces the paper's first MQL example:
// SELECT ALL FROM mt_state(state-area-edge-point) and checks it against
// the hand-built algebra expression α[mt_state, ...](state,area,edge,point).
func TestQ1PaperQuery(t *testing.T) {
	sess, s := session(t)
	res, err := sess.Exec("SELECT ALL FROM mt_state(state-area-edge-point);")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != mql.RMolecules {
		t.Fatal("wrong result kind")
	}
	// Hand-built algebra equivalent.
	mt, err := core.Define(s.DB, "mt_state_manual",
		[]string{"state", "area", "edge", "point"},
		[]core.DirectedLink{
			{Link: "state-area", From: "state", To: "area"},
			{Link: "area-edge", From: "area", To: "edge"},
			{Link: "edge-point", From: "edge", To: "point"},
		})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mt.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != len(want) {
		t.Fatalf("MQL %d molecules, algebra %d", len(res.Set), len(want))
	}
	for i := range want {
		if res.Set[i].Key() != want[i].Key() {
			t.Fatalf("molecule %d differs between MQL and algebra", i)
		}
	}
	// The named definition is registered and reusable.
	res2, err := sess.Exec("SELECT ALL FROM mt_state;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Set) != len(want) {
		t.Fatal("named reuse failed")
	}
}

// TestQ2PaperQuery reproduces the paper's second MQL example: the
// symmetric point-neighborhood query with restriction point.name = 'pn',
// checked against Σ[restr(point.name='pn')](point-neighborhood).
func TestQ2PaperQuery(t *testing.T) {
	sess, s := session(t)
	res, err := sess.Exec("SELECT ALL FROM point-edge-(area-state, net-river) WHERE point.name = 'pn';")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 1 {
		t.Fatalf("|result| = %d, want 1", len(res.Set))
	}
	m := res.Set[0]
	if m.Root() != s.PN {
		t.Fatal("wrong root")
	}
	// Algebra: α then Σ.
	pnMT, err := core.Define(s.DB, "point-neighborhood",
		[]string{"point", "edge", "area", "state", "net", "river"},
		[]core.DirectedLink{
			{Link: "edge-point", From: "point", To: "edge"},
			{Link: "area-edge", From: "edge", To: "area"},
			{Link: "state-area", From: "area", To: "state"},
			{Link: "net-edge", From: "edge", To: "net"},
			{Link: "river-net", From: "net", To: "river"},
		})
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := core.Restrict(pnMT, expr.Cmp{Op: expr.EQ,
		L: expr.Attr{Type: "point", Name: "name"},
		R: expr.Lit(model.Str("pn"))}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sigma.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 {
		t.Fatalf("algebra |Σ| = %d", len(want))
	}
	// Same component atoms (the propagated molecule has renamed types but
	// identical atom identity sets, compared positionally).
	if want[0].Root() != m.Root() || want[0].Size() != m.Size() {
		t.Fatalf("MQL and algebra disagree: size %d vs %d", m.Size(), want[0].Size())
	}
	// Both reach the Fig. 2 result: 4 states + river Parana.
	if len(m.AtomsOf("state")) != 4 || len(m.AtomsOf("river")) != 1 {
		t.Fatalf("states=%d rivers=%d", len(m.AtomsOf("state")), len(m.AtomsOf("river")))
	}
}

func TestSelectProjection(t *testing.T) {
	sess, _ := session(t)
	res, err := sess.Exec("SELECT state.name, area FROM state-area-edge-point WHERE state.hectare > 500;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 2 { // MG, BA
		t.Fatalf("|result| = %d, want 2", len(res.Set))
	}
	d := res.Desc
	if d.NumTypes() != 2 || d.Root() != "state" {
		t.Fatalf("projected desc = %s", d)
	}
	if got := res.Attrs["state"]; len(got) != 1 || got[0] != "name" {
		t.Fatalf("attr narrowing = %v", res.Attrs)
	}
	out := res.Render(sess.DB())
	if !strings.Contains(out, "Minas Gerais") || strings.Contains(out, "abbrev") {
		t.Fatalf("render: %s", out)
	}
	// Projection without the root fails.
	if _, err := sess.Exec("SELECT area FROM state-area;"); err == nil {
		t.Fatal("projection dropping root must fail")
	}
}

func TestWhereSemantics(t *testing.T) {
	sess, _ := session(t)
	// Existential: molecules where SOME point is the junction pn.
	res, err := sess.Exec("SELECT ALL FROM state-area-edge-point WHERE point.name = 'p_border_0';")
	if err != nil {
		t.Fatal(err)
	}
	// p_border_0 is an endpoint of two ring edges (b_0 and b_9), which
	// belong to the borders of MG, BA and RS: three molecules share it.
	if len(res.Set) != 3 {
		t.Fatalf("|result| = %d, want 3 (shared border point)", len(res.Set))
	}
	// COUNT aggregate.
	res, err = sess.Exec("SELECT ALL FROM state-area-edge-point WHERE COUNT(edge) >= 4;")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Set {
		if len(m.AtomsOf("edge")) < 4 {
			t.Fatal("COUNT filter leaked")
		}
	}
	// EXISTS + AND + OR + NOT.
	if _, err := sess.Exec("SELECT ALL FROM state-area-edge-point WHERE EXISTS(edge) AND (state.hectare > 100 OR NOT state.abbrev = 'SP');"); err != nil {
		t.Fatal(err)
	}
	// Unknown attribute is a static error.
	if _, err := sess.Exec("SELECT ALL FROM state-area WHERE state.nosuch = 1;"); err == nil {
		t.Fatal("unknown attribute must fail")
	}
}

func TestIndexPushdownSameResult(t *testing.T) {
	sess, s := session(t)
	if err := s.DB.CreateIndex("point", "name"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT ALL FROM point-edge-(area-state, net-river) WHERE point.name = 'pn';"
	res, err := sess.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 1 {
		t.Fatalf("|result| = %d", len(res.Set))
	}
	// EXPLAIN reports the index plan.
	plan, err := sess.Exec("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Message, "index lookup point.name") {
		t.Fatalf("plan: %s", plan.Message)
	}
}

func TestDDLAndDML(t *testing.T) {
	db := storage.NewDatabase()
	sess := mql.NewSession(db)
	script := `
CREATE ATOM TYPE parts (name STRING NOT NULL, weight FLOAT);
CREATE ATOM TYPE supplier (name STRING NOT NULL);
CREATE LINK TYPE supplies BETWEEN supplier AND parts;
CREATE INDEX ON parts(name);
INSERT INTO parts VALUES ('engine', 120.5), ('piston', 2.5);
INSERT INTO parts (name) VALUES ('ring');
INSERT INTO supplier VALUES ('acme');
CONNECT supplier WHERE name = 'acme' TO parts WHERE name = 'engine' VIA supplies;
`
	if _, err := sess.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.CountAtoms("parts"); n != 3 {
		t.Fatalf("parts = %d", n)
	}
	if n, _ := db.CountLinks("supplies"); n != 1 {
		t.Fatalf("supplies = %d", n)
	}
	res, err := sess.Exec("SELECT ALL FROM supplier-supplies-parts;")
	if err == nil {
		// supplier-supplies-parts parses supplies as a type; must fail.
		t.Fatalf("expected failure, got %d molecules", len(res.Set))
	}
	res, err = sess.Exec("SELECT ALL FROM supplier-[supplies]-parts;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 1 {
		t.Fatalf("molecules = %d", len(res.Set))
	}
	// UPDATE and DELETE.
	if r, err := sess.Exec("UPDATE parts SET weight = 3.0 WHERE name = 'piston';"); err != nil || r.Affected != 1 {
		t.Fatalf("update: %v %+v", err, r)
	}
	if r, err := sess.Exec("DELETE FROM parts WHERE name = 'ring';"); err != nil || r.Affected != 1 {
		t.Fatalf("delete: %v", err)
	}
	if n, _ := db.CountAtoms("parts"); n != 2 {
		t.Fatalf("parts after delete = %d", n)
	}
	// DISCONNECT.
	if r, err := sess.Exec("DISCONNECT supplier WHERE name = 'acme' TO parts WHERE name = 'engine' VIA supplies;"); err != nil || r.Affected != 1 {
		t.Fatalf("disconnect: %v", err)
	}
	if n, _ := db.CountLinks("supplies"); n != 0 {
		t.Fatal("link not removed")
	}
}

func TestDefineUsesPlannedRestrict(t *testing.T) {
	sess, s := session(t)
	if err := s.DB.CreateIndex("state", "abbrev"); err != nil {
		t.Fatal(err)
	}
	// The DEFINE runs Σ through the planner: the indexed root equality
	// must use the index (visible as an index lookup in the stats) and
	// the derived type's occurrence must match the query-mode SELECT.
	before := s.DB.Stats().Snapshot()
	if _, err := sess.Exec("DEFINE MOLECULE TYPE sp AS SELECT ALL FROM state-area-edge-point WHERE state.abbrev = 'SP';"); err != nil {
		t.Fatal(err)
	}
	if d := s.DB.Stats().Snapshot().Sub(before); d.IndexLookups == 0 {
		t.Fatal("DEFINE ... WHERE on an indexed attribute must use the index")
	}
	res, err := sess.Exec("SELECT ALL FROM sp;")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Exec("SELECT ALL FROM state-area-edge-point WHERE state.abbrev = 'SP';")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != len(want.Set) || len(want.Set) != 1 {
		t.Fatalf("derived %d molecules, query mode %d, want 1", len(res.Set), len(want.Set))
	}
	if res.Set[0].Root() != want.Set[0].Root() || res.Set[0].Size() != want.Set[0].Size() {
		t.Fatal("derived molecule differs from query-mode result")
	}
}

func TestExplainShowsPushdownAndCardinalities(t *testing.T) {
	sess, s := session(t)
	if err := s.DB.CreateIndex("state", "abbrev"); err != nil {
		t.Fatal(err)
	}
	plan, err := sess.Exec("EXPLAIN SELECT ALL FROM state-area-edge-point WHERE state.abbrev = 'SP' AND edge.tag = 'e_pn_SP';")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`index lookup state.abbrev = "SP"`,
		"est ≈",
		"actual",
		`pushdown:  Σ↓[edge.tag = "e_pn_SP"] at edge`,
	} {
		if !strings.Contains(plan.Message, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, plan.Message)
		}
	}
}

// TestExplainShowsInteriorIndexEntry checks the symmetric access path
// surfaces in EXPLAIN: with an index on a selective mid-structure
// attribute, the plan enters the structure at the interior type, climbs
// to the roots, and the transcript names the entry point, the climb and
// the access-path contest.
func TestExplainShowsInteriorIndexEntry(t *testing.T) {
	sess, s := session(t)
	if err := s.DB.CreateIndex("edge", "tag"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT ALL FROM state-area-edge-point WHERE edge.tag = 'e_pn_SP';"
	plan, err := sess.Exec("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`[interior-index] entry at edge.tag = "e_pn_SP"`,
		"recover roots upward edge ⇡ area ⇡ state",
		"considered:",
		"← chosen",
		"full scan of state (cost",
	} {
		if !strings.Contains(plan.Message, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, plan.Message)
		}
	}
	// The interior plan must return exactly what the query returns.
	res, err := sess.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != mql.RMolecules || len(res.Set) == 0 {
		t.Fatalf("query through the interior plan returned %d molecules", len(res.Set))
	}
}

func TestDefineMoleculeTypeAlgebraMode(t *testing.T) {
	sess, s := session(t)
	res, err := sess.Exec("DEFINE MOLECULE TYPE big_states AS SELECT ALL FROM state-area-edge-point WHERE state.hectare > 300;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "big_states") {
		t.Fatalf("message: %s", res.Message)
	}
	mt, ok := sess.NamedType("big_states")
	if !ok {
		t.Fatal("named type not registered")
	}
	set, err := mt.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 { // MG 900, BA 1000, GO 340, MS 357
		t.Fatalf("|big_states| = %d, want 4", len(set))
	}
	if err := core.VerifySet(s.DB, set); err != nil {
		t.Fatal(err)
	}
	// Reusable in a follow-up query (closure at the language level).
	res2, err := sess.Exec("SELECT ALL FROM big_states;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Set) != 4 {
		t.Fatalf("reuse = %d molecules", len(res2.Set))
	}
	// With projection.
	if _, err := sess.Exec("DEFINE MOLECULE TYPE state_names AS SELECT state.name, area FROM state-area-edge-point;"); err != nil {
		t.Fatal(err)
	}
	mt2, _ := sess.NamedType("state_names")
	if mt2.Desc().NumTypes() != 2 {
		t.Fatalf("projected define = %s", mt2.Desc())
	}
}

func TestRecursiveSelect(t *testing.T) {
	db := storage.NewDatabase()
	sess := mql.NewSession(db)
	setup := `
CREATE ATOM TYPE parts (name STRING NOT NULL);
CREATE LINK TYPE composition BETWEEN parts AND parts;
INSERT INTO parts VALUES ('car'), ('engine'), ('piston'), ('ring');
CONNECT parts WHERE name = 'car' TO parts WHERE name = 'engine' VIA composition;
CONNECT parts WHERE name = 'engine' TO parts WHERE name = 'piston' VIA composition;
CONNECT parts WHERE name = 'piston' TO parts WHERE name = 'ring' VIA composition;
`
	if _, err := sess.ExecScript(setup); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec("SELECT ALL FROM RECURSIVE parts VIA composition WHERE name = 'car';")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 1 {
		t.Fatalf("|rec| = %d", len(res.Set))
	}
	m := res.Set[0]
	if m.Size() != 4 || len(m.Levels()) != 4 {
		t.Fatalf("parts explosion size=%d levels=%d", m.Size(), len(m.Levels()))
	}
	// Super-component view from the leaf.
	res, err = sess.Exec("SELECT ALL FROM RECURSIVE parts VIA composition UP WHERE name = 'ring';")
	if err != nil {
		t.Fatal(err)
	}
	if res.Set[0].Size() != 4 {
		t.Fatalf("where-used size = %d", res.Set[0].Size())
	}
	// Depth bound.
	res, err = sess.Exec("SELECT ALL FROM RECURSIVE parts VIA composition DEPTH 1 WHERE name = 'car';")
	if err != nil {
		t.Fatal(err)
	}
	if res.Set[0].Size() != 2 {
		t.Fatalf("depth-1 size = %d", res.Set[0].Size())
	}
	out := res.Render(db)
	if !strings.Contains(out, "level 1") {
		t.Fatalf("render: %s", out)
	}
}

func TestShowStatements(t *testing.T) {
	sess, _ := session(t)
	if _, err := sess.Exec("SELECT ALL FROM mt_state(state-area-edge-point);"); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec("SHOW SCHEMA;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "ATOM TYPE state") {
		t.Fatalf("schema: %s", res.Message)
	}
	res, err = sess.Exec("SHOW MOLECULE TYPES;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "mt_state") {
		t.Fatalf("molecule types: %s", res.Message)
	}
	if _, err := sess.Exec("SHOW STATS;"); err != nil {
		t.Fatal(err)
	}
}

func TestRenderSharedMarks(t *testing.T) {
	// A structure where both branches reach the same atom renders the
	// second occurrence with a shared mark.
	db := storage.NewDatabase()
	sess := mql.NewSession(db)
	setup := `
CREATE ATOM TYPE r (v INT);
CREATE ATOM TYPE a (v INT);
CREATE ATOM TYPE c (v INT);
CREATE LINK TYPE ra BETWEEN r AND a;
CREATE LINK TYPE rc BETWEEN r AND c;
CREATE LINK TYPE ac BETWEEN a AND c;
INSERT INTO r VALUES (1);
INSERT INTO a VALUES (2);
INSERT INTO c VALUES (3);
CONNECT r TO a VIA ra;
CONNECT r TO c VIA rc;
CONNECT a TO c VIA ac;
`
	if _, err := sess.ExecScript(setup); err != nil {
		t.Fatal(err)
	}
	// r-(a-c) plus r-c: c reachable twice. Structure r-(a-c, c) needs c
	// once in C; use branch syntax.
	res, err := sess.Exec("SELECT ALL FROM r-(a-[ac]-c)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 1 {
		t.Fatalf("|result| = %d", len(res.Set))
	}
}

func TestDefineSetOperations(t *testing.T) {
	sess, s := session(t)
	script := `
DEFINE MOLECULE TYPE big AS SELECT ALL FROM state-area-edge-point WHERE state.hectare > 300;
DEFINE MOLECULE TYPE small AS SELECT ALL FROM state-area-edge-point WHERE state.hectare <= 300;
DEFINE MOLECULE TYPE everything AS UNION OF big AND small;
DEFINE MOLECULE TYPE bigagain AS DIFFERENCE OF everything AND small;
DEFINE MOLECULE TYPE common AS INTERSECT OF everything AND big;
`
	if _, err := sess.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	card := func(name string) int {
		t.Helper()
		mt, ok := sess.NamedType(name)
		if !ok {
			t.Fatalf("type %q not registered", name)
		}
		n, err := mt.Cardinality()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if card("big") != 4 || card("small") != 6 {
		t.Fatalf("partition: big=%d small=%d", card("big"), card("small"))
	}
	if card("everything") != 10 {
		t.Fatalf("Ω = %d", card("everything"))
	}
	if card("bigagain") != 4 {
		t.Fatalf("Δ = %d", card("bigagain"))
	}
	if card("common") != 4 {
		t.Fatalf("Ψ = %d", card("common"))
	}
	// Results queryable through SELECT.
	res, err := sess.Exec("SELECT ALL FROM everything;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 10 {
		t.Fatalf("SELECT over Ω result = %d", len(res.Set))
	}
	if err := s.DB.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Unknown operand errors.
	if _, err := sess.Exec("DEFINE MOLECULE TYPE x AS UNION OF nope AND big;"); err == nil {
		t.Fatal("unknown operand must fail")
	}
	// Incompatible operands (different shapes) error.
	if _, err := sess.Exec("DEFINE MOLECULE TYPE sa AS SELECT ALL FROM state-area;"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("DEFINE MOLECULE TYPE y AS UNION OF sa AND big;"); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}
