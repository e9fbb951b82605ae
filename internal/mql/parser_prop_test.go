package mql_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mad/internal/mql"
)

// randStructure builds a random structure AST with unique type names.
func randStructure(rng *rand.Rand) *mql.StructNode {
	counter := 0
	newName := func() string {
		counter++
		return "t" + string(rune('a'+counter%26)) + itoa(counter)
	}
	var build func(depth int) *mql.StructNode
	build = func(depth int) *mql.StructNode {
		n := &mql.StructNode{Type: newName()}
		if depth >= 3 {
			return n
		}
		switch rng.Intn(4) {
		case 0: // leaf
		case 1: // chain
			child := build(depth + 1)
			n.Children = []mql.StructEdge{{Node: child}}
		case 2: // chain with explicit link
			child := build(depth + 1)
			n.Children = []mql.StructEdge{{Link: "lnk-" + child.Type, Node: child}}
		case 3: // branch
			k := 2 + rng.Intn(2)
			for i := 0; i < k; i++ {
				n.Children = append(n.Children, mql.StructEdge{Node: build(depth + 1)})
			}
		}
		return n
	}
	return build(0)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestStructureRenderReparseRoundTrip: rendering a random structure AST
// and reparsing it yields the same tree (modulo the branch-group detail
// that a single child renders as a chain).
func TestStructureRenderReparseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randStructure(rng)
		src := "SELECT ALL FROM " + orig.String()
		stmt, err := mql.Parse(src)
		if err != nil {
			t.Logf("reparse of %q failed: %v", orig, err)
			return false
		}
		sel, ok := stmt.(*mql.SelectStmt)
		if !ok || sel.From.Struct == nil {
			return false
		}
		got := sel.From.Struct.String()
		want := orig.String()
		if got != want {
			t.Logf("round trip: %q vs %q", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPredicateRenderReparse: the String() of a parsed WHERE predicate
// reparses to a predicate with the same rendering (fixed point after one
// round).
func TestPredicateRenderReparse(t *testing.T) {
	preds := []string{
		"a.x = 1",
		"a.x <> 'str'",
		"a.x > 1 AND b.y < 2.5",
		"NOT (a.x = 1 OR b.y = 2)",
		"EXISTS(net) AND COUNT(edge) >= 3",
		"LEN(name) + 1 = 5",
		"a.x * 2 - 1 >= b.y % 3",
		"CONTAINS(name, 'pn') OR PREFIX(name, 'p_')",
	}
	for _, p := range preds {
		stmt, err := mql.Parse("SELECT ALL FROM t WHERE " + p)
		if err != nil {
			t.Fatalf("parse %q: %v", p, err)
		}
		first := stmt.(*mql.SelectStmt).Where.String()
		stmt2, err := mql.Parse("SELECT ALL FROM t WHERE " + first)
		if err != nil {
			t.Fatalf("reparse %q (rendered %q): %v", p, first, err)
		}
		second := stmt2.(*mql.SelectStmt).Where.String()
		if first != second {
			t.Errorf("not a fixed point: %q → %q", first, second)
		}
	}
}

// depthBound is the parser's nesting budget: a statement may open this
// many groups, function calls, NOTs, unary minuses and branch groups
// inside one another, and one more is an error.
const depthBound = 1000

// nestingForms builds a statement nesting each recursive form of the
// grammar n levels deep.
var nestingForms = []struct {
	name  string
	build func(n int) string
}{
	{"parens", func(n int) string {
		return "SELECT ALL FROM a WHERE " + strings.Repeat("(", n) + "a.x = 1" + strings.Repeat(")", n)
	}},
	{"not", func(n int) string { return "SELECT ALL FROM a WHERE " + strings.Repeat("NOT ", n) + "a.x = 1" }},
	{"minus", func(n int) string { return "SELECT ALL FROM a WHERE a.x = " + strings.Repeat("- ", n) + "1" }},
	{"call", func(n int) string {
		return "SELECT ALL FROM a WHERE " + strings.Repeat("LEN(", n) + "a.x" + strings.Repeat(")", n) + " = 1"
	}},
	{"branch", func(n int) string { return "SELECT ALL FROM a" + strings.Repeat("-(b", n) + strings.Repeat(")", n) }},
}

// TestParseNestingBudget: every recursive form parses at the bound, fails
// with an offset-bearing error one level past it, and the budget is per
// statement, not per script.
func TestParseNestingBudget(t *testing.T) {
	for _, f := range nestingForms {
		at := f.build(depthBound)
		if _, err := mql.ParseScript(at + ";" + at); err != nil {
			t.Errorf("%s at the bound: %v", f.name, err)
		}
		_, err := mql.Parse(f.build(depthBound + 1))
		if err == nil || !strings.Contains(err.Error(), "nests deeper than 1000 levels at offset") {
			t.Errorf("%s past the bound: got %v", f.name, err)
		}
	}
}

// FuzzParse: no input makes Parse or ParseScript panic, and neither does
// rendering the predicate of an accepted SELECT. CI runs it with
//
//	go test -run='^$' -fuzz=FuzzParse -fuzztime=60s ./internal/mql
//
// Seeds: the README's statements, one statement nested exactly at the
// depth bound, and random strings of the grammar's tokens.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"CREATE ATOM TYPE state (name STRING NOT NULL, hectare FLOAT);",
		"CREATE LINK TYPE state-area BETWEEN state AND area;",
		"INSERT INTO state VALUES ('Minas Gerais', 900.0);",
		"CONNECT state TO area VIA state-area;",
		"CONNECT state WHERE name = 'Bahia' TO area WHERE tag = 'a_BA' VIA state-area;",
		"CREATE INDEX ON state(abbrev); ANALYZE;",
		"SELECT ALL FROM state-area WHERE hectare > 500;",
		"EXPLAIN SELECT ALL FROM state-area-edge-point WHERE state.abbrev = 'SP' AND edge.tag = 'e_pn_SP';",
		"EXPLAIN (ESTIMATE) SELECT ALL FROM state-area-edge-point WHERE edge.tag = 'e_pn_SP';",
		"EXPLAIN SELECT ALL FROM job-(machine, tool) WHERE job.id >= 8 AND job.id < 16;",
		"EXPLAIN SELECT COUNT FROM grp-[gi]-item WHERE item.tag = 'hot';",
		"PREPARE shop AS SELECT ALL FROM job-(machine, tool) WHERE machine.site = ? AND tool.grade = ?; EXECUTE shop (3, 5);",
		"SELECT ALL FROM mt_state(state-area-edge-point) WHERE hectare > 100 LIMIT 2;",
		"SELECT state FROM mt(state-area) WHERE hectare > 100 LIMIT 2;",
		"SELECT ALL FROM point-edge-(area-state, net-river) WHERE point.name = 'pn';",
		"SELECT ALL FROM state-area-edge-point ORDER BY hectare DESC LIMIT 4;",
		"SELECT COUNT FROM part WHERE qty > 100 GROUP BY cat;",
		"SELECT ALL FROM RECURSIVE parts VIA composition UP DEPTH 2 WHERE name = 'bolt';",
		"SELECT ALL FROM RECURSIVE parts VIA composition DEPTH 1 ORDER BY name DESC LIMIT 2;",
		"SELECT COUNT FROM RECURSIVE parts VIA composition GROUP BY cat;",
		"BEGIN; INSERT INTO parts VALUES ('ring', 0.5); ROLLBACK; COMMIT; CHECKPOINT;",
		"DEFINE MOLECULE TYPE light AS SELECT ALL FROM parts WHERE weight < 1.0;",
		"SHOW SCHEMA; SHOW HISTOGRAMS;",
		"SET WORKERS 4;",
	} {
		f.Add(src)
	}
	f.Add(nestingForms[0].build(depthBound))
	pieces := []string{
		"SELECT", "FROM", "WHERE", "ALL", "(", ")", "-", ",", ";",
		"ident", "'str'", "3.5", "=", "AND", "[", "]", ".",
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 64; i++ {
		var sb strings.Builder
		for j := rng.Intn(12); j >= 0; j-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
			sb.WriteByte(' ')
		}
		f.Add(sb.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		if st, err := mql.Parse(src); err == nil {
			if sel, ok := st.(*mql.SelectStmt); ok && sel.Where != nil {
				_ = sel.Where.String()
			}
		}
		_, _ = mql.ParseScript(src)
	})
}
