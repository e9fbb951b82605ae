package mql_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current Result.Render output")

// bomGoldenSetup is a reconvergent, cyclic bill of material: bolt is
// reached through engine and chassis, and nut closes engine → bolt → nut
// → engine.
const bomGoldenSetup = `
CREATE ATOM TYPE parts (name STRING NOT NULL, cat STRING);
CREATE LINK TYPE composition BETWEEN parts AND parts;
INSERT INTO parts VALUES ('car', 'assembly'), ('engine', 'assembly'), ('chassis', 'assembly'), ('bolt', 'piece'), ('nut', 'piece'), ('ring', 'piece');
CONNECT parts WHERE name = 'car' TO parts WHERE name = 'engine' VIA composition;
CONNECT parts WHERE name = 'car' TO parts WHERE name = 'chassis' VIA composition;
CONNECT parts WHERE name = 'engine' TO parts WHERE name = 'bolt' VIA composition;
CONNECT parts WHERE name = 'chassis' TO parts WHERE name = 'bolt' VIA composition;
CONNECT parts WHERE name = 'engine' TO parts WHERE name = 'ring' VIA composition;
CONNECT parts WHERE name = 'bolt' TO parts WHERE name = 'nut' VIA composition;
CONNECT parts WHERE name = 'nut' TO parts WHERE name = 'engine' VIA composition;
`

// TestRecursiveRenderGolden pins Result.Render of recursive statements
// byte for byte: the capture predates the fold of recursion into the one
// SELECT pipeline, so the unified path must reproduce it exactly.
func TestRecursiveRenderGolden(t *testing.T) {
	db := storage.NewDatabase()
	defer plan.Release(db)
	sess := mql.NewSession(db)
	if _, err := sess.ExecScript(bomGoldenSetup); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, src := range []string{
		"SELECT ALL FROM RECURSIVE parts VIA composition;",
		"SELECT ALL FROM RECURSIVE parts VIA composition UP DEPTH 2;",
		"SELECT COUNT FROM RECURSIVE parts VIA composition GROUP BY cat;",
	} {
		got.WriteString("mql> " + src + "\n" + execR(t, sess, src))
	}
	path := filepath.Join("testdata", "recursive-render.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("recursive Result.Render drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}
