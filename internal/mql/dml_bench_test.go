package mql_test

import (
	"fmt"
	"testing"

	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/storage"
)

// dmlDB builds n items shaped like itemDB's (code 'c<i>' unique, grp =
// i mod 64, qty = i; code and grp indexed) beside the tables of a
// committing writer: asm (code indexed), unit and 16 depots.
func dmlDB(tb testing.TB, n int) *storage.Database {
	tb.Helper()
	db := storage.NewDatabase()
	if _, err := mql.NewSession(db).ExecScript(`
CREATE ATOM TYPE item (code STRING NOT NULL, grp INT, qty INT);
CREATE ATOM TYPE asm (code STRING NOT NULL, bay INT, rank INT);
CREATE ATOM TYPE unit (slot INT);
CREATE ATOM TYPE depot (name STRING NOT NULL, stock INT);
CREATE INDEX ON asm(code);
`); err != nil {
		tb.Fatal(err)
	}
	for d := range 16 {
		if _, err := db.InsertAtom("depot", model.Str(fmt.Sprintf("D%d", d)), model.Int(0)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range n {
		if _, err := db.InsertAtom("item", model.Str(fmt.Sprintf("c%d", i)), model.Int(int64(i%64)), model.Int(int64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	for _, attr := range []string{"code", "grp"} {
		if err := db.CreateIndex("item", attr); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// dmlItems is the item count the DML statements run at.
const dmlItems = 16384

// dmlCases are the DML shapes a server runs: a committing writer's
// transaction — three INSERTs, then an UPDATE of one of 16 depots, which
// the transaction's buffered writes force onto the full scan — an
// auto-commit UPDATE by an indexed key, and an auto-commit UPDATE whose
// range an index walks (4 of its 256 atoms pass the rest of the
// predicate). The i-th script of each differs only in its literals.
// allocs bounds a script's allocations in TestDMLAllocs (0: not gated).
var dmlCases = []struct {
	name   string
	script func(i int) string
	allocs float64
}{
	{"writer txn", func(i int) string {
		return fmt.Sprintf("BEGIN; INSERT INTO asm VALUES ('W%d', %d, %d); INSERT INTO unit VALUES (0); "+
			"INSERT INTO unit VALUES (1); UPDATE depot SET stock = %d WHERE name = 'D%d'; COMMIT;", i, i%8, i, i, i%16)
	}, 137},
	{"indexed UPDATE", func(i int) string {
		return fmt.Sprintf("UPDATE item SET qty = %d WHERE code = 'c%d';", i, i%dmlItems)
	}, 74},
	{"range UPDATE", func(int) string {
		return "UPDATE item SET qty = 0 WHERE grp > 4 AND grp < 6 AND qty < 200;"
	}, 0},
}

// BenchmarkDML runs each DML shape through a session, parse to commit.
func BenchmarkDML(b *testing.B) {
	for _, tc := range dmlCases {
		b.Run(tc.name, func(b *testing.B) {
			s := mql.NewSession(dmlDB(b, dmlItems))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ExecScript(tc.script(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDMLAllocs gates the allocations of the writer's transaction and of
// the auto-commit indexed UPDATE, parse to commit. DML selects its atoms
// through the plan's roots, so every statement pays a compile; the
// bounds are the counts measured once the root filter ran compiled, an
// UPDATE left the postings of unchanged index keys alone, and an
// auto-commit that committed built no rollback error.
func TestDMLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, tc := range dmlCases {
		if tc.allocs == 0 {
			continue
		}
		s := mql.NewSession(dmlDB(t, dmlItems))
		const runs = 200
		scripts := make([]string, runs+1) // AllocsPerRun warms up once
		for i := range scripts {
			scripts[i] = tc.script(i)
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := s.ExecScript(scripts[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > tc.allocs {
			t.Errorf("%s: %.1f allocations per statement, want ≤ %.0f", tc.name, allocs, tc.allocs)
		}
	}
}
