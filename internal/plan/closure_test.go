package plan_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/storage"
)

// chainForest builds `roots` disjoint chains of `depth` parts each (pn
// numbers them chain by chain) over the reflexive composition link, and
// returns the database with the closure description of the full downward
// explosion: every part is a root, its closure the rest of its chain.
func chainForest(t testing.TB, roots, depth int) (*storage.Database, *core.Desc) {
	t.Helper()
	db := storage.NewDatabase()
	if _, err := db.DefineAtomType("part", model.MustDesc(model.AttrDesc{Name: "pn", Kind: model.KInt})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLinkType("composition", model.LinkDesc{SideA: "part", SideB: "part"}); err != nil {
		t.Fatal(err)
	}
	ids := make([]model.AtomID, roots*depth)
	for i := range ids {
		id, err := db.InsertAtom("part", model.Int(int64(i)))
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
	desc, err := core.NewClosureDesc(db, "part", "composition", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return db, desc
}

// TestFixpointIndexedEntry: a closure description takes the table's
// contest — with an index on the root attribute and an equality conjunct
// the closure is seeded from the index instead of scanning every root.
func TestFixpointIndexedEntry(t *testing.T) {
	db, desc := chainForest(t, 64, 8)
	if err := db.CreateIndex("part", "pn"); err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(db, desc, intCmp(expr.EQ, "part", "pn", 16)) // a chain head
	if err != nil {
		t.Fatal(err)
	}
	if p.Access.Kind != plan.IndexScan || len(p.Alternatives) != 2 {
		t.Fatalf("access %v, want the index entry out of two candidates: %+v", p.Access.Kind, p.Alternatives)
	}
	db.Stats().Reset()
	ms, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Size() != 8 || len(ms[0].Levels()) != 8 {
		t.Fatalf("indexed entry derived %d molecule(s)", len(ms))
	}
	if work := db.Stats().Snapshot(); work.AtomsFetched > 16 {
		t.Fatalf("indexed entry fetched %d atoms; the contest did not prune the scan", work.AtomsFetched)
	}
}

// TestFixpointLimitStopsWorkers: LIMIT cancels the in-flight closures at
// the cap — per round, not only per root — so the stream ends cleanly
// after exactly Limit molecules having fetched at most half the closure
// atoms a full run fetches, and every producer/worker goroutine winds
// down, also when a live stream is abandoned (run under -race).
func TestFixpointLimitStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	const roots, depth = 512, 6
	db, desc := chainForest(t, roots, depth)
	p, err := plan.Compile(db, desc, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers, p.Limit = 4, 3
	db.Stats().Reset()
	ms, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("limited stream delivered %d, want 3", len(ms))
	}
	if fetched, closure := db.Stats().Snapshot().AtomsFetched, int64(roots*depth*(depth+1)/2); fetched > closure/2 {
		t.Fatalf("LIMIT 3 fetched %d of the %d closure atoms", fetched, closure)
	}

	p.Limit = 0
	st, err := p.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m, err := st.Next(); err != nil || m == nil {
		t.Fatalf("first molecule: %v, %v", m, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i > 100 {
			t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
