package plan_test

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/storage"
)

// orderedReference sorts a materialized result the way an ordered plan
// must deliver it: stable sort by the root attribute (ASC/DESC), ties by
// root atom ID ascending, then the LIMIT cut. This is the specification
// all three delivery paths — index ride, bounded heap, terminal sort —
// are checked against element-wise.
func orderedReference(t *testing.T, db *storage.Database, rootType string, full core.MoleculeSet, order plan.OrderBy, limit int) core.MoleculeSet {
	t.Helper()
	c, ok := db.Container(rootType)
	if !ok {
		t.Fatalf("no container %q", rootType)
	}
	pos, ok := c.Desc().Lookup(order.Attr)
	if !ok {
		t.Fatalf("no attribute %q on %q", order.Attr, rootType)
	}
	view := db.View(db.LatestTS())
	key := func(id model.AtomID) model.Value {
		a, ok := view.Atom(c, id)
		if !ok {
			t.Fatalf("root %d vanished", id)
		}
		return a.Get(pos)
	}
	ref := append(core.MoleculeSet(nil), full...)
	sort.SliceStable(ref, func(i, j int) bool {
		cmp := key(ref[i].Root()).Compare(key(ref[j].Root()))
		if order.Desc {
			cmp = -cmp
		}
		if cmp != 0 {
			return cmp < 0
		}
		return ref[i].Root() < ref[j].Root()
	})
	if limit > 0 && len(ref) > limit {
		ref = ref[:limit]
	}
	return ref
}

func mustCompile(t *testing.T, db *storage.Database, mt *core.MoleculeType, pred expr.Expr, order *plan.OrderBy, workers, limit int) *plan.Plan {
	t.Helper()
	p, err := plan.CompileOrdered(db, mt.Desc(), pred, order)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p.Workers, p.Limit = workers, limit
	return p
}

// TestOrderedIndexRideNoSort: ORDER BY an indexed root attribute must
// ride the ordered index — the plan reports the index-order path (no
// heap, no sort) and delivers in key order straight off the access path.
func TestOrderedIndexRideNoSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, types, edges, err := layeredDB(rng, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(types[0], "v"); err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(db, "ordered_ride", types, edges)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Release(db)

	for _, desc := range []bool{false, true} {
		order := plan.OrderBy{Attr: "v", Desc: desc}
		p := mustCompile(t, db, mt, nil, &order, 2, 0)
		if p.Access.Kind != plan.OrderedScan {
			t.Fatalf("desc=%v: access kind %v, want OrderedScan\n%s", desc, p.Access.Kind, p.Render())
		}
		full, err := mustCompile(t, db, mt, nil, nil, 1, 0).Execute()
		if err != nil {
			t.Fatal(err)
		}
		ref := orderedReference(t, db, types[0], full, order, 0)
		st, err := p.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := collectStream(t, st)
		if p.OrderPath != plan.OrderIndex {
			t.Fatalf("desc=%v: order path %q, want %q", desc, p.OrderPath, plan.OrderIndex)
		}
		if len(got) != len(ref) {
			t.Fatalf("desc=%v: %d molecules, want %d", desc, len(got), len(ref))
		}
		for i := range got {
			if !got[i].Equal(ref[i]) {
				t.Fatalf("desc=%v: molecule %d differs from reference order", desc, i)
			}
		}
	}
}

// TestOrderedTopKBoundCut: with a LIMIT far below the root count and no
// usable index, the bounded-heap path must prune roots before derivation,
// report the cut in the plan actuals, and save the logical work it
// claims.
func TestOrderedTopKBoundCut(t *testing.T) {
	const roots = 2048
	db, mt := assemblyDB(t, roots)
	defer plan.Release(db)

	order := plan.OrderBy{Attr: "code", Desc: false}
	// fetches drains the ordered stream of p and counts the atoms it read.
	fetches := func(p *plan.Plan) (core.MoleculeSet, int64) {
		before := db.Stats().Snapshot()
		st, err := p.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := collectStream(t, st)
		return got, db.Stats().Snapshot().Sub(before).AtomsFetched
	}
	p := mustCompile(t, db, mt, nil, &order, 1, 4)
	got, topK := fetches(p)
	if p.OrderPath != plan.OrderTopK {
		t.Fatalf("order path %q, want %q\n%s", p.OrderPath, plan.OrderTopK, p.Render())
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d molecules, want 4", len(got))
	}
	// The cut is logical work saved: a cut root costs two reads (the root
	// and its sort key), a derived one its whole 13-atom molecule, so top-K
	// must fetch at least 5× fewer atoms than the full sort of the same
	// statement.
	if _, full := fetches(mustCompile(t, db, mt, nil, &order, 1, 0)); topK*5 > full {
		t.Fatalf("top-K fetched %d atoms vs %d for the full sort — want ≥5× fewer", topK, full)
	}
	// K=4: once the heap is full its bound must cut the overwhelming
	// majority of roots before derivation.
	if p.OrderCut < roots/2 {
		t.Fatalf("bound cut only %d of %d roots\n%s", p.OrderCut, roots, p.Render())
	}
	if p.Derived+p.OrderCut != roots {
		t.Fatalf("derived %d + cut %d ≠ %d roots", p.Derived, p.OrderCut, roots)
	}
	ref := orderedReference(t, db, "asm", mustMaterialize(t, db, mt), order, 4)
	for i := range got {
		if !got[i].Equal(ref[i]) {
			t.Fatalf("molecule %d differs from reference order", i)
		}
	}
}

func mustMaterialize(t *testing.T, db *storage.Database, mt *core.MoleculeType) core.MoleculeSet {
	t.Helper()
	full, err := mustCompile(t, db, mt, nil, nil, 1, 0).Execute()
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// TestOrderedStreamCancel: cancelling an ordered stream mid-run (both
// the held-back heap path and the index ride) releases every goroutine
// and drops the stream's snapshot pin — no leaks on the paths that defer
// delivery to the end of the run.
func TestOrderedStreamCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, types, edges, err := layeredDB(rng, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(db, "ordered_cancel", types, edges)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Release(db)

	before := runtime.NumGoroutine()
	pins := db.LiveSnapshots()
	order := plan.OrderBy{Attr: "w", Desc: true}
	for i := 0; i < 4; i++ {
		p := mustCompile(t, db, mt, nil, &order, 4, 8)
		ctx, cancel := context.WithCancel(context.Background())
		st, err := p.Stream(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cancel() // before, during or after the first delivery — all must unwind
		for {
			m, err := st.Next()
			if err != nil || m == nil {
				break
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close after cancel: %v", err)
		}
	}
	if got := db.LiveSnapshots(); got != pins {
		t.Fatalf("snapshot pins: %d before, %d after cancelled ordered streams", pins, got)
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
