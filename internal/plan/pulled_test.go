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

// keyedDB builds n items with the unique keys 0..n-1 and nulls items
// whose key is null, each linked to one tag of its own, with an index on
// item.k.
func keyedDB(t *testing.T, n, nulls int) (*storage.Database, *core.MoleculeType) {
	t.Helper()
	db := storage.NewDatabase()
	for _, tn := range []string{"item", "tag"} {
		if _, err := db.DefineAtomType(tn, model.MustDesc(model.AttrDesc{Name: "k", Kind: model.KInt})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.DefineLinkType("it", model.LinkDesc{SideA: "item", SideB: "tag"}); err != nil {
		t.Fatal(err)
	}
	for i := range n + nulls {
		k := model.Int(int64(i))
		if i >= n {
			k = model.Null()
		}
		id, err := db.InsertAtom("item", k)
		if err != nil {
			t.Fatal(err)
		}
		tag, err := db.InsertAtom("tag", model.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Connect("it", id, tag); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("item", "k"); err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(db, "keyed", []string{"item", "tag"}, []core.DirectedLink{{Link: "it", From: "item", To: "tag"}})
	if err != nil {
		t.Fatal(err)
	}
	return db, mt
}

// streamKeys drains p's stream and returns the root keys it delivered
// with the index keys the run visited.
func streamKeys(t *testing.T, db *storage.Database, p *plan.Plan) (keys []model.Value, visited int64) {
	t.Helper()
	c, _ := db.Container("item")
	before := db.Stats().Snapshot()
	st, err := p.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range collectStream(t, st) {
		a, _ := db.View(0).Atom(c, m.Root())
		keys = append(keys, a.Get(0))
	}
	return keys, db.Stats().Snapshot().Sub(before).IndexKeysVisited
}

// TestIndexRideLimit: ORDER BY … LIMIT on an index ride cuts its batches
// at the limit like an unordered LIMIT, so a run derives at most
// (Workers+1)·Limit molecules, not (Workers+1) default batches.
func TestIndexRideLimit(t *testing.T) {
	db, mt := keyedDB(t, 4096, 0)
	for _, workers := range []int{1, 4} {
		p := mustCompile(t, db, mt, nil, &plan.OrderBy{Attr: "k"}, workers, 8)
		keys, _ := streamKeys(t, db, p)
		if p.OrderPath != plan.OrderIndex || len(keys) != 8 {
			t.Fatalf("workers=%d: order path %q with %d molecules, want %q with 8\n%s", workers, p.OrderPath, len(keys), plan.OrderIndex, p.Render())
		}
		if p.Derived > (workers+1)*p.Limit {
			t.Fatalf("workers=%d: derived %d molecules for LIMIT %d, want at most %d", workers, p.Derived, p.Limit, (workers+1)*p.Limit)
		}
	}
}

// TestIndexWalkKeysVisited is the deterministic gate on the pulled index
// walk: an ORDER BY … LIMIT 8 ride over 8 192 keys visits at most two
// batches' worth of keys, a range holding 10 keys visits at most 11 in
// either direction, and no range admits a null key.
func TestIndexWalkKeysVisited(t *testing.T) {
	db, mt := keyedDB(t, 8192, 5)
	k := func(op expr.CmpOp, v int64) expr.Expr { return intCmp(op, "item", "k", v) }
	for _, desc := range []bool{false, true} {
		order := &plan.OrderBy{Attr: "k", Desc: desc}
		for _, workers := range []int{1, 4} {
			keys, visited := streamKeys(t, db, mustCompile(t, db, mt, nil, order, workers, 8))
			if len(keys) != 8 || visited > 2*core.DefaultStreamBatch {
				t.Fatalf("desc=%v workers=%d: LIMIT 8 delivered %d after visiting %d keys, want 8 after at most %d",
					desc, workers, len(keys), visited, 2*core.DefaultStreamBatch)
			}
		}
		for _, tc := range []struct {
			name   string
			pred   expr.Expr
			order  *plan.OrderBy
			lo, hi int64 // the keys inside, [lo, hi)
		}{
			{"ride [100, 110)", expr.And{L: k(expr.GE, 100), R: k(expr.LT, 110)}, order, 100, 110},
			{"ride < 10", k(expr.LT, 10), order, 0, 10},
			{"range (8181, 8191]", expr.And{L: k(expr.GT, 8181), R: k(expr.LE, 8191)}, nil, 8182, 8192},
			{"range <= 9", k(expr.LE, 9), nil, 0, 10},
		} {
			p := mustCompile(t, db, mt, tc.pred, tc.order, 1, 0)
			if p.Access.Kind != plan.IndexScan || !p.Access.Entries[0].Ranged {
				t.Fatalf("%s: access %v, want a ranged index scan\n%s", tc.name, p.Access.Kind, p.Render())
			}
			keys, visited := streamKeys(t, db, p)
			if len(keys) != int(tc.hi-tc.lo) || visited > tc.hi-tc.lo+1 {
				t.Fatalf("%s desc=%v: %d molecules after visiting %d keys, want %d after at most %d",
					tc.name, desc, len(keys), visited, tc.hi-tc.lo, tc.hi-tc.lo+1)
			}
			for i, v := range keys {
				want := tc.lo + int64(i)
				if tc.order != nil && desc {
					want = tc.hi - 1 - int64(i)
				}
				if got, ok := v.AsInt(); !ok || got != want {
					t.Fatalf("%s desc=%v: molecule %d has key %v, want %d", tc.name, desc, i, v, want)
				}
			}
		}
	}
}

// TestPulledWalkStreamLeak: a stream over a pulled index walk, closed
// after its first molecule or cancelled mid-walk, leaves no goroutine
// and no snapshot pin behind.
func TestPulledWalkStreamLeak(t *testing.T) {
	db, mt := keyedDB(t, 4096, 0)
	before, pins := runtime.NumGoroutine(), db.LiveSnapshots()
	for _, cancelFirst := range []bool{false, true} {
		for _, desc := range []bool{false, true} {
			p := mustCompile(t, db, mt, nil, &plan.OrderBy{Attr: "k", Desc: desc}, 4, 0)
			ctx, cancel := context.WithCancel(context.Background())
			st, err := p.Stream(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if m, err := st.Next(); err != nil || m == nil {
				t.Fatalf("first molecule: %v, %v", m, err)
			}
			if cancelFirst {
				cancel()
				for {
					if m, err := st.Next(); err != nil || m == nil {
						break
					}
				}
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			cancel()
		}
	}
	if got := db.LiveSnapshots(); got != pins {
		t.Fatalf("snapshot pins: %d before, %d after the closed streams", pins, got)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i > 100 {
			t.Fatalf("goroutines: %d before the streams, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
