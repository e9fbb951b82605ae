package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mad/internal/model"
)

// orderedScanKeys collects the values an ordered scan visits, flattening
// posting IDs for membership checks.
func orderedScanKeys(t *testing.T, db *Database, typeName, attr string, ts uint64, desc bool) (vals []model.Value, ids []model.AtomID) {
	t.Helper()
	keys, ok := db.View(ts).IndexOrdered(typeName, attr, KeyRange{}, desc)
	if !ok {
		t.Fatalf("IndexOrdered(%s.%s): no index", typeName, attr)
	}
	for v, post, ok := keys.Next(); ok; v, post, ok = keys.Next() {
		vals = append(vals, v)
		ids = append(ids, post...)
	}
	return vals, ids
}

func TestIndexOrderedScan(t *testing.T) {
	db := NewDatabase()
	desc := model.MustDesc(model.AttrDesc{Name: "rank", Kind: model.KInt})
	if _, err := db.DefineAtomType("item", desc); err != nil {
		t.Fatal(err)
	}
	// Shuffled insertion order; rank 3 occurs twice to exercise posting
	// grouping and the ID tiebreak.
	ranks := []int64{5, 1, 3, 9, 3, 7}
	byRank := make(map[int64][]model.AtomID)
	for _, r := range ranks {
		id, err := db.InsertAtom("item", model.Int(r))
		if err != nil {
			t.Fatal(err)
		}
		byRank[r] = append(byRank[r], id)
	}
	if err := db.CreateIndex("item", "rank"); err != nil {
		t.Fatal(err)
	}
	ts := db.LatestTS()

	vals, _ := orderedScanKeys(t, db, "item", "rank", ts, false)
	wantAsc := []int64{1, 3, 5, 7, 9}
	if len(vals) != len(wantAsc) {
		t.Fatalf("ascending scan visited %d keys, want %d", len(vals), len(wantAsc))
	}
	for i, w := range wantAsc {
		if got, _ := vals[i].AsInt(); got != w {
			t.Fatalf("ascending scan key %d = %v, want %d", i, vals[i], w)
		}
	}
	dvals, _ := orderedScanKeys(t, db, "item", "rank", ts, true)
	for i := range dvals {
		if !dvals[i].Equal(vals[len(vals)-1-i]) {
			t.Fatalf("descending scan is not the reverse at %d: %v", i, dvals[i])
		}
	}

	// Postings for the duplicated key hold both atoms, ID-ascending.
	keys, _ := db.View(ts).IndexOrdered("item", "rank", KeyRange{}, false)
	for v, post, ok := keys.Next(); ok; v, post, ok = keys.Next() {
		if r, _ := v.AsInt(); r == 3 {
			if len(post) != 2 || post[0] >= post[1] {
				t.Fatalf("rank 3 posting = %v, want both atoms ID-ascending", post)
			}
		}
	}

	// MVCC: a new key committed after ts stays invisible to the old scan
	// but appears, in place, to a fresh one.
	if _, err := db.InsertAtom("item", model.Int(2)); err != nil {
		t.Fatal(err)
	}
	if vals2, _ := orderedScanKeys(t, db, "item", "rank", ts, false); len(vals2) != len(wantAsc) {
		t.Fatalf("old-ts scan sees %d keys after later insert, want %d", len(vals2), len(wantAsc))
	}
	now := db.LatestTS()
	vals3, _ := orderedScanKeys(t, db, "item", "rank", now, false)
	if len(vals3) != len(wantAsc)+1 {
		t.Fatalf("fresh scan sees %d keys, want %d", len(vals3), len(wantAsc)+1)
	}
	if got, _ := vals3[1].AsInt(); got != 2 {
		t.Fatalf("fresh scan key 1 = %v, want 2", vals3[1])
	}

	// Deleting the only rank-9 atom empties its posting for new scans
	// while the pinned timestamp keeps seeing it; after every snapshot is
	// gone, vacuum drops the dead key from the ordered view.
	if _, err := db.DeleteAtom("item", byRank[9][0]); err != nil {
		t.Fatal(err)
	}
	if vals4, _ := orderedScanKeys(t, db, "item", "rank", db.LatestTS(), false); len(vals4) != len(wantAsc) {
		t.Fatalf("post-delete scan sees %d keys, want %d", len(vals4), len(wantAsc))
	}
	if vals5, _ := orderedScanKeys(t, db, "item", "rank", ts, false); len(vals5) != len(wantAsc) {
		t.Fatalf("pinned-ts scan sees %d keys after delete, want %d", len(vals5), len(wantAsc))
	}
	db.Vacuum()
	found := false
	keys, _ = db.View(0).IndexOrdered("item", "rank", KeyRange{}, false)
	for v, _, ok := keys.Next(); ok; v, _, ok = keys.Next() {
		if r, _ := v.AsInt(); r == 9 {
			found = true
		}
	}
	if found {
		t.Fatal("vacuumed key 9 still visited by ordered scan")
	}
}

func TestIndexOrderedScanStrings(t *testing.T) {
	db := NewDatabase()
	desc := model.MustDesc(model.AttrDesc{Name: "code", Kind: model.KString})
	if _, err := db.DefineAtomType("asm", desc); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("asm", "code"); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 0, 2, 1} {
		if _, err := db.InsertAtom("asm", model.Str(fmt.Sprintf("C%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	vals, ids := orderedScanKeys(t, db, "asm", "code", db.LatestTS(), false)
	if len(vals) != 4 || len(ids) != 4 {
		t.Fatalf("scan visited %d keys / %d ids, want 4 / 4", len(vals), len(ids))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1].Compare(vals[i]) >= 0 {
			t.Fatalf("keys out of order at %d: %v >= %v", i, vals[i-1], vals[i])
		}
	}
	if _, ok := db.View(0).IndexOrdered("asm", "nope", KeyRange{}, false); ok {
		t.Fatal("ordered scan over missing index reported ok")
	}
}

// TestIndexWalkRange: a bounded walk seeks its first key and stops past
// its last — a range holding 10 keys visits at most 11, ascending and
// descending — and never admits null keys, while the unbounded walk
// does.
func TestIndexWalkRange(t *testing.T) {
	db := NewDatabase()
	if _, err := db.DefineAtomType("item", model.MustDesc(model.AttrDesc{Name: "k", Kind: model.KInt})); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("item", "k"); err != nil {
		t.Fatal(err)
	}
	for i := range 4096 {
		if _, err := db.InsertAtom("item", model.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		if _, err := db.InsertAtom("item", model.Null()); err != nil {
			t.Fatal(err)
		}
	}
	walk := func(r KeyRange, desc bool) (vals []model.Value, visited int64) {
		t.Helper()
		before := db.Stats().Snapshot()
		keys, ok := db.View(0).IndexOrdered("item", "k", r, desc)
		if !ok {
			t.Fatal("no index on item.k")
		}
		for v, _, ok := keys.Next(); ok; v, _, ok = keys.Next() {
			vals = append(vals, v)
		}
		return vals, db.Stats().Snapshot().Sub(before).IndexKeysVisited
	}
	for _, tc := range []struct {
		name   string
		r      KeyRange
		lo, hi int64 // the keys inside, [lo, hi)
	}{
		{"[2000, 2010)", KeyRange{HasLo: true, Lo: model.Int(2000), LoInc: true, HasHi: true, Hi: model.Int(2010)}, 2000, 2010},
		{"(1999, 2009]", KeyRange{HasLo: true, Lo: model.Int(1999), HasHi: true, Hi: model.Int(2009), HiInc: true}, 2000, 2010},
		{"< 10", KeyRange{HasHi: true, Hi: model.Int(10)}, 0, 10},
		{">= 4086", KeyRange{HasLo: true, Lo: model.Int(4086), LoInc: true}, 4086, 4096},
	} {
		for _, desc := range []bool{false, true} {
			vals, visited := walk(tc.r, desc)
			if len(vals) != int(tc.hi-tc.lo) || visited > tc.hi-tc.lo+1 {
				t.Fatalf("%s desc=%v: %d keys after visiting %d, want %d after at most %d",
					tc.name, desc, len(vals), visited, tc.hi-tc.lo, tc.hi-tc.lo+1)
			}
			for i, v := range vals {
				want := tc.lo + int64(i)
				if desc {
					want = tc.hi - 1 - int64(i)
				}
				if got, ok := v.AsInt(); !ok || got != want {
					t.Fatalf("%s desc=%v: key %d = %v, want %d", tc.name, desc, i, v, want)
				}
			}
		}
	}
	if vals, _ := walk(KeyRange{}, false); len(vals) != 4097 || !vals[0].IsNull() {
		t.Fatalf("unbounded walk: %d keys starting at %v, want 4097 starting at null", len(vals), vals[0])
	}
	// The walk visits a key only when it is pulled.
	keys, _ := db.View(0).IndexOrdered("item", "k", KeyRange{}, true)
	before := db.Stats().Snapshot()
	keys.Next()
	if visited := db.Stats().Snapshot().Sub(before).IndexKeysVisited; visited != 1 {
		t.Fatalf("a walk stopped at its first key visited %d keys", visited)
	}
}

// TestIndexWalkBesideWrites runs ordered walks beside insert, update and
// delete traffic on the indexed attribute: every walk of a pinned
// snapshot must equal the index its snapshot's scan implies, key for key
// and posting for posting, however the key set changes underneath (a
// new key rebuilds the ordered view the walks read). Run it under -race.
func TestIndexWalkBesideWrites(t *testing.T) {
	db := NewDatabase()
	if _, err := db.DefineAtomType("item", model.MustDesc(model.AttrDesc{Name: "k", Kind: model.KInt})); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("item", "k"); err != nil {
		t.Fatal(err)
	}
	c, _ := db.Container("item")
	var live []model.AtomID
	for i := range 64 {
		id, err := db.InsertAtom("item", model.Int(int64(i*2)))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}

	done := make(chan struct{})
	writerErr := make(chan error, 1)
	var writes atomic.Int64
	var stopped atomic.Bool
	go func() {
		defer close(writerErr)
		defer stopped.Store(true)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			var err error
			switch id := live[i%len(live)]; i % 3 {
			case 0: // a key never seen before, or an old one
				var nid model.AtomID
				if nid, err = db.InsertAtom("item", model.Int(int64(i%257))); err == nil {
					live = append(live, nid)
				}
			case 1:
				err = db.UpdateAtom("item", id, []model.Value{model.Int(int64(i % 131))})
			default:
				if _, err = db.DeleteAtom("item", id); err == nil {
					live = slices.DeleteFunc(live, func(x model.AtomID) bool { return x == id })
				}
			}
			if err != nil {
				writerErr <- err
				return
			}
			writes.Add(1)
		}
	}()

	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// At least 200 walks, and enough of them that the writer
			// commits a few hundred times while they run.
			for i := 0; i < 200 || writes.Load() < 300 && !stopped.Load(); i++ {
				snap := db.Snapshot()
				want := map[int64][]model.AtomID{}
				snap.Scan(c, func(a model.Atom) bool {
					k, _ := a.Get(0).AsInt()
					want[k] = append(want[k], a.ID)
					return true
				})
				lo := int64(i % 100)
				r := KeyRange{HasLo: true, Lo: model.Int(lo), LoInc: true, HasHi: true, Hi: model.Int(lo + 40)}
				if (i+w)%2 == 0 {
					r = KeyRange{}
				}
				desc := i%3 == 0
				keys, _ := snap.IndexOrdered("item", "k", r, desc)
				seen, prev := 0, int64(0)
				for v, ids, ok := keys.Next(); ok; v, ids, ok = keys.Next() {
					k, _ := v.AsInt()
					if seen > 0 && (desc && k >= prev || !desc && k <= prev) {
						t.Errorf("walk out of order: %d after %d (desc=%v)", k, prev, desc)
					}
					prev = k
					if !slices.Equal(ids, model.SortAtomIDs(want[k])) {
						t.Errorf("snapshot %d, key %d: walk posting %v, scan has %v", snap.TS(), k, ids, want[k])
					}
					seen++
				}
				inside := 0
				for k := range want {
					if r == (KeyRange{}) || k >= lo && k < lo+40 {
						inside++
					}
				}
				if seen != inside {
					t.Errorf("snapshot %d: walk visited %d keys with atoms, the scan has %d in range", snap.TS(), seen, inside)
				}
				snap.Close()
			}
		}()
	}
	wg.Wait()
	close(done)
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
}
