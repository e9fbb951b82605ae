package storage

import (
	"fmt"
	"testing"

	"mad/internal/model"
)

// orderedScanKeys collects the values an ordered scan visits, flattening
// posting IDs for membership checks.
func orderedScanKeys(t *testing.T, db *Database, typeName, attr string, ts uint64, desc bool) (vals []model.Value, ids []model.AtomID) {
	t.Helper()
	ok := db.View(ts).IndexOrdered(typeName, attr, desc, func(v model.Value, post []model.AtomID) bool {
		vals = append(vals, v)
		ids = append(ids, post...)
		return true
	})
	if !ok {
		t.Fatalf("IndexOrdered(%s.%s): no index", typeName, attr)
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
	db.View(ts).IndexOrdered("item", "rank", false, func(v model.Value, post []model.AtomID) bool {
		if r, _ := v.AsInt(); r == 3 {
			if len(post) != 2 || post[0] >= post[1] {
				t.Fatalf("rank 3 posting = %v, want both atoms ID-ascending", post)
			}
		}
		return true
	})

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
	db.View(0).IndexOrdered("item", "rank", false, func(v model.Value, _ []model.AtomID) bool {
		if r, _ := v.AsInt(); r == 9 {
			found = true
		}
		return true
	})
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
	if db.View(0).IndexOrdered("asm", "nope", false, nil) {
		t.Fatal("ordered scan over missing index reported ok")
	}
}
