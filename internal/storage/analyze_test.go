package storage_test

import (
	"testing"

	"mad/internal/model"
	"mad/internal/storage"
)

func analyzeFixture(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	desc := model.MustDesc(
		model.AttrDesc{Name: "name", Kind: model.KString},
		model.AttrDesc{Name: "size", Kind: model.KInt},
	)
	if _, err := db.DefineAtomType("part", desc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		if _, err := db.InsertAtom("part", model.Str("common"), model.Int(0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := db.InsertAtom("part", model.Str("rare"), model.Int(int64(1+i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestAnalyzeBuildsHistograms(t *testing.T) {
	db := analyzeFixture(t)
	n, err := db.Analyze("part")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Analyze built %d histograms, want 2 (one per attribute)", n)
	}
	h, ok := db.Histogram("part", "size")
	if !ok {
		t.Fatal("no histogram on part.size")
	}
	if est := h.EstimateEq(model.Int(0)); est < 80 {
		t.Fatalf("EstimateEq(size=0) = %d, want ≈90 (skew must be visible)", est)
	}
	if got := db.Histograms(); len(got) != 2 || got[0] != "part.name" || got[1] != "part.size" {
		t.Fatalf("Histograms() = %v", got)
	}
	if _, err := db.Analyze("nosuch"); err == nil {
		t.Fatal("Analyze of an unknown type must fail")
	}
	// A partially valid request fails atomically: nothing is installed,
	// not even over the valid type it names.
	if _, err := db.InsertAtom("part", model.Str("late"), model.Int(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Analyze("part", "nosuch"); err == nil {
		t.Fatal("Analyze with an unknown type in the list must fail")
	}
	if len(db.Histograms()) != 2 {
		t.Fatalf("failed Analyze must not install histograms: %v", db.Histograms())
	}
	if h2, _ := db.Histogram("part", "size"); h2 != h || h2.Drift() != 1 {
		t.Fatal("failed Analyze must leave the installed histogram and its drift in place")
	}
}

func TestAnalyzeIncrementalMaintenance(t *testing.T) {
	db := analyzeFixture(t)
	if _, err := db.Analyze(); err != nil { // all types
		t.Fatal(err)
	}
	h, _ := db.Histogram("part", "size")
	before := h.Total()

	id, err := db.InsertAtom("part", model.Str("new"), model.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != before+1 {
		t.Fatalf("insert not routed into histogram: total %d, want %d", h.Total(), before+1)
	}
	if err := db.UpdateAtom("part", id, []model.Value{model.Str("new"), model.Int(5)}); err != nil {
		t.Fatal(err)
	}
	if h.Total() != before+1 {
		t.Fatalf("update changed total: %d", h.Total())
	}
	if _, err := db.DeleteAtom("part", id); err != nil {
		t.Fatal(err)
	}
	if h.Total() != before {
		t.Fatalf("delete not routed into histogram: total %d, want %d", h.Total(), before)
	}
	if h.Drift() == 0 {
		t.Fatal("incremental maintenance must record drift")
	}
}

// TestAutoAnalyzeOnDrift checks ANALYZE-on-drift: once incremental
// mutations exceed the configured fraction of an occurrence, the type's
// histograms rebuild on their own and the rebuild is counted; below the
// threshold (or with the feature disabled) nothing happens.
func TestAutoAnalyzeOnDrift(t *testing.T) {
	db := analyzeFixture(t) // 100 atoms
	if _, err := db.Analyze("part"); err != nil {
		t.Fatal(err)
	}
	h, _ := db.Histogram("part", "size")
	autos := db.Stats().Snapshot().AutoAnalyzes

	// A few mutations stay under the default 20% threshold: the drift
	// accumulates and nothing rebuilds.
	for i := 0; i < 10; i++ {
		if _, err := db.InsertAtom("part", model.Str("new"), model.Int(99)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Snapshot().AutoAnalyzes != autos {
		t.Fatal("sub-threshold drift must not trigger auto-ANALYZE")
	}
	if h.Drift() != 10 {
		t.Fatalf("drift = %d, want 10", h.Drift())
	}

	// Crossing the threshold rebuilds: fresh histograms (drift resets),
	// and the rebuild shows up in the stats block.
	for i := 0; i < 30; i++ {
		if _, err := db.InsertAtom("part", model.Str("new"), model.Int(99)); err != nil {
			t.Fatal(err)
		}
	}
	h2, _ := db.Histogram("part", "size")
	if h2.Drift() >= 30 {
		t.Fatalf("drift = %d after crossing the threshold, want a rebuilt histogram", h2.Drift())
	}
	if db.Stats().Snapshot().AutoAnalyzes <= autos {
		t.Fatal("auto-ANALYZE must be counted in the stats block")
	}
	// The rebuilt histogram sees the inserted skew directly.
	if est := h2.EstimateEq(model.Int(99)); est < 20 {
		t.Fatalf("rebuilt histogram estimates %d atoms at size=99, want ≈40", est)
	}

	// Disabled: drift accumulates without bound and nothing rebuilds.
	db.SetAutoAnalyze(0)
	autos = db.Stats().Snapshot().AutoAnalyzes
	h3, _ := db.Histogram("part", "size")
	d0 := h3.Drift()
	for i := 0; i < 200; i++ {
		if _, err := db.InsertAtom("part", model.Str("more"), model.Int(5)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Snapshot().AutoAnalyzes != autos {
		t.Fatal("disabled auto-ANALYZE must never rebuild")
	}
	if h3.Drift() != d0+200 {
		t.Fatalf("disabled auto-ANALYZE must leave drift accumulating (drift = %d, want %d)", h3.Drift(), d0+200)
	}
}
