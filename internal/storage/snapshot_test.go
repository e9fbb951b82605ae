package storage_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mad/internal/model"
	"mad/internal/storage"
)

// viewCounts sizes the "n" and "e" occurrences of a txnDB as v sees them.
func viewCounts(db *storage.Database, v storage.View) (atoms, links int) {
	c, _ := db.Container("n")
	ls, _ := db.LinkStore("e")
	ids := v.IDs(c)
	for _, id := range ids {
		links += len(v.Partners(ls, id, true))
	}
	return len(ids), links
}

// TestVacuumPropertyLiveSnapshotSafe is the snapshot/GC property test:
// run random mutation/snapshot/vacuum interleavings and verify that (a)
// vacuum never reclaims a version still reachable by a live snapshot —
// every pinned snapshot keeps answering with the exact counts captured
// when it was taken — and (b) closing the last snapshot releases its
// versions: a final vacuum collapses the chains back to near head-state.
func TestVacuumPropertyLiveSnapshotSafe(t *testing.T) {
	type pinned struct {
		snap  *storage.Snapshot
		atoms int
		links int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := txnDB(t)
		var live []model.AtomID
		var pins []pinned
		ok := true
		for step := 0; step < 120 && ok; step++ {
			switch r := rng.Intn(12); {
			case r < 4: // insert
				id, err := db.InsertAtom("n", model.Int(int64(step)))
				if err != nil {
					return false
				}
				live = append(live, id)
			case r < 6 && len(live) >= 2: // connect
				a := live[rng.Intn(len(live))]
				b := live[rng.Intn(len(live))]
				if a != b {
					if err := db.Connect("e", a, b); err != nil {
						return false
					}
				}
			case r < 7 && len(live) > 0: // update
				id := live[rng.Intn(len(live))]
				if err := db.UpdateAtom("n", id, []model.Value{model.Int(int64(rng.Intn(50)))}); err != nil {
					return false
				}
			case r < 8 && len(live) > 0: // delete (cascades links)
				i := rng.Intn(len(live))
				if _, err := db.DeleteAtom("n", live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			case r < 10: // pin a snapshot
				s := db.Snapshot()
				na, nl := viewCounts(db, s.View)
				pins = append(pins, pinned{s, na, nl})
			case r < 11 && len(pins) > 0: // release a random snapshot
				i := rng.Intn(len(pins))
				pins[i].snap.Close()
				pins = append(pins[:i], pins[i+1:]...)
			default: // vacuum under load
				db.Vacuum()
			}
			// Every live snapshot must still answer exactly as frozen.
			for _, p := range pins {
				na, nl := viewCounts(db, p.snap.View)
				if na != p.atoms || nl != p.links {
					ok = false
					break
				}
			}
		}
		for _, p := range pins {
			p.snap.Close()
		}
		if !ok {
			return false
		}
		// (b) With no pins left, vacuum must release everything the
		// snapshots were holding: one version per surviving slot, and no
		// further vacuum can reclaim more (fixpoint).
		db.Vacuum()
		if db.LiveSnapshots() != 0 {
			return false
		}
		if got := db.Vacuum().Reclaimed; got != 0 {
			return false
		}
		return db.CheckIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStartVacuumBackground(t *testing.T) {
	db := txnDB(t)
	id, _ := db.InsertAtom("n", model.Int(0))
	stop := db.StartVacuum(time.Millisecond)
	for i := 0; i < 50; i++ {
		if err := db.UpdateAtom("n", id, []model.Value{model.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		db.Vacuum()
		return db.VersionCount() == 1
	})
	stop()
	stop() // idempotent
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCloseIdempotentRefcount(t *testing.T) {
	db := txnDB(t)
	s1 := db.Snapshot()
	s2 := db.Snapshot() // same ts, refcounted
	if db.LiveSnapshots() != 2 {
		t.Fatalf("live snapshots = %d", db.LiveSnapshots())
	}
	s1.Close()
	s1.Close() // double close must not release s2's pin
	if db.LiveSnapshots() != 1 {
		t.Fatalf("double close broke refcount: %d", db.LiveSnapshots())
	}
	s2.Close()
	if db.LiveSnapshots() != 0 {
		t.Fatalf("live snapshots = %d after closing all", db.LiveSnapshots())
	}
}

func TestVacuumDropsTombstonedSlots(t *testing.T) {
	db := txnDB(t)
	a, _ := db.InsertAtom("n", model.Int(1))
	b, _ := db.InsertAtom("n", model.Int(2))
	if err := db.Connect("e", a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteAtom("n", a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteAtom("n", b); err != nil {
		t.Fatal(err)
	}
	db.Vacuum()
	if got := db.VersionCount(); got != 0 {
		t.Fatalf("tombstoned slots not reclaimed: %d versions", got)
	}
	if db.TotalAtoms() != 0 || db.TotalLinks() != 0 {
		t.Fatal("logical state wrong after vacuum")
	}
}

// TestVacuumHorizonCappedAtLatest pins the horizon arithmetic: with a
// snapshot live the horizon is its (oldest) timestamp even after later
// commits move latestTS past it; with no pins it is the latest commit.
func TestVacuumHorizonCappedAtLatest(t *testing.T) {
	db := txnDB(t)
	db.InsertAtom("n", model.Int(1))
	snap := db.Snapshot()
	if h := db.VacuumHorizon(); h != snap.TS() {
		t.Fatalf("horizon = %d, want pinned ts %d", h, snap.TS())
	}
	db.InsertAtom("n", model.Int(2))
	if h := db.VacuumHorizon(); h != snap.TS() {
		t.Fatalf("horizon moved past a live snapshot: %d > pin %d", h, snap.TS())
	}
	snap.Close()
	if h := db.VacuumHorizon(); h != db.LatestTS() {
		t.Fatalf("horizon = %d with no pins, want latest %d", h, db.LatestTS())
	}
}

// TestVacuumHorizonRaceSnapshotOpen is the TOCTOU regression test for
// VacuumHorizon: it hammers Snapshot-open against committing writers and
// a continuous vacuum loop. Because the horizon loads latestTS before
// consulting the pin registry (and returns the minimum), a snapshot
// pinned in the window between the two loads can never have its versions
// reclaimed — every fresh snapshot must answer with one stable count for
// its whole lifetime.
func TestVacuumHorizonRaceSnapshotOpen(t *testing.T) {
	db := txnDB(t)
	a, _ := db.InsertAtom("n", model.Int(0))
	b, _ := db.InsertAtom("n", model.Int(0))
	c, _ := db.Container("n")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: each commit moves both atoms to the same value
		defer wg.Done()
		for k := int64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			txn := db.Begin()
			if err := txn.UpdateAtom("n", a, []model.Value{model.Int(k)}); err != nil {
				t.Error(err)
				return
			}
			if err := txn.UpdateAtom("n", b, []model.Value{model.Int(k)}); err != nil {
				t.Error(err)
				return
			}
			if err := txn.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // vacuum with no ticker delay, maximizing the window
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Vacuum()
			runtime.Gosched()
		}
	}()
	for i := 0; i < 3000; i++ {
		snap := db.Snapshot()
		av, aok := snap.Atom(c, a)
		bv, bok := snap.Atom(c, b)
		ts := snap.TS()
		snap.Close()
		if !aok || !bok {
			t.Fatalf("snapshot at ts %d lost an atom (vacuum reclaimed a pinned version): a=%v b=%v", ts, aok, bok)
		}
		if av.Get(0).String() != bv.Get(0).String() {
			t.Fatalf("torn snapshot at ts %d: a=%v b=%v", ts, av.Get(0), bv.Get(0))
		}
	}
	close(stop)
	wg.Wait()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond with a bounded number of short sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}
