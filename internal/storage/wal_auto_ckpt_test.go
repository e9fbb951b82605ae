package storage

import (
	"testing"
	"time"

	"mad/internal/model"
)

// waitAutoCkpt polls until the database has completed n auto-checkpoints
// (the trigger runs off the flusher goroutine).
func waitAutoCkpt(t *testing.T, db *Database, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if db.AutoCheckpoints() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("auto-checkpoint #%d did not fire (have %d, live=%d bytes)", n, db.AutoCheckpoints(), db.LiveWALBytes())
}

// TestAutoCheckpointFiresOncePerCrossing drives the live log over the
// SetAutoCheckpoint threshold and asserts exactly one checkpoint fires
// per crossing: crossing once fires once no matter how far past the
// threshold the log runs, the completed checkpoint resets the live
// counter, and only a fresh crossing fires again.
func TestAutoCheckpointFiresOncePerCrossing(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})
	if _, err := db.DefineAtomType("t", d); err != nil {
		t.Fatal(err)
	}

	const limit = 4096
	if err := db.SetAutoCheckpoint(limit); err != nil {
		t.Fatal(err)
	}
	insert := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := db.InsertAtom("t", model.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// cross inserts until the live log reaches the threshold, then stops
	// — so the writes landing after the triggered checkpoint's rotation
	// are deterministically zero and cannot form a second crossing. The
	// rotation may already have reset the live counter by the time it is
	// read here; it moved the segment number first.
	cross := func() {
		t.Helper()
		for seg := db.wal.Segment(); db.LiveWALBytes() < limit && db.wal.Segment() == seg; {
			insert(1)
		}
	}

	// Stay below the threshold: nothing fires.
	insert(8)
	if db.LiveWALBytes() >= limit {
		t.Fatalf("sanity: %d live bytes already over the %d threshold", db.LiveWALBytes(), limit)
	}
	time.Sleep(10 * time.Millisecond)
	if n := db.AutoCheckpoints(); n != 0 {
		t.Fatalf("checkpoint fired below the threshold: %d", n)
	}

	// Cross once: one checkpoint.
	cross()
	waitAutoCkpt(t, db, 1)
	if n := db.AutoCheckpoints(); n != 1 {
		t.Fatalf("first crossing fired %d checkpoints", n)
	}
	// The checkpoint's rotation reset the live region; a few more small
	// commits must not re-fire.
	insert(8)
	time.Sleep(10 * time.Millisecond)
	if n := db.AutoCheckpoints(); n != 1 {
		t.Fatalf("re-fired below the threshold after reset: %d", n)
	}
	if live := db.LiveWALBytes(); live >= limit {
		t.Fatalf("live log not reset by the checkpoint: %d bytes", live)
	}

	// A genuinely new crossing fires exactly one more.
	cross()
	waitAutoCkpt(t, db, 2)

	// The checkpoints actually did their job: old segments are gone and
	// recovery reproduces the live state from checkpoint + short tail.
	segs, err := listWALSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("checkpoints left %d segments behind", len(segs))
	}
	live := fingerprint(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(rec); got != live {
		t.Fatalf("recovered state diverges after auto-checkpoints\nlive:\n%s\ngot:\n%s", live, got)
	}
}

// TestAutoCheckpointLatchesWhileInFlight holds a checkpoint open via the
// test hook while commits keep crossing the threshold and asserts the
// in-flight latch admits no second trigger until the first completes.
func TestAutoCheckpointLatchesWhileInFlight(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d := model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})
	if _, err := db.DefineAtomType("t", d); err != nil {
		t.Fatal(err)
	}

	// While the triggered checkpoint holds its pin, hammer the log far
	// past the threshold again: the latch must swallow every crossing
	// observed before the first checkpoint completes.
	entered := make(chan struct{}, 8)
	db.ckptTestHook = func() {
		entered <- struct{}{}
		for i := 0; i < 200; i++ {
			if _, err := db.InsertAtom("t", model.Int(int64(i))); err != nil {
				t.Errorf("in-hook insert: %v", err)
				return
			}
		}
	}
	if err := db.SetAutoCheckpoint(512); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.InsertAtom("t", model.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	<-entered
	waitAutoCkpt(t, db, 1)
	db.ckptTestHook = nil
	// The in-hook inserts re-crossed the threshold, so after the first
	// checkpoint completes (and only then) a second may fire. Between
	// the two, the count passes through exactly 1 — waitAutoCkpt above
	// observed that state; had a second trigger stacked while the first
	// was in flight, its hook send would have filled the channel twice
	// before the count ever reached 1.
	if n := len(entered); n != 0 {
		t.Fatalf("%d checkpoint(s) entered while the first was still in flight", n)
	}
}

// TestCloseJoinsAutoCheckpoint: Close must not return while a triggered
// checkpoint is still running — it would go on to rename its file and
// prune segments under whoever opens the directory next — and everything
// acknowledged before Close, on either side of the checkpoint, must be
// there after recovery.
func TestCloseJoinsAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})
	if _, err := db.DefineAtomType("t", d); err != nil {
		t.Fatal(err)
	}
	inFlight, release := make(chan struct{}), make(chan struct{})
	db.ckptTestHook = func() {
		close(inFlight)
		<-release
	}
	if err := db.SetAutoCheckpoint(512); err != nil {
		t.Fatal(err)
	}
	acked := 0
	insert := func() {
		t.Helper()
		if _, err := db.InsertAtom("t", model.Int(int64(acked))); err != nil {
			t.Fatal(err)
		}
		acked++
	}
	for started := false; !started; {
		insert()
		select {
		case <-inFlight:
			started = true
		default:
		}
	}
	// Commits behind the checkpoint's rotation land in the new segment.
	for i := 0; i < 8; i++ {
		insert()
	}

	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while an auto-checkpoint was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := db.AutoCheckpoints(); n != 1 {
		t.Fatalf("%d auto-checkpoints completed by the time Close returned, want 1", n)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rec.CountAtoms("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != acked {
		t.Fatalf("recovered %d atoms, %d commits were acknowledged", n, acked)
	}
}
