package storage

import "sync/atomic"

// Snapshot is a View pinned at one commit: every read through it resolves
// version chains against the commit timestamp that was published when the
// snapshot was taken, and the pin holds the vacuum horizon back so those
// versions stay reachable. Snapshots never block behind writers and
// writers never block behind snapshots; Close it when done. A Snapshot is
// safe for concurrent use by multiple goroutines; Close is idempotent.
type Snapshot struct {
	View
	closed atomic.Bool
}

// Snapshot pins the latest published commit as an immutable read view.
func (db *Database) Snapshot() *Snapshot {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	ts := db.latestTS.Load()
	db.liveSnaps[ts]++
	return &Snapshot{View: db.View(ts)}
}

// snapshotAt registers a view at a timestamp the caller already keeps
// reachable (the checkpoint pins the newest allocated commit under the
// commit mutex).
func (db *Database) snapshotAt(ts uint64) *Snapshot {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	db.liveSnaps[ts]++
	return &Snapshot{View: db.View(ts)}
}

// Close releases the snapshot's pin on its versions, letting vacuum
// reclaim them once no other snapshot needs them. Reads after Close still
// resolve, but may observe reclaimed (newer-truncated) state; don't.
func (s *Snapshot) Close() {
	if s.closed.Swap(true) {
		return
	}
	db := s.db
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	if n := db.liveSnaps[s.ts]; n > 1 {
		db.liveSnaps[s.ts] = n - 1
	} else {
		delete(db.liveSnaps, s.ts)
	}
}

// oldestLiveSnapshot returns the smallest pinned snapshot timestamp and
// whether any snapshot is live.
func (db *Database) oldestLiveSnapshot() (uint64, bool) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	var min uint64
	found := false
	for ts := range db.liveSnaps {
		if !found || ts < min {
			min = ts
			found = true
		}
	}
	return min, found
}

// LiveSnapshots reports how many snapshot pins are currently registered
// (transactions pin their begin snapshot too).
func (db *Database) LiveSnapshots() int {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	n := 0
	for _, c := range db.liveSnaps {
		n += c
	}
	return n
}
