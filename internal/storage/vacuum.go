package storage

import (
	"sync"
	"time"
)

// VacuumStats reports one vacuum pass: how many version nodes were
// reclaimed, the horizon the pass ran at, and the version-chain pressure
// REMAINING after the pass — chains a pinned snapshot or write-heavy
// load kept long. The background vacuum uses the residual pressure to
// tighten its cadence.
type VacuumStats struct {
	Reclaimed int
	Horizon   uint64

	// Chains counts the version chains across every occurrence and
	// index after the pass; MeanChain and MaxChain are their mean and
	// maximum length. A mean near 1 means versions collapse as fast as
	// writers stack them; a climbing mean or max signals the horizon is
	// stuck (an old pin) or the cadence is too slow for the write rate.
	Chains    int
	MeanChain float64
	MaxChain  int
}

// VacuumHorizon returns the commit timestamp below which no live
// snapshot can look: the oldest pinned snapshot, or the latest published
// commit when nothing is pinned. Versions strictly older than the newest
// version at or below the horizon are unreachable and safe to reclaim.
//
// latestTS is loaded BEFORE the snapshot registry is consulted and the
// minimum of the two is returned: a snapshot pinned after the registry
// check necessarily pins a timestamp >= that latest, so a horizon capped
// at it can never reclaim versions a concurrently-opened snapshot needs.
// (The other order races: a reader pins ts=S and a writer commits S+1
// between the two loads, and a horizon of S+1 severs versions the live
// snapshot at S still reads.)
func (db *Database) VacuumHorizon() uint64 {
	latest := db.latestTS.Load()
	if ts, ok := db.oldestLiveSnapshot(); ok && ts < latest {
		return ts
	}
	return latest
}

// stores lists every Container, LinkStore and Index — the one iterator
// over all version chains that Vacuum, VersionCount and the chain-pressure
// figures share.
func (db *Database) stores() []store {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]store, 0, len(db.containers)+len(db.links)+len(db.indexes))
	for _, c := range db.containers {
		out = append(out, c)
	}
	for _, ls := range db.links {
		out = append(out, ls)
	}
	for _, ix := range db.indexes {
		out = append(out, ix)
	}
	return out
}

// chainStats reports the version-chain pressure across every occurrence
// and index: chains, total version nodes and the longest chain.
func (db *Database) chainStats() (chains, nodes, maxLen int) {
	for _, s := range db.stores() {
		latch, sets := s.chainSets()
		latch.RLock()
		for _, set := range sets {
			n, v, l := set.pressure()
			chains += n
			nodes += v
			maxLen = max(maxLen, l)
		}
		latch.RUnlock()
	}
	return chains, nodes, maxLen
}

// Vacuum reclaims version-chain nodes no live snapshot can reach: for
// every chain it keeps the newest version at or below the horizon as the
// new tail and severs everything older, and removes slots whose entire
// reachable history is a tombstone or empty list. Safe to run while
// readers stream and writers commit; it takes each occurrence's write
// latch briefly, never the commit mutex.
func (db *Database) Vacuum() VacuumStats {
	st := VacuumStats{Horizon: db.VacuumHorizon()}
	for _, s := range db.stores() {
		latch, sets := s.chainSets()
		latch.Lock()
		removed := 0
		for _, set := range sets {
			reclaimed, dropped := set.truncate(st.Horizon)
			st.Reclaimed += reclaimed
			removed += dropped
		}
		if removed > 0 {
			s.swept()
		}
		latch.Unlock()
	}
	var nodes int
	st.Chains, nodes, st.MaxChain = db.chainStats()
	if st.Chains > 0 {
		st.MeanChain = float64(nodes) / float64(st.Chains)
	}
	return st
}

// VersionCount reports the total number of version nodes across every
// occurrence and index — the metric snapshot/GC tests leak-check: it must
// shrink back once snapshots close and vacuum runs.
func (db *Database) VersionCount() int {
	_, nodes, _ := db.chainStats()
	return nodes
}

// Chain-pressure thresholds for the adaptive vacuum cadence: a residual
// mean chain length or max chain past these marks halves the interval;
// past double the marks it quarters.
const (
	chainPressureMean = 2.0
	chainPressureMax  = 16
)

// nextVacuumInterval picks the delay before the next background pass
// from the residual chain pressure the last one left behind: base under
// light pressure, base/2 once chains stay long, base/4 under heavy
// write load — floored at a millisecond so pathological pressure cannot
// spin the goroutine.
func nextVacuumInterval(base time.Duration, st VacuumStats) time.Duration {
	next := base
	switch {
	case st.MeanChain >= 2*chainPressureMean || st.MaxChain >= 2*chainPressureMax:
		next = base / 4
	case st.MeanChain >= chainPressureMean || st.MaxChain >= chainPressureMax:
		next = base / 2
	}
	if next < time.Millisecond {
		next = time.Millisecond
	}
	return next
}

// StartVacuum launches a background goroutine that vacuums at the given
// base interval, reclaiming versions older than the oldest live
// snapshot. The cadence is adaptive: when a pass leaves high residual
// chain pressure behind (write-heavy load stacking versions faster than
// the base cadence collapses them), the next pass runs at base/2 or
// base/4 — and relaxes back to base once the pressure drains. The
// returned stop function halts it and waits for the in-flight pass
// (stop is idempotent).
func (db *Database) StartVacuum(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTimer(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				st := db.Vacuum()
				t.Reset(nextVacuumInterval(interval, st))
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
