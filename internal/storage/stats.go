package storage

import (
	"fmt"
	"sync/atomic"
)

// counter is an atomically updated statistic.
type counter struct{ v atomic.Int64 }

func (c *counter) Add(n int64)   { c.v.Add(n) }
func (c *counter) Load() int64   { return c.v.Load() }
func (c *counter) Store(n int64) { c.v.Store(n) }

// Stats counts the logical work a database performs. The PRIMA prototype
// split its architecture into an atom-oriented layer below a molecule-
// processing layer (Chapter 5); these counters expose the atom-oriented
// layer's traffic so experiments can report logical work independent of
// wall-clock noise.
type Stats struct {
	AtomsFetched   counter // atoms materialized by Get/Scan
	LinksTraversed counter // partner-list steps taken
	AtomsInserted  counter
	AtomsDeleted   counter
	LinksConnected counter
	LinksDropped   counter
	IndexLookups   counter
	// IndexKeysVisited counts the index keys whose posting a lookup or an
	// ordered walk read.
	IndexKeysVisited counter
	AutoAnalyzes     counter // histogram rebuilds triggered by drift
}

// WorkTally accumulates logical-work counts locally — one goroutine, no
// atomics — so hot loops (parallel derivation above all) avoid per-step
// atomic traffic on the shared Stats block. FlushTo folds the tally into
// Stats in one atomic operation per non-zero count and zeroes it; Add
// merges another tally (a worker's) into this one.
type WorkTally struct {
	AtomsFetched   int64
	LinksTraversed int64
}

// Add merges o into t.
func (t *WorkTally) Add(o WorkTally) {
	t.AtomsFetched += o.AtomsFetched
	t.LinksTraversed += o.LinksTraversed
}

// FlushTo adds the tally into the shared counters and resets it.
func (t *WorkTally) FlushTo(s *Stats) {
	if t.AtomsFetched != 0 {
		s.AtomsFetched.Add(t.AtomsFetched)
	}
	if t.LinksTraversed != 0 {
		s.LinksTraversed.Add(t.LinksTraversed)
	}
	*t = WorkTally{}
}

// StatsSnapshot is an immutable copy of the counters.
type StatsSnapshot struct {
	AtomsFetched     int64
	LinksTraversed   int64
	AtomsInserted    int64
	AtomsDeleted     int64
	LinksConnected   int64
	LinksDropped     int64
	IndexLookups     int64
	IndexKeysVisited int64
	AutoAnalyzes     int64
}

// Snapshot copies the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		AtomsFetched:     s.AtomsFetched.Load(),
		LinksTraversed:   s.LinksTraversed.Load(),
		AtomsInserted:    s.AtomsInserted.Load(),
		AtomsDeleted:     s.AtomsDeleted.Load(),
		LinksConnected:   s.LinksConnected.Load(),
		LinksDropped:     s.LinksDropped.Load(),
		IndexLookups:     s.IndexLookups.Load(),
		IndexKeysVisited: s.IndexKeysVisited.Load(),
		AutoAnalyzes:     s.AutoAnalyzes.Load(),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.AtomsFetched.Store(0)
	s.LinksTraversed.Store(0)
	s.AtomsInserted.Store(0)
	s.AtomsDeleted.Store(0)
	s.LinksConnected.Store(0)
	s.LinksDropped.Store(0)
	s.IndexLookups.Store(0)
	s.IndexKeysVisited.Store(0)
	s.AutoAnalyzes.Store(0)
}

// Sub returns the per-field difference s - o, for before/after accounting.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		AtomsFetched:     s.AtomsFetched - o.AtomsFetched,
		LinksTraversed:   s.LinksTraversed - o.LinksTraversed,
		AtomsInserted:    s.AtomsInserted - o.AtomsInserted,
		AtomsDeleted:     s.AtomsDeleted - o.AtomsDeleted,
		LinksConnected:   s.LinksConnected - o.LinksConnected,
		LinksDropped:     s.LinksDropped - o.LinksDropped,
		IndexLookups:     s.IndexLookups - o.IndexLookups,
		IndexKeysVisited: s.IndexKeysVisited - o.IndexKeysVisited,
		AutoAnalyzes:     s.AutoAnalyzes - o.AutoAnalyzes,
	}
}

// String renders the snapshot compactly.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf("fetched=%d traversed=%d inserted=%d deleted=%d connected=%d dropped=%d indexed=%d autoanalyzed=%d",
		s.AtomsFetched, s.LinksTraversed, s.AtomsInserted, s.AtomsDeleted,
		s.LinksConnected, s.LinksDropped, s.IndexLookups, s.AutoAnalyzes)
}
