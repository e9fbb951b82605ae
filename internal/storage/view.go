package storage

import (
	"slices"
	"sync/atomic"

	"mad/internal/model"
)

// View decides which occurrence a read sees — THE read surface of the
// storage layer. It is a small value: a commit timestamp every version
// chain is resolved against, plus the owning transaction when that holds
// buffered writes, whose overlay is then merged over the committed state
// (read-your-writes). The zero timestamp reads the latest published commit
// afresh at each call — what the timestamp-less Database methods, the
// paper baselines and the naive derivation oracle use; a Snapshot is a
// View pinned at one commit; Txn.View is a transaction's effective view.
//
// The readers take already-resolved *Container / *LinkStore handles, so
// the per-atom and per-link hot path of molecule derivation does no name
// lookup: one branch, one latch, one chain walk. They book no logical
// work; the callers that account (the deriver's tally, core.Binding,
// core.Reader, the Database conveniences) do. Only the index reads, which resolve the index
// by name, count themselves.
type View struct {
	db  *Database
	ts  uint64
	txn *Txn
}

// View returns the read view of the committed state as of commit
// timestamp ts; zero means the latest published commit at each read. A
// non-zero ts is only stable while something — a Snapshot, a cursor — pins
// it against vacuum.
func (db *Database) View(ts uint64) View { return View{db: db, ts: ts} }

// TS returns the commit timestamp the view is pinned to, zero for the
// latest view.
func (v View) TS() uint64 { return v.ts }

// at is the timestamp chains resolve against: the pin, or the published
// clock the store follows.
func (v View) at(clock *atomic.Uint64) uint64 {
	if v.ts != 0 {
		return v.ts
	}
	return clock.Load()
}

// Atom resolves one atom of the container's type.
func (v View) Atom(c *Container, id model.AtomID) (model.Atom, bool) {
	if v.txn != nil {
		if o, ok := v.txn.atoms[c][id]; ok {
			return o.atom, !o.deleted
		}
	}
	return c.get(id, v.at(c.clock))
}

// Atoms reads the atoms ids — one component set of a molecule — in
// order into dst's storage, reused from dst[:0] and grown once when it
// is too small, so a caller that passes the last result back as dst
// stops allocating. It takes the container's latch once for the set, not
// once per atom: the workers of a parallel derivation all read the same
// few containers, and every acquisition writes a cache line they share,
// at a cost that depends on how their reads happen to interleave. It
// stops at the first identifier the occurrence does not hold: ok=false,
// and ids[len(atoms)] is that identifier. The atoms' values are
// immutable versions; callers must not mutate them.
func (v View) Atoms(c *Container, ids []model.AtomID, dst []model.Atom) (atoms []model.Atom, ok bool) {
	atoms = slices.Grow(dst[:0], len(ids))
	ts := v.at(c.clock)
	c.latch.RLock()
	defer c.latch.RUnlock()
	for _, id := range ids {
		a, ok := c.index[id].at(ts)
		if v.txn != nil {
			if o, buffered := v.txn.atoms[c][id]; buffered {
				a, ok = o.atom, !o.deleted
			}
		}
		if !ok {
			return atoms, false
		}
		atoms = append(atoms, a)
	}
	return atoms, true
}

// Has reports whether the container's occurrence holds id.
func (v View) Has(c *Container, id model.AtomID) bool {
	_, ok := v.Atom(c, id)
	return ok
}

// IDs returns the identifiers of the container's occurrence in insertion
// order; a transaction's own inserts follow in identifier order.
func (v View) IDs(c *Container) []model.AtomID {
	ts := v.at(c.clock)
	ids := c.ids(ts)
	if v.txn == nil || len(v.txn.atoms[c]) == 0 {
		return ids
	}
	ov := v.txn.atoms[c]
	ids = slices.DeleteFunc(ids, func(id model.AtomID) bool { return ov[id].deleted })
	var inserted []model.AtomID
	for id, o := range ov {
		if _, committed := c.get(id, ts); !committed && !o.deleted {
			inserted = append(inserted, id)
		}
	}
	return append(ids, model.SortAtomIDs(inserted)...)
}

// Scan calls fn for every atom of the occurrence in IDs order; fn
// returning false stops the scan. The visible set is captured first, so
// fn may freely re-enter the storage layer.
func (v View) Scan(c *Container, fn func(model.Atom) bool) {
	if v.txn == nil {
		for _, a := range c.atoms(v.at(c.clock)) {
			if !fn(a) {
				return
			}
		}
		return
	}
	for _, id := range v.IDs(c) {
		if a, ok := v.Atom(c, id); ok && !fn(a) {
			return
		}
	}
}

// Partners returns the atoms linked to id through the store: the side-B
// partners of a side-A atom when fromA is set, the symmetric view
// otherwise — the one navigation primitive molecule derivation is built
// on. The returned slice is an immutable version (or, under a
// transaction's overlay, a private copy); callers must not mutate it.
func (v View) Partners(ls *LinkStore, id model.AtomID, fromA bool) []model.AtomID {
	out := ls.partners(id, fromA, v.at(ls.clock))
	if v.txn != nil {
		out = v.txn.overlayPartners(ls, id, fromA, out)
	}
	return out
}

// hasLink reports whether the link <a, b> exists; for a reflexive link
// type <b, a> denotes the same link.
func (v View) hasLink(ls *LinkStore, a, b model.AtomID) bool {
	return slices.Contains(v.Partners(ls, a, true), b) ||
		ls.desc.Reflexive() && slices.Contains(v.Partners(ls, b, true), a)
}

// index resolves the index over typeName.attr for this view. Postings
// hold committed versions only and no overlay of a transaction's buffered
// writes exists, so a view carrying buffered writes has no index to read
// — the planner enters it by the full scan, for a SELECT and a DML
// statement's match alike.
func (v View) index(typeName, attr string) (*Index, bool) {
	if v.txn != nil {
		return nil, false
	}
	v.db.mu.RLock()
	ix, ok := v.db.indexes[indexKey(typeName, attr)]
	v.db.mu.RUnlock()
	if ok {
		v.db.stats.IndexLookups.Add(1)
	}
	return ix, ok
}

// IndexLookup consults the index over typeName.attr for the atoms whose
// attribute equals val, ascending; ok=false when no index can answer. It
// visits one key.
func (v View) IndexLookup(typeName, attr string, val model.Value) ([]model.AtomID, bool) {
	ix, ok := v.index(typeName, attr)
	if !ok {
		return nil, false
	}
	v.db.stats.IndexKeysVisited.Add(1)
	return ix.lookup(val, v.at(&v.db.latestTS)), true
}

// IndexOrdered returns the pulled walk of the index over typeName.attr
// inside r in attribute-value order (see IndexWalk), giving the query
// planner its sort-free ORDER BY access path and its range walks;
// ok=false when no index can answer.
func (v View) IndexOrdered(typeName, attr string, r KeyRange, desc bool) (*IndexWalk, bool) {
	ix, ok := v.index(typeName, attr)
	if !ok {
		return nil, false
	}
	w := &IndexWalk{ix: ix, ts: v.at(&v.db.latestTS), stats: &v.db.stats, order: ix.ordered(), desc: desc}
	w.lo, w.hi = r.span(w.order)
	return w, true
}
