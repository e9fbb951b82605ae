package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"mad/internal/model"
)

// Index is a secondary hash index over one attribute of one atom type,
// mapping attribute value to the identifiers of atoms carrying it. The
// query optimizer uses it for equality restrictions on molecule roots.
// Postings are version chains like every other occurrence structure, so
// a snapshot reader's index lookup agrees exactly with the membership it
// observes by scanning.
type Index struct {
	typeName string
	attr     string
	pos      int

	latch   sync.RWMutex
	entries chains[model.Key, []model.AtomID]
	keys    int // distinct keys with a non-empty newest posting

	// vals recovers the attribute value behind each entry key (Key is a
	// one-way encoding), and order caches the entry keys sorted by that
	// value — the ordered view walk seeks in. order is rebuilt lazily:
	// mutations only invalidate it when the key *set* changes (first
	// posting for a value, vacuum dropping a dead key), so steady
	// UPDATE/DELETE traffic on existing keys never pays a re-sort.
	vals       map[model.Key]model.Value
	order      []orderedKey
	orderDirty bool
}

// orderedKey is one entry of the ordered view: the decoded attribute
// value and the map key it indexes.
type orderedKey struct {
	v model.Value
	k model.Key
}

// newIndex creates an empty index over the attribute at position pos.
func newIndex(typeName, attr string, pos int) *Index {
	return &Index{
		typeName: typeName,
		attr:     attr,
		pos:      pos,
		entries:  make(chains[model.Key, []model.AtomID]),
		vals:     make(map[model.Key]model.Value),
	}
}

// post installs the posting list edit(head posting) under the atom's
// attribute value at commit timestamp ts, returning an undo that pops it.
func (ix *Index) post(a model.Atom, ts uint64, edit func([]model.AtomID) []model.AtomID) (undo func()) {
	v := a.Get(ix.pos)
	k := v.Key()
	ix.latch.Lock()
	defer ix.latch.Unlock()
	before, _ := ix.entries.head(k)
	items := edit(before)
	old := ix.entries.push(k, items, ts, len(items) == 0)
	if old == nil {
		ix.vals[k] = v
		ix.orderDirty = true
	}
	// keys moves when the posting crosses between empty and non-empty.
	delta := min(len(items), 1) - min(len(before), 1)
	ix.keys += delta
	return func() {
		ix.latch.Lock()
		defer ix.latch.Unlock()
		ix.entries.pop(k, old)
		if old == nil {
			delete(ix.vals, k)
			ix.orderDirty = true
		}
		ix.keys -= delta
	}
}

// add registers an atom under its attribute value at ts.
func (ix *Index) add(a model.Atom, ts uint64) (undo func()) {
	return ix.post(a, ts, func(ids []model.AtomID) []model.AtomID { return append(slices.Clone(ids), a.ID) })
}

// remove unregisters an atom at ts.
func (ix *Index) remove(a model.Atom, ts uint64) (undo func()) {
	return ix.post(a, ts, func(ids []model.AtomID) []model.AtomID { return without(ids, a.ID) })
}

// lookup returns the identifiers of atoms whose attribute equals v at
// commit timestamp ts, sorted ascending for determinism.
func (ix *Index) lookup(v model.Value, ts uint64) []model.AtomID {
	ix.latch.RLock()
	ids, _ := ix.entries[v.Key()].at(ts)
	ix.latch.RUnlock()
	out := make([]model.AtomID, len(ids))
	copy(out, ids)
	return model.SortAtomIDs(out)
}

// Len returns the number of distinct keys with at least one atom at the
// newest versions.
func (ix *Index) Len() int {
	ix.latch.RLock()
	defer ix.latch.RUnlock()
	return ix.keys
}

func (ix *Index) chainSets() (*sync.RWMutex, []chainSet) {
	return &ix.latch, []chainSet{ix.entries}
}

// swept forgets the values of keys truncate removed.
func (ix *Index) swept() {
	for k := range ix.vals {
		if ix.entries[k] == nil {
			delete(ix.vals, k)
			ix.orderDirty = true
		}
	}
}

// keyLess is a total order over entry keys, used only as a determinism
// tiebreak between distinct keys whose values compare equal (1 vs 1.0).
func keyLess(a, b model.Key) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	if a.I != b.I {
		return a.I < b.I
	}
	if a.F != b.F {
		return a.F < b.F
	}
	return a.S < b.S
}

// ordered returns the value-sorted entry-key view, rebuilding it first
// when the key set changed. Values that compare equal across kinds (1 and
// 1.0) fall back to the entry-key order so walks are deterministic. A
// rebuild publishes a fresh slice and never writes a published one, so a
// walk keeps reading the view it got without the latch and without a
// copy; only a rebuild takes the write latch.
func (ix *Index) ordered() []orderedKey {
	ix.latch.RLock()
	order, dirty := ix.order, ix.orderDirty
	ix.latch.RUnlock()
	if !dirty {
		return order
	}
	ix.latch.Lock()
	defer ix.latch.Unlock()
	if ix.orderDirty {
		order = make([]orderedKey, 0, len(ix.vals))
		for k, v := range ix.vals {
			order = append(order, orderedKey{v: v, k: k})
		}
		sort.Slice(order, func(i, j int) bool {
			if c := order[i].v.Compare(order[j].v); c != 0 {
				return c < 0
			}
			return keyLess(order[i].k, order[j].k)
		})
		ix.order, ix.orderDirty = order, false
	}
	return ix.order
}

// KeyRange bounds an ordered index walk to an interval of attribute
// values; HasLo/HasHi mark the bounds present and LoInc/HiInc their
// inclusivity. The zero range walks every key. A bounded range never
// admits null keys: a null compares to nothing under predicate
// evaluation.
type KeyRange struct {
	HasLo, HasHi bool
	Lo, Hi       model.Value
	LoInc, HiInc bool
}

// span seeks the range's ends in the value-sorted view: the keys inside
// it are order[lo:hi]. Nulls sort first, so a bounded range starts past
// them.
func (r KeyRange) span(order []orderedKey) (lo, hi int) {
	hi = len(order)
	if r.HasLo || r.HasHi {
		lo = sort.Search(hi, func(i int) bool { return !order[i].v.IsNull() })
	}
	if r.HasLo {
		lo = max(lo, sort.Search(len(order), func(i int) bool {
			c := order[i].v.Compare(r.Lo)
			return c > 0 || c == 0 && r.LoInc
		}))
	}
	if r.HasHi {
		hi = sort.Search(len(order), func(i int) bool {
			c := order[i].v.Compare(r.Hi)
			return c > 0 || c == 0 && !r.HiInc
		})
	}
	return lo, max(lo, hi)
}

// IndexWalk is a pulled walk over an index's keys inside a KeyRange in
// attribute-value order (descending when desc is set) as of one commit
// timestamp. It seeks the range's first key by binary search when it is
// made, and reads and copies a posting only when Next visits its key,
// booking the key into the database's IndexKeysVisited. Empty postings
// (keys whose atoms are all newer than ts, or deleted by ts) are
// skipped, which is what makes the walk MVCC-correct: a key committed
// after ts resolves to an empty visible posting, and vacuum can only drop
// keys whose posting is empty at every reachable timestamp.
type IndexWalk struct {
	ix     *Index
	ts     uint64
	stats  *Stats
	order  []orderedKey
	lo, hi int
	desc   bool
}

// Next returns the next key's value with the identifiers of the atoms
// carrying it — sorted ascending, so equal-key runs have a deterministic
// ID order in either direction — and ok=false once the range is
// exhausted.
func (w *IndexWalk) Next() (model.Value, []model.AtomID, bool) {
	for w.lo < w.hi {
		i := w.lo
		if w.desc {
			w.hi--
			i = w.hi
		} else {
			w.lo++
		}
		w.ix.latch.RLock()
		ids, _ := w.ix.entries[w.order[i].k].at(w.ts)
		w.ix.latch.RUnlock()
		w.stats.IndexKeysVisited.Add(1)
		if len(ids) > 0 {
			return w.order[i].v, model.SortAtomIDs(slices.Clone(ids)), true
		}
	}
	return model.Value{}, nil, false
}

// indexKey names an index within the database.
func indexKey(typeName, attr string) string { return typeName + "." + attr }

// CreateIndex builds a secondary index over typeName.attr, back-filling
// it from the current occurrence as one auto-commit. It errs on unknown
// or uncommitted types, unknown attributes and duplicate index creation.
func (db *Database) CreateIndex(typeName, attr string) error {
	_, err := db.autoCommit(walOp{kind: walOpCreateIndex, name: typeName, def: &walDef{attr: attr}})
	return err
}

// createIndexAt is applyOp's index-creation arm: the backfill scans the
// occurrence as of ts (every earlier commit is applied by then) and
// installs postings at ts.
func (db *Database) createIndexAt(typeName, attr string, ts uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, pos, err := db.attrOf(typeName, attr)
	if err != nil {
		return err
	}
	key := indexKey(typeName, attr)
	if _, dup := db.indexes[key]; dup {
		return fmt.Errorf("storage: index on %s already exists", key)
	}
	ix := newIndex(typeName, attr, pos)
	for _, a := range c.atoms(ts) {
		ix.add(a, ts)
	}
	db.indexes[key] = ix
	return nil
}

// attrOf resolves a committed atom type's container and the position of
// its attribute attr; callers hold db.mu.
func (db *Database) attrOf(typeName, attr string) (*Container, int, error) {
	c, ok := db.containers[typeName]
	if !ok || !db.visible(typeName, nil) {
		return nil, 0, fmt.Errorf("storage: unknown atom type %q", typeName)
	}
	pos, ok := c.Desc().Lookup(attr)
	if !ok {
		return nil, 0, fmt.Errorf("storage: atom type %q has no attribute %q", typeName, attr)
	}
	return c, pos, nil
}

// DropIndex removes the index over typeName.attr as one auto-commit; it
// reports whether the index existed (and the drop committed).
func (db *Database) DropIndex(typeName, attr string) bool {
	eff, err := db.autoCommit(walOp{kind: walOpDropIndex, name: typeName, def: &walDef{attr: attr}})
	return err == nil && eff.changed
}

// dropIndex is applyOp's index-removal arm.
func (db *Database) dropIndex(typeName, attr string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := indexKey(typeName, attr)
	if _, ok := db.indexes[key]; !ok {
		return false
	}
	delete(db.indexes, key)
	return true
}

// HasIndex reports whether an index over typeName.attr exists.
func (db *Database) HasIndex(typeName, attr string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.indexes[indexKey(typeName, attr)]
	return ok
}

// IndexCardinality returns the number of distinct keys in the index over
// typeName.attr — the statistic the query planner divides the occurrence
// size by to estimate equality selectivity. ok=false without an index.
func (db *Database) IndexCardinality(typeName, attr string) (int, bool) {
	db.mu.RLock()
	ix, ok := db.indexes[indexKey(typeName, attr)]
	db.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return ix.Len(), true
}

// Indexes lists the existing indexes as "type.attr" strings, sorted.
func (db *Database) Indexes() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.indexes))
	for k := range db.indexes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// indexesOf returns the indexes covering the named atom type; callers
// hold db.mu.
func (db *Database) indexesOf(typeName string) []*Index {
	var out []*Index
	for _, ix := range db.indexes {
		if ix.typeName == typeName {
			out = append(out, ix)
		}
	}
	return out
}
