// Package storage implements the occurrence half of a MAD database: atom
// containers (atom-type occurrences), bidirectional link stores (link-type
// occurrences), secondary indexes and the integrity rules the paper calls
// out — symmetric links, no dangling references, cardinality restrictions
// (Section 3.1). Together with a catalog.Schema it realizes the "atom
// networks" that molecule derivation is laid over.
//
// Every occurrence is versioned: each atom, link partner list and index
// posting is the head of an immutable version chain (chain.go) stamped
// with the commit timestamp that installed it. Which occurrence a read
// sees is decided once, by the View it reads through (view.go) — the
// latest published commit, a pinned Snapshot, or a transaction's
// effective view — so readers never block behind writers; how a write
// becomes a version is decided once too, by applyOp (apply.go), which
// auto-commits, Txn.Commit and WAL replay all run under the database's
// commit mutex.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mad/internal/model"
)

// Container holds the occurrence of one atom type: a set of atoms in
// stable insertion order with O(1) lookup by identifier, versioned so
// concurrent snapshots each see a consistent membership.
//
// A container may hold atoms whose identifiers were issued by *another*
// atom type: the propagation operator (Definition 9) installs renamed
// result types whose occurrences are restricted subsets of existing
// occurrences — the very same atoms, so subobject sharing stays literal.
// Only natively inserted atoms draw fresh identifiers from this
// container's sequence.
//
// The exported readers serve the latest published commit; a View reads
// the same chains at its own timestamp.
type Container struct {
	typeName string
	num      model.TypeNum
	desc     *model.Desc
	clock    *atomic.Uint64 // the database's published commit timestamp

	latch sync.RWMutex
	order []model.AtomID                   // insertion order, one slot per key of index
	index chains[model.AtomID, model.Atom] // id → version chain
	seq   uint64                           // last issued native sequence number
	live  int                              // atoms live at the chain heads
}

// newContainer creates an empty container for the atom type numbered num
// whose latest-view readers follow clock.
func newContainer(typeName string, num model.TypeNum, desc *model.Desc, clock *atomic.Uint64) *Container {
	return &Container{
		typeName: typeName,
		num:      num,
		desc:     desc,
		clock:    clock,
		index:    make(chains[model.AtomID, model.Atom]),
	}
}

// TypeName returns the owning atom type's name.
func (c *Container) TypeName() string { return c.typeName }

// Desc returns the owning atom type's description.
func (c *Container) Desc() *model.Desc { return c.desc }

// Len returns the number of atoms in the occurrence at the newest
// versions.
func (c *Container) Len() int {
	c.latch.RLock()
	defer c.latch.RUnlock()
	return c.live
}

// newAtom reserves a fresh native identifier and validates vals under it.
// Buffered transactions call this at buffer time so the caller learns the
// identifier before commit; an aborted transaction (or a rejected value
// list) burns the reserved sequence number, which is harmless —
// identifiers need only be unique, not dense.
func (c *Container) newAtom(vals []model.Value) (model.Atom, error) {
	c.latch.Lock()
	if c.seq >= model.MaxSeq {
		c.latch.Unlock()
		return model.Atom{}, fmt.Errorf("storage: atom type %q exhausted its identifier space", c.typeName)
	}
	c.seq++
	id := model.MakeAtomID(c.num, c.seq)
	c.latch.Unlock()
	return c.validate(id, vals)
}

// validate checks the identifier, widens and checks vals against the
// description, returning the stored form of the atom over a copy of vals.
func (c *Container) validate(id model.AtomID, vals []model.Value) (model.Atom, error) {
	if !id.Valid() {
		return model.Atom{}, fmt.Errorf("storage: invalid atom id for %q", c.typeName)
	}
	a := model.NewAtom(id, vals...).Widened(c.desc)
	if err := a.Conforms(c.desc); err != nil {
		return model.Atom{}, err
	}
	return a, nil
}

// put installs a version of the atom at commit timestamp ts — an insertion
// when the identifier has no live head, an update otherwise; expect
// (putUpsert, putNew, putReplace) says which of the two the caller
// requires, and a put that is the other pushes nothing and errs. It
// returns the value replaced, and keeps the native sequence ahead of the
// identifier (adopted and replayed atoms carry identifiers issued
// elsewhere; fresh allocations must not collide with them). The
// undo pops the version; callers hold the database's commit mutex, so one
// commit mutates the chains at a time.
func (c *Container) put(a model.Atom, ts uint64, expect uint8) (old model.Atom, hadOld bool, undo func(), err error) {
	c.latch.Lock()
	defer c.latch.Unlock()
	old, hadOld = c.index.head(a.ID)
	switch {
	case expect == putReplace && !hadOld:
		return old, false, nil, fmt.Errorf("storage: atom %v not in %q", a.ID, c.typeName)
	case expect == putNew && hadOld:
		return old, true, nil, fmt.Errorf("storage: atom %v already present in %q", a.ID, c.typeName)
	}
	if a.ID.TypeNum() == c.num && a.ID.Seq() > c.seq {
		c.seq = a.ID.Seq()
	}
	prev, wasLive := c.index.push(a.ID, a, ts, false), hadOld
	if !wasLive {
		c.live++
	}
	if prev == nil {
		c.order = append(c.order, a.ID)
	}
	return old, hadOld, func() {
		c.latch.Lock()
		defer c.latch.Unlock()
		c.index.pop(a.ID, prev)
		if prev == nil {
			// Undos run in reverse op order, so the slot this put appended
			// is the newest one holding a.ID.
			for i := len(c.order) - 1; i >= 0; i-- {
				if c.order[i] == a.ID {
					c.order = slices.Delete(c.order, i, i+1)
					break
				}
			}
		}
		if !wasLive {
			c.live--
		}
	}, nil
}

// remove installs a tombstone at ts and returns the value it buries. It
// errs, pushing nothing, when the atom has no live newest version.
func (c *Container) remove(id model.AtomID, ts uint64) (old model.Atom, undo func(), err error) {
	c.latch.Lock()
	defer c.latch.Unlock()
	old, ok := c.index.head(id)
	if !ok {
		return old, nil, fmt.Errorf("storage: atom %v not in %q", id, c.typeName)
	}
	prev := c.index.push(id, model.Atom{}, ts, true)
	c.live--
	return old, func() {
		c.latch.Lock()
		defer c.latch.Unlock()
		c.index.pop(id, prev)
		c.live++
	}, nil
}

// get resolves one atom at commit timestamp ts.
func (c *Container) get(id model.AtomID, ts uint64) (model.Atom, bool) {
	c.latch.RLock()
	defer c.latch.RUnlock()
	return c.index[id].at(ts)
}

// atoms returns the atoms visible at ts in insertion order. The slice is
// captured under the read latch, so callers iterate it free to re-enter
// the storage layer.
func (c *Container) atoms(ts uint64) []model.Atom {
	c.latch.RLock()
	defer c.latch.RUnlock()
	out := make([]model.Atom, 0, c.live)
	for _, id := range c.order {
		if a, ok := c.index[id].at(ts); ok {
			out = append(out, a)
		}
	}
	return out
}

// ids returns the identifiers visible at ts in insertion order.
func (c *Container) ids(ts uint64) []model.AtomID {
	c.latch.RLock()
	defer c.latch.RUnlock()
	out := make([]model.AtomID, 0, c.live)
	for _, id := range c.order {
		if _, ok := c.index[id].at(ts); ok {
			out = append(out, id)
		}
	}
	return out
}

// Get returns the atom with the given identifier at the latest published
// commit.
func (c *Container) Get(id model.AtomID) (model.Atom, bool) { return c.get(id, c.clock.Load()) }

// Has reports whether the identifier is present at the latest commit.
func (c *Container) Has(id model.AtomID) bool {
	_, ok := c.Get(id)
	return ok
}

// Scan calls fn for every atom in insertion order at the latest commit;
// fn returning false stops the scan early.
func (c *Container) Scan(fn func(model.Atom) bool) {
	for _, a := range c.Atoms() {
		if !fn(a) {
			return
		}
	}
}

// IDs returns the identifiers of all atoms in insertion order at the
// latest commit.
func (c *Container) IDs() []model.AtomID { return c.ids(c.clock.Load()) }

// Atoms returns a copy of the occurrence in insertion order at the latest
// commit.
func (c *Container) Atoms() []model.Atom { return c.atoms(c.clock.Load()) }

func (c *Container) chainSets() (*sync.RWMutex, []chainSet) {
	return &c.latch, []chainSet{c.index}
}

// swept drops the insertion-order slots of identifiers truncate removed.
func (c *Container) swept() {
	c.order = slices.DeleteFunc(c.order, func(id model.AtomID) bool { return c.index[id] == nil })
}
