package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mad/internal/catalog"
	"mad/internal/model"
)

// Database is a MAD database DB = <AT, LT> (Definition 3): a schema plus
// the occurrences of every atom type and link type. Every occurrence is a
// set of version chains stamped with commit timestamps; readers resolve
// them through a View (the latest published commit, a pinned Snapshot, a
// transaction's effective view) and never block behind writers, and
// writers serialize on a dedicated commit mutex whose critical section is
// just "apply the operations, advance the clock". All mutation goes
// through Database methods (auto-commits) or a buffered Txn, both of
// which run applyOp — the one place that maintains referential integrity
// ("there are no dangling references"), link symmetry, cardinality
// restrictions and secondary indexes; the per-attribute histograms built
// by Analyze follow after publication.
//
// Lock order, outermost first: commitMu → mu → per-occurrence latches.
// snapMu is a leaf lock guarding only the live-snapshot registry.
type Database struct {
	// mu guards the registries (schema, containers, links, indexes,
	// hists) — not the occurrence contents, which carry their own latch.
	// containers and links also hold the types Txns have defined but not
	// yet committed (see reserve).
	mu         sync.RWMutex
	schema     *catalog.Schema
	containers map[string]*Container
	links      map[string]*LinkStore
	indexes    map[string]*Index
	hists      map[string]*attrHist

	// commitMu serializes writers: one commit installs and publishes at a
	// time. Readers never take it.
	commitMu sync.Mutex
	// latestTS is the published commit timestamp — the version the latest
	// View (and so every timestamp-less read method) serves. It starts at 1
	// so 0 can mean "unpinned" elsewhere; the first commit publishes 2.
	latestTS atomic.Uint64
	// lastAlloc is the allocation clock: the newest timestamp any commit
	// has applied versions at, published or not. With a WAL attached it
	// runs ahead of latestTS while commits await their fsync; without one
	// the two advance in lockstep. Guarded by commitMu.
	lastAlloc uint64

	// wal and dir are set by Open for a durable database; both zero for a
	// purely in-memory one. wal is written once before the database is
	// shared, then read-only.
	wal *walLog
	dir string

	// ckptMu serializes checkpoints. ckptTestHook, when set, runs while
	// the checkpoint holds its snapshot pin — the vacuum-interaction tests
	// inject through it.
	ckptMu       sync.Mutex
	ckptTestHook func()
	// autoCkpts counts checkpoints completed by the auto-checkpoint
	// trigger (SetAutoCheckpoint), for observability and tests.
	autoCkpts atomic.Int64

	// snapMu guards liveSnaps, the refcounts of pinned snapshot
	// timestamps that hold the vacuum horizon back.
	snapMu    sync.Mutex
	liveSnaps map[uint64]int

	stats     Stats
	planEpoch atomic.Uint64
	// autoAnalyzeFrac triggers a histogram rebuild once incremental drift
	// exceeds this fraction of an occurrence; <= 0 disables it.
	autoAnalyzeFrac float64
}

// NewDatabase returns an empty database with an empty schema.
func NewDatabase() *Database {
	db := &Database{
		schema:          catalog.NewSchema(),
		containers:      make(map[string]*Container),
		links:           make(map[string]*LinkStore),
		indexes:         make(map[string]*Index),
		hists:           make(map[string]*attrHist),
		liveSnaps:       make(map[uint64]int),
		autoAnalyzeFrac: DefaultAutoAnalyzeFraction,
	}
	db.latestTS.Store(1)
	db.lastAlloc = 1
	return db
}

// LatestTS returns the published commit timestamp — the version the
// latest view reads. A Snapshot pins one of these values.
func (db *Database) LatestTS() uint64 { return db.latestTS.Load() }

// publishUpTo advances the published clock to ts unless it already
// passed it — the WAL flusher's publication step after a batch's fsync.
func (db *Database) publishUpTo(ts uint64) {
	for {
		cur := db.latestTS.Load()
		if cur >= ts || db.latestTS.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Schema exposes the catalog. Callers must treat it as read-only; all
// schema mutation goes through DefineAtomType / DefineLinkType (or their
// Txn forms) so the occurrence side stays in step.
func (db *Database) Schema() *catalog.Schema {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.schema
}

// Stats returns the live statistics block.
func (db *Database) Stats() *Stats { return &db.stats }

// DefineAtomType declares an atom type and creates its (empty) container
// as a one-op transaction. Schema definition is not versioned: the type
// exists for every snapshot, old snapshots simply see an empty occurrence.
func (db *Database) DefineAtomType(name string, desc *model.Desc) (*catalog.AtomType, error) {
	if err := db.define(walOp{kind: walOpAtomType, name: name, def: &walDef{attrs: desc.Attrs()}, put: putReplace}); err != nil {
		return nil, err
	}
	at, _ := db.schema.AtomType(name)
	return at, nil
}

// DefineLinkType declares a link type and creates its (empty) store as a
// one-op transaction.
func (db *Database) DefineLinkType(name string, desc model.LinkDesc) (*catalog.LinkType, error) {
	if err := db.define(walOp{kind: walOpLinkType, name: name, def: &walDef{link: desc}, put: putReplace}); err != nil {
		return nil, err
	}
	lt, _ := db.schema.LinkType(name)
	return lt, nil
}

// define commits op through a Txn of its own, so every definition takes
// its type number when it is buffered.
func (db *Database) define(op walOp) error {
	t := db.Begin()
	defer t.Rollback() // refused once Commit ran
	if err := t.define(op); err != nil {
		return err
	}
	return t.Commit()
}

// reserve registers the container or link store of the type op declares:
// the name is taken and resolves through Container and LinkStore — so
// descriptions, derivers, plans and a Txn's overlay reach the type — with
// an empty occurrence, while the catalog learns of it only when
// defineType commits it (and checks a link type's sides). A buffered
// definition (put is putReplace) draws its atom type's number from the
// catalog here; a replayed one brings the number it was given.
// Callers hold db.mu.
func (db *Database) reserve(op *walOp) (err error) {
	if db.containers[op.name] != nil || db.links[op.name] != nil {
		return fmt.Errorf("storage: type %q already defined", op.name)
	}
	if op.kind == walOpLinkType {
		db.links[op.name] = newLinkStore(op.name, op.def.link, &db.latestTS)
		return nil
	}
	desc, err := model.NewDesc(op.def.attrs...)
	if err != nil {
		return err
	}
	if op.put == putReplace {
		if op.def.num, err = db.schema.NewTypeNum(); err != nil {
			return err
		}
	}
	db.containers[op.name] = newContainer(op.name, op.def.num, desc, &db.latestTS)
	return nil
}

// defineType is applyOp's arm for atom- and link-type ops: it adds the
// type to the catalog, which commits it. The place in declaration order
// is taken here, under commitMu, and the type number travels in the op,
// so replay — of the log or of a state file — reproduces both. A Txn
// registered the type when it buffered the op (put is putReplace); a
// replayed op registers it here. The undo takes the type back out of the catalog;
// its number stays a hole.
func (db *Database) defineType(op *walOp) (undo func(), err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if op.put != putReplace {
		if err := db.reserve(op); err != nil {
			return nil, err
		}
	}
	if op.kind == walOpAtomType {
		_, err = db.schema.AddAtomType(op.name, op.def.num, db.containers[op.name].Desc())
	} else {
		_, err = db.schema.AddLinkType(op.name, op.def.link)
	}
	if err != nil {
		return nil, err // the registration goes with the Txn's release or the failed recovery
	}
	db.bumpPlanEpoch()
	name := op.name // the undo must not keep the op on the heap
	return func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		db.schema.Retract(name)
	}, nil
}

// visible reports whether a write by t (nil for a commit applying its ops)
// may reach the type name: a type is committed exactly when the catalog
// lists it, and t's own when t defined it. Callers hold db.mu.
func (db *Database) visible(name string, t *Txn) bool {
	return t != nil && t.own[name] || db.schema.HasName(name)
}

// Container exposes the container of an atom type: the handle a View's
// readers take. The container is shared, not a copy; its own readers serve
// the latest published commit.
func (db *Database) Container(name string) (*Container, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.containers[name]
	return c, ok
}

// LinkStore exposes the store of a link type.
func (db *Database) LinkStore(name string) (*LinkStore, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ls, ok := db.links[name]
	return ls, ok
}

// container resolves a container or explains its absence.
func (db *Database) container(typeName string) (*Container, error) {
	c, ok := db.Container(typeName)
	if !ok {
		return nil, fmt.Errorf("storage: unknown atom type %q", typeName)
	}
	return c, nil
}

// InsertAtom validates and stores a new atom of the named type as one
// auto-commit, returning its identifier.
func (db *Database) InsertAtom(typeName string, vals ...model.Value) (model.AtomID, error) {
	c, err := db.container(typeName)
	if err != nil {
		return 0, err
	}
	a, err := c.newAtom(vals)
	if err != nil {
		return 0, err
	}
	if _, err := db.autoCommit(walOp{kind: walOpPut, name: typeName, atom: a, put: putNew}); err != nil {
		return 0, err
	}
	return a.ID, nil
}

// AdoptAtom stores an atom under its existing identifier as one
// auto-commit (Txn.AdoptAtom buffers the same write — propagation's). An
// identifier already live in the type is an error.
func (db *Database) AdoptAtom(typeName string, a model.Atom) error {
	return db.put(typeName, a.ID, a.Vals, putNew)
}

// UpdateAtom replaces the attribute values of an existing atom as one
// auto-commit, keeping secondary indexes in step.
func (db *Database) UpdateAtom(typeName string, id model.AtomID, vals []model.Value) error {
	return db.put(typeName, id, vals, putReplace)
}

// put validates vals under id and stores them in the named type as one
// auto-commit, as expect allows.
func (db *Database) put(typeName string, id model.AtomID, vals []model.Value, expect uint8) error {
	c, err := db.container(typeName)
	if err != nil {
		return err
	}
	stored, err := c.validate(id, vals)
	if err != nil {
		return err
	}
	_, err = db.autoCommit(walOp{kind: walOpPut, name: typeName, atom: stored, put: expect})
	return err
}

// DeleteAtom removes an atom from the named type's occurrence and drops
// every link incident to it in link types mentioning that type, so no
// dangling links remain — all as one atomic commit. It returns the number
// of links dropped.
func (db *Database) DeleteAtom(typeName string, id model.AtomID) (int, error) {
	eff, err := db.autoCommit(walOp{kind: walOpDelete, name: typeName, a: id})
	return int(eff.dropped), err
}

// Connect inserts a link of the named type between atom a (side A) and
// atom b (side B) as one auto-commit. Both endpoints must exist in their
// side's occurrence; cardinality restrictions are enforced. Connecting an
// existing link is a no-op: nothing is published, nothing logged.
func (db *Database) Connect(linkName string, a, b model.AtomID) error {
	_, err := db.autoCommit(walOp{kind: walOpConnect, name: linkName, a: a, b: b})
	return err
}

// Disconnect removes a link as one auto-commit; it reports whether the
// link existed.
func (db *Database) Disconnect(linkName string, a, b model.AtomID) (bool, error) {
	eff, err := db.autoCommit(walOp{kind: walOpDisconnect, name: linkName, a: a, b: b})
	return eff.dropped > 0, err
}

// The readers below are the latest View under the type and link *names*:
// conveniences for the paper baselines, the tests and the examples, each
// booking its logical work. Derivation and planned execution read through
// a View and resolved handles instead.

// GetAtom fetches one atom of the named type at the latest commit.
func (db *Database) GetAtom(typeName string, id model.AtomID) (model.Atom, bool) {
	c, ok := db.Container(typeName)
	if !ok {
		return model.Atom{}, false
	}
	a, ok := c.Get(id)
	if ok {
		db.stats.AtomsFetched.Add(1)
	}
	return a, ok
}

// HasAtom reports whether the named type's occurrence contains id.
func (db *Database) HasAtom(typeName string, id model.AtomID) bool {
	c, ok := db.Container(typeName)
	return ok && c.Has(id)
}

// ResolveAtom finds the atom by identifier in its *native* type — the atom
// type whose number the identifier embeds. It returns the atom and the
// type name.
func (db *Database) ResolveAtom(id model.AtomID) (model.Atom, string, bool) {
	at, ok := db.Schema().AtomTypeByNum(id.TypeNum())
	if !ok {
		return model.Atom{}, "", false
	}
	a, ok := db.GetAtom(at.Name, id)
	return a, at.Name, ok
}

// Partners returns the atoms linked to id through the named link type at
// the latest commit, traversing from side A when fromSideA is true, from
// side B otherwise — the symmetric navigation underlying molecule
// derivation. The returned slice is an immutable version; callers must
// not mutate it.
func (db *Database) Partners(linkName string, id model.AtomID, fromSideA bool) ([]model.AtomID, error) {
	ls, ok := db.LinkStore(linkName)
	if !ok {
		return nil, fmt.Errorf("storage: unknown link type %q", linkName)
	}
	out := ls.Partners(id, fromSideA)
	db.stats.LinksTraversed.Add(int64(len(out)) + 1)
	return out, nil
}

// ScanAtoms iterates the named type's occurrence in insertion order at
// the latest commit.
func (db *Database) ScanAtoms(typeName string, fn func(model.Atom) bool) error {
	c, err := db.container(typeName)
	if err != nil {
		return err
	}
	n := int64(0)
	c.Scan(func(a model.Atom) bool {
		n++
		return fn(a)
	})
	db.stats.AtomsFetched.Add(n)
	return nil
}

// IndexLookup consults the index over typeName.attr at the latest commit,
// returning ok=false when no such index exists.
func (db *Database) IndexLookup(typeName, attr string, v model.Value) ([]model.AtomID, bool) {
	return db.View(0).IndexLookup(typeName, attr, v)
}

// CountAtoms returns the occurrence size of the named atom type.
func (db *Database) CountAtoms(typeName string) (int, error) {
	c, err := db.container(typeName)
	if err != nil {
		return 0, err
	}
	return c.Len(), nil
}

// CountLinks returns the occurrence size of the named link type.
func (db *Database) CountLinks(linkName string) (int, error) {
	ls, ok := db.LinkStore(linkName)
	if !ok {
		return 0, fmt.Errorf("storage: unknown link type %q", linkName)
	}
	return ls.Len(), nil
}

// TotalAtoms returns the number of atoms across all atom types.
func (db *Database) TotalAtoms() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, c := range db.containers {
		n += c.Len()
	}
	return n
}

// TotalLinks returns the number of links across all link types.
func (db *Database) TotalLinks() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, ls := range db.links {
		n += ls.Len()
	}
	return n
}

// CheckIntegrity verifies the invariants the model guarantees: every link
// endpoint exists in its side's occurrence, the two adjacency directions
// mirror each other, and cardinality restrictions hold — all evaluated at
// the latest published commit. It returns the first violation found, or
// nil.
func (db *Database) CheckIntegrity() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v := db.View(db.latestTS.Load())
	for _, lt := range db.schema.LinkTypes() {
		ls := db.links[lt.Name]
		if ls == nil {
			return fmt.Errorf("storage: link type %q has no store", lt.Name)
		}
		ca, ok := db.containers[lt.Desc.SideA]
		if !ok {
			return fmt.Errorf("storage: link type %q: side %q has no container", lt.Name, lt.Desc.SideA)
		}
		cb, ok := db.containers[lt.Desc.SideB]
		if !ok {
			return fmt.Errorf("storage: link type %q: side %q has no container", lt.Name, lt.Desc.SideB)
		}
		var err error
		degA := make(map[model.AtomID]int)
		degB := make(map[model.AtomID]int)
		for _, l := range ls.links(v.ts) {
			switch {
			case !v.Has(ca, l.A):
				err = fmt.Errorf("storage: dangling link %v in %q: %v not in %q", l, lt.Name, l.A, lt.Desc.SideA)
			case !v.Has(cb, l.B):
				err = fmt.Errorf("storage: dangling link %v in %q: %v not in %q", l, lt.Name, l.B, lt.Desc.SideB)
			case !slices.Contains(v.Partners(ls, l.B, false), l.A):
				err = fmt.Errorf("storage: asymmetric link %v in %q", l, lt.Name)
			}
			if err != nil {
				break
			}
			degA[l.A]++
			degB[l.B]++
		}
		if err != nil {
			return err
		}
		for a, n := range degA {
			if !lt.Desc.CardA.Allows(n) && n > 0 {
				return fmt.Errorf("storage: %q: atom %v violates cardinality %s", lt.Name, a, lt.Desc.CardA)
			}
		}
		for b, n := range degB {
			if !lt.Desc.CardB.Allows(n) && n > 0 {
				return fmt.Errorf("storage: %q: atom %v violates cardinality %s", lt.Name, b, lt.Desc.CardB)
			}
		}
	}
	return nil
}
