package storage

import (
	"fmt"
	"slices"

	"mad/internal/model"
)

// Txn groups mutations so they install atomically — the transactional
// side of the "powerful manipulation facilities" the paper demands for
// complex-object processing. A Txn buffers its writes privately as a list
// of logical operations: nothing is visible to any other reader until
// Commit runs every buffered operation through applyOp under the
// database's commit mutex and publishes one commit timestamp for all of
// them. An owner that errors mid-batch can simply abandon or Rollback the
// Txn — zero versions were ever visible — and a Commit that fails
// re-validation pops every version it pushed before publishing, so
// failure is all-or-nothing too.
//
// Reads used for buffer-time validation resolve against the snapshot
// pinned at Begin plus this transaction's own buffered writes (its
// overlay) — the transaction's *effective view*, which View hands to the
// owning session so it can also query its own uncommitted writes
// (read-your-writes). Readers elsewhere never see the overlay: to every
// other session the transaction is invisible until Commit.
//
// A Txn buffers type definitions too (DefineAtomType, DefineLinkType):
// the name is reserved and an atom type numbered at once, the catalog
// lists the type when Commit applies it, and a Rollback or failed Commit
// forgets it, leaving its number unused.
//
// A Txn is not safe for concurrent use; the database it belongs to
// remains fully concurrent.
type Txn struct {
	db   *Database
	snap *Snapshot
	done bool // finished by Commit or Rollback (or a failed Commit)

	// wops is the buffered write set in op order: what Commit applies and
	// the WAL records. Puts carry the stored atom, deletes just the
	// identifier (the link cascade is recomputed when the op applies).
	wops []*walOp
	slab []walOp // backing store of wops, allocated a block at a time
	// own names the types this transaction defined: empty below its own
	// writes, which Commit validates, and forgotten unless it commits.
	own map[string]bool

	// Overlay: this transaction's private view of its own writes, merged
	// over the begin snapshot by View's readers. It folds wops[:indexed]
	// in and is brought up to date by View, so a transaction that only
	// writes — a propagation into types it defined — never builds it.
	indexed int
	atoms   map[*Container]map[model.AtomID]ovAtom
	// linkOps files each buffered link delta, in op order, under every atom
	// whose partner lists it can change, so a traversal replays only its
	// own — linear, however many links the transaction buffers.
	linkOps map[*LinkStore]map[model.AtomID][]linkDelta
}

// ovAtom is the overlay state of one atom: its buffered value, or a
// tombstone when deleted is set.
type ovAtom struct {
	atom    model.Atom
	deleted bool
}

// linkDelta is one buffered link mutation in op order. drop marks a
// cascade ("every link incident to a removed"); otherwise the pair <a, b>
// was added or removed.
type linkDelta struct {
	a, b  model.AtomID
	added bool
	drop  bool
}

// Begin starts a buffered-write transaction pinned to the latest
// published commit. The pin holds the vacuum horizon until the
// transaction finishes.
func (db *Database) Begin() *Txn {
	return &Txn{
		db:      db,
		snap:    db.Snapshot(),
		own:     make(map[string]bool),
		atoms:   make(map[*Container]map[model.AtomID]ovAtom),
		linkOps: make(map[*LinkStore]map[model.AtomID][]linkDelta),
	}
}

// DB returns the database the transaction writes to.
func (t *Txn) DB() *Database { return t.db }

// View returns the transaction's effective view: its begin snapshot, with
// its buffered writes merged over it once it holds any (updates replace
// the snapshot value, tombstones hide it, inserts follow the snapshot's
// atoms, link deltas replay over the snapshot's adjacency). It is the view
// buffer-time validation reads, the MQL layer matches DML predicates
// against — a statement can UPDATE or CONNECT an atom the same
// transaction just inserted — and in-transaction SELECTs derive from. The
// view is a value: take a fresh one after buffering more writes, and do
// not read through it once the transaction has finished.
func (t *Txn) View() View {
	v := t.snap.View
	if len(t.wops) > 0 {
		v.txn = t
		t.index(v)
	}
	return v
}

// index folds the ops buffered since the last View into the overlay, in
// op order; v reads the overlay as folded so far.
func (t *Txn) index(v View) {
	for ; t.indexed < len(t.wops); t.indexed++ {
		op := t.wops[t.indexed]
		switch op.kind {
		case walOpPut:
			c, _ := t.db.Container(op.name)
			t.setOverlay(c, op.atom.ID, ovAtom{atom: op.atom})
		case walOpDelete:
			// The cascade can change the lists of the atom and of its
			// partners at this point; nothing can link to it afterwards.
			c, _, stores, _ := t.db.resolveAtomType(op.name, true, t)
			for _, ls := range stores {
				t.logLink(ls, linkDelta{a: op.a, drop: true}, slices.Concat([]model.AtomID{op.a}, v.Partners(ls, op.a, true), v.Partners(ls, op.a, false))...)
			}
			t.setOverlay(c, op.a, ovAtom{deleted: true})
		case walOpConnect, walOpDisconnect:
			ls, _ := t.db.LinkStore(op.name)
			t.logLink(ls, linkDelta{a: op.a, b: op.b, added: op.kind == walOpConnect}, op.a, op.b)
		}
	}
}

// active guards against use after Commit/Rollback.
func (t *Txn) active() error {
	if t.done {
		return fmt.Errorf("storage: transaction already finished")
	}
	return nil
}

// setOverlay records the overlay state of one atom.
func (t *Txn) setOverlay(c *Container, id model.AtomID, ov ovAtom) {
	m := t.atoms[c]
	if m == nil {
		m = make(map[model.AtomID]ovAtom)
		t.atoms[c] = m
	}
	m[id] = ov
}

// buffer appends op to the write set, allocating ops in blocks that grow
// with the transaction.
func (t *Txn) buffer(op walOp) {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]walOp, 0, min(2*cap(t.slab)+4, 256))
	}
	t.slab = append(t.slab, op)
	t.wops = append(t.wops, &t.slab[len(t.slab)-1])
}

// logLink buffers one link delta of ls under the given atoms.
func (t *Txn) logLink(ls *LinkStore, d linkDelta, atoms ...model.AtomID) {
	m := t.linkOps[ls]
	if m == nil {
		m = make(map[model.AtomID][]linkDelta)
		t.linkOps[ls] = m
	}
	for _, id := range atoms {
		m[id] = append(m[id], d)
	}
}

// overlayPartners replays the buffered link deltas filed under id, in op
// order, over base — the begin snapshot's partners of id in the given
// direction.
func (t *Txn) overlayPartners(ls *LinkStore, id model.AtomID, fromA bool, base []model.AtomID) []model.AtomID {
	deltas := t.linkOps[ls][id]
	if len(deltas) == 0 {
		return base
	}
	// base is an immutable version list; replay on a copy.
	out := slices.Clone(base)
	remove := func(p model.AtomID) {
		if i := slices.Index(out, p); i >= 0 {
			out = slices.Delete(out, i, i+1)
		}
	}
	refl := ls.desc.Reflexive()
	for _, d := range deltas {
		// near is the endpoint on the side the traversal starts from.
		near, far := d.a, d.b
		if !fromA {
			near, far = far, near
		}
		switch {
		case d.drop:
			// Cascade of a buffered delete: every link incident to d.a goes.
			if d.a == id {
				out = out[:0]
			} else {
				remove(d.a)
			}
		case d.added:
			// Connect buffers the pair as given and the store installs that
			// same orientation, so no reflexive mirroring here.
			if near == id && !slices.Contains(out, far) {
				out = append(out, far)
			}
		default:
			// Disconnect: for a reflexive link the stored pair may carry
			// either orientation, so drop whichever endpoint matches.
			if near == id {
				remove(far)
			}
			if refl && far == id {
				remove(near)
			}
		}
	}
	return out
}

// has is buffer-time validation's read of one atom through the effective
// view. Like Database.GetAtom it books the fetch when it reaches the
// committed store; the transaction's own buffered value costs nothing.
func (t *Txn) has(c *Container, id model.AtomID) bool {
	ok := t.View().Has(c, id)
	if _, buffered := t.atoms[c][id]; ok && !buffered {
		t.db.stats.AtomsFetched.Add(1)
	}
	return ok
}

// InsertAtom buffers the insertion of a new atom, validating its values
// and reserving its identifier immediately (an aborted transaction burns
// the reservation, which is harmless). The type may be one this
// transaction defined.
func (t *Txn) InsertAtom(typeName string, vals ...model.Value) (model.AtomID, error) {
	if err := t.active(); err != nil {
		return 0, err
	}
	c, _, _, err := t.db.resolveAtomType(typeName, false, t)
	if err != nil {
		return 0, err
	}
	a, err := c.newAtom(vals)
	if err != nil {
		return 0, err
	}
	t.buffer(walOp{kind: walOpPut, name: typeName, atom: a, put: putNew})
	return a.ID, nil
}

// AdoptAtom buffers storing an atom under its existing identifier — the
// write of propagation (Definition 9), whose result types share the very
// atoms of the occurrences they restrict, values included: the
// transaction keeps a's value slice, so it must not change afterwards (an
// atom read through a View never does). The identifier must not be live
// in the type's effective view (for a type this transaction defined,
// Commit checks that).
func (t *Txn) AdoptAtom(typeName string, a model.Atom) error {
	if err := t.active(); err != nil {
		return err
	}
	c, _, _, err := t.db.resolveAtomType(typeName, false, t)
	if err != nil {
		return err
	}
	// Only an atom with an int to widen, or one that fails the checks
	// (validate explains why), goes through the copying path.
	if a.Conforms(c.Desc()) != nil || !a.ID.Valid() || slices.ContainsFunc(a.Vals, func(v model.Value) bool { return v.Kind() == model.KInt }) {
		if a, err = c.validate(a.ID, a.Vals); err != nil {
			return err
		}
	}
	if !t.own[typeName] && t.View().Has(c, a.ID) {
		return fmt.Errorf("storage: atom %v already present in %q", a.ID, typeName)
	}
	t.buffer(walOp{kind: walOpPut, name: typeName, atom: a, put: putNew})
	return nil
}

// DefineAtomType buffers the declaration of an atom type. The name is
// reserved and the type numbered at once: it resolves — for this
// transaction's writes, reads and plans alike — and no other writer can
// take it or put data into the type, while the transaction can both
// InsertAtom and AdoptAtom into it. The catalog lists it, in declaration
// order, only when Commit applies the declaration, so nothing of it
// survives Rollback, a failed Commit or a crash but a hole in the type
// numbers.
func (t *Txn) DefineAtomType(name string, desc *model.Desc) error {
	return t.define(walOp{kind: walOpAtomType, name: name, def: &walDef{attrs: desc.Attrs()}, put: putReplace})
}

// DefineLinkType buffers the declaration of a link type the way
// DefineAtomType does; its sides may be atom types this transaction
// defined.
func (t *Txn) DefineLinkType(name string, desc model.LinkDesc) error {
	return t.define(walOp{kind: walOpLinkType, name: name, def: &walDef{link: desc}, put: putReplace})
}

// define reserves the type op declares and buffers the op. A link type's
// sides must be committed or this transaction's own.
func (t *Txn) define(op walOp) error {
	if err := t.active(); err != nil {
		return err
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if op.kind == walOpLinkType {
		for _, side := range []string{op.def.link.SideA, op.def.link.SideB} {
			if t.db.containers[side] == nil || !t.db.visible(side, t) {
				return fmt.Errorf("storage: link type %q references unknown or uncommitted atom type %q", op.name, side)
			}
		}
	}
	if err := t.db.reserve(&op); err != nil {
		return err
	}
	t.own[op.name] = true
	t.buffer(op)
	return nil
}

// UpdateAtom buffers the replacement of an atom's values. The atom must
// exist in the transaction's effective view; Commit re-validates that it
// still exists in the committed state.
func (t *Txn) UpdateAtom(typeName string, id model.AtomID, vals []model.Value) error {
	if err := t.active(); err != nil {
		return err
	}
	c, err := t.db.container(typeName)
	if err != nil {
		return err
	}
	if !t.has(c, id) {
		return fmt.Errorf("storage: atom %v not in %q", id, typeName)
	}
	updated, err := c.validate(id, vals)
	if err != nil {
		return err
	}
	t.buffer(walOp{kind: walOpPut, name: typeName, atom: updated, put: putReplace})
	return nil
}

// DeleteAtom buffers the removal of an atom together with the cascade
// that drops every link incident to it — the cascade itself is computed
// at commit time against the committed state, so links connected by
// concurrent commits are dropped too (no dangling references, ever).
func (t *Txn) DeleteAtom(typeName string, id model.AtomID) error {
	if err := t.active(); err != nil {
		return err
	}
	c, _, _, err := t.db.resolveAtomType(typeName, false, t)
	if err != nil {
		return err
	}
	if !t.has(c, id) {
		return fmt.Errorf("storage: atom %v not in %q", id, typeName)
	}
	t.buffer(walOp{kind: walOpDelete, name: typeName, a: id})
	return nil
}

// Connect buffers the insertion of a link. Endpoint existence is checked
// against the transaction's effective view here and against the committed
// state at Commit; cardinality restrictions are enforced at Commit.
// Connecting a link that already exists in the effective view is a no-op,
// matching the idempotent auto-commit Connect. A link type this
// transaction defined is empty below its own writes: a connect into it is
// checked at Commit only, where a duplicate applies as that no-op.
func (t *Txn) Connect(linkName string, a, b model.AtomID) error {
	if err := t.active(); err != nil {
		return err
	}
	if !t.own[linkName] {
		ls, ca, cb, err := t.db.resolveLinkType(linkName, t)
		if err != nil {
			return err
		}
		if !t.has(ca, a) {
			return fmt.Errorf("storage: link %q: atom %v not in %q", linkName, a, ls.desc.SideA)
		}
		if !t.has(cb, b) {
			return fmt.Errorf("storage: link %q: atom %v not in %q", linkName, b, ls.desc.SideB)
		}
		if t.View().hasLink(ls, a, b) {
			return nil // idempotent connect: already present, nothing to buffer
		}
	}
	t.buffer(walOp{kind: walOpConnect, name: linkName, a: a, b: b})
	return nil
}

// Disconnect buffers the removal of a link; removed reports whether the
// link exists in the transaction's effective view.
func (t *Txn) Disconnect(linkName string, a, b model.AtomID) (bool, error) {
	if err := t.active(); err != nil {
		return false, err
	}
	ls, _, _, err := t.db.resolveLinkType(linkName, t)
	if err != nil {
		return false, err
	}
	if !t.View().hasLink(ls, a, b) {
		return false, nil
	}
	t.buffer(walOp{kind: walOpDisconnect, name: linkName, a: a, b: b})
	return true, nil
}

// Commit installs every buffered operation at one fresh commit timestamp
// and publishes it atomically: concurrent snapshot readers observe either
// none of this transaction's writes or all of them. When an operation
// fails re-validation against the committed state (an endpoint deleted by
// a concurrent commit, say), every version already pushed is popped
// before publication — zero versions become visible, the types it defined
// are forgotten — and the error is returned. The transaction is finished
// afterwards either way; Rollback after Commit is a hard error.
func (t *Txn) Commit() error {
	if err := t.active(); err != nil {
		return err
	}
	t.done = true
	defer t.snap.Close()
	if len(t.wops) == 0 {
		return nil // nothing buffered, nothing to publish
	}
	if err := t.db.commit(t.wops, make([]effect, len(t.wops))); err != nil {
		t.release()
		return err
	}
	t.wops = nil
	return nil
}

// Rollback discards the buffered operations and forgets the types the
// transaction defined. Nothing was ever visible, so there is nothing to
// undo. It is a hard error after Commit (successful or not) or a previous
// Rollback.
func (t *Txn) Rollback() error {
	if err := t.active(); err != nil {
		return err
	}
	t.done = true
	t.snap.Close()
	t.release()
	t.wops = nil
	return nil
}

// release forgets the types t defined that the catalog does not list (a
// commit whose seal failed keeps the ones it applied).
func (t *Txn) release() {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	for name := range t.own {
		if !t.db.schema.HasName(name) {
			delete(t.db.containers, name)
			delete(t.db.links, name)
		}
	}
}

// Mark returns the point in the buffered write set RollbackTo returns
// to: taken before a statement, it makes the statement undoable alone.
func (t *Txn) Mark() int { return len(t.wops) }

// RollbackTo discards the writes buffered after mark and forgets the
// types they defined, the way Rollback does, but leaves the transaction
// open: the writes before the mark stay, and the next View rebuilds the
// overlay from them.
func (t *Txn) RollbackTo(mark int) error {
	if err := t.active(); err != nil {
		return err
	}
	if mark < 0 || mark > len(t.wops) {
		return fmt.Errorf("storage: rollback mark %d outside the %d buffered writes", mark, len(t.wops))
	}
	t.db.mu.Lock()
	for _, op := range t.wops[mark:] {
		if op.kind == walOpAtomType || op.kind == walOpLinkType {
			delete(t.own, op.name)
			delete(t.db.containers, op.name)
			delete(t.db.links, op.name)
		}
	}
	t.db.mu.Unlock()
	t.wops, t.indexed = t.wops[:mark], 0
	clear(t.atoms)
	clear(t.linkOps)
	return nil
}

// Mutations reports how many mutations the transaction has buffered.
func (t *Txn) Mutations() int { return len(t.wops) }

// Dirty reports whether the transaction holds buffered writes — whether
// its View carries an overlay, which only a full scan can enter.
func (t *Txn) Dirty() bool { return len(t.wops) > 0 }
