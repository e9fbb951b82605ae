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
// A Txn is not safe for concurrent use; the database it belongs to
// remains fully concurrent.
type Txn struct {
	db   *Database
	snap *Snapshot
	done bool // finished by Commit or Rollback (or a failed Commit)

	// wops is the buffered write set in op order: what Commit applies and
	// the WAL records. Puts carry the stored atom, deletes just the
	// identifier (the link cascade is recomputed when the op applies).
	wops []walOp

	// Overlay: this transaction's private view of its own writes, merged
	// over the begin snapshot by View's readers.
	atoms   map[*Container]map[model.AtomID]ovAtom
	linkOps map[*LinkStore][]linkDelta
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
		atoms:   make(map[*Container]map[model.AtomID]ovAtom),
		linkOps: make(map[*LinkStore][]linkDelta),
	}
}

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
	}
	return v
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

// overlayPartners replays the buffered link deltas of ls, in op order,
// over base — the begin snapshot's partners of id in the given direction.
func (t *Txn) overlayPartners(ls *LinkStore, id model.AtomID, fromA bool, base []model.AtomID) []model.AtomID {
	deltas := t.linkOps[ls]
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
// the reservation, which is harmless).
func (t *Txn) InsertAtom(typeName string, vals ...model.Value) (model.AtomID, error) {
	if err := t.active(); err != nil {
		return 0, err
	}
	c, err := t.db.container(typeName)
	if err != nil {
		return 0, err
	}
	a, err := c.newAtom(vals)
	if err != nil {
		return 0, err
	}
	t.setOverlay(c, a.ID, ovAtom{atom: a})
	t.wops = append(t.wops, walOp{kind: walOpPut, name: typeName, atom: a, put: putNew})
	return a.ID, nil
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
	t.setOverlay(c, id, ovAtom{atom: updated})
	t.wops = append(t.wops, walOp{kind: walOpPut, name: typeName, atom: updated, put: putReplace})
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
	c, _, stores, err := t.db.resolveAtomType(typeName, true)
	if err != nil {
		return err
	}
	if !t.has(c, id) {
		return fmt.Errorf("storage: atom %v not in %q", id, typeName)
	}
	t.setOverlay(c, id, ovAtom{deleted: true})
	for _, ls := range stores {
		t.linkOps[ls] = append(t.linkOps[ls], linkDelta{a: id, drop: true})
	}
	t.wops = append(t.wops, walOp{kind: walOpDelete, name: typeName, id: id})
	return nil
}

// Connect buffers the insertion of a link. Endpoint existence is checked
// against the transaction's effective view here and against the committed
// state at Commit; cardinality restrictions are enforced at Commit.
// Connecting a link that already exists in the effective view is a no-op,
// matching the idempotent auto-commit Connect.
func (t *Txn) Connect(linkName string, a, b model.AtomID) error {
	if err := t.active(); err != nil {
		return err
	}
	ls, ca, cb, err := t.db.resolveLinkType(linkName)
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
	t.linkOps[ls] = append(t.linkOps[ls], linkDelta{a: a, b: b, added: true})
	t.wops = append(t.wops, walOp{kind: walOpConnect, name: linkName, a: a, b: b})
	return nil
}

// Disconnect buffers the removal of a link; removed reports whether the
// link exists in the transaction's effective view.
func (t *Txn) Disconnect(linkName string, a, b model.AtomID) (bool, error) {
	if err := t.active(); err != nil {
		return false, err
	}
	ls, _, _, err := t.db.resolveLinkType(linkName)
	if err != nil {
		return false, err
	}
	if !t.View().hasLink(ls, a, b) {
		return false, nil
	}
	t.linkOps[ls] = append(t.linkOps[ls], linkDelta{a: a, b: b})
	t.wops = append(t.wops, walOp{kind: walOpDisconnect, name: linkName, a: a, b: b})
	return true, nil
}

// Commit installs every buffered operation at one fresh commit timestamp
// and publishes it atomically: concurrent snapshot readers observe either
// none of this transaction's writes or all of them. When an operation
// fails re-validation against the committed state (an endpoint deleted by
// a concurrent commit, say), every version already pushed is popped
// before publication — zero versions become visible — and the error is
// returned. The transaction is finished afterwards either way; Rollback
// after Commit is a hard error.
func (t *Txn) Commit() error {
	if err := t.active(); err != nil {
		return err
	}
	t.done = true
	defer t.snap.Close()
	if len(t.wops) == 0 {
		return nil // nothing buffered, nothing to publish
	}
	db := t.db
	db.commitMu.Lock()
	if err := db.walGate(); err != nil {
		db.commitMu.Unlock()
		return err
	}
	ts := db.lastAlloc + 1
	effs := make([]effect, 0, len(t.wops))
	var undos []func()
	for i := range t.wops {
		eff, err := db.applyOp(ts, &t.wops[i], &undos)
		if err != nil {
			undoAll(undos)
			db.commitMu.Unlock()
			return fmt.Errorf("storage: commit failed at operation %d: %w", i, err)
		}
		effs = append(effs, eff)
	}
	// sealCommit releases commitMu; with a WAL attached it returns only
	// after this transaction's record is fsynced and published, so a nil
	// return IS the durability acknowledgement.
	if err := db.sealCommit(ts, t.wops); err != nil {
		return err
	}
	db.settle(effs)
	t.wops = nil
	return nil
}

// Rollback discards the buffered operations. Nothing was ever visible, so
// there is nothing to undo. It is a hard error after Commit (successful
// or not) or a previous Rollback.
func (t *Txn) Rollback() error {
	if err := t.active(); err != nil {
		return err
	}
	t.done = true
	t.snap.Close()
	t.wops = nil
	return nil
}

// Mutations reports how many mutations the transaction has buffered.
func (t *Txn) Mutations() int { return len(t.wops) }

// Dirty reports whether the transaction holds buffered writes — whether
// its View carries an overlay, which only a full scan can enter.
func (t *Txn) Dirty() bool { return len(t.wops) > 0 }
