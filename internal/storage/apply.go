package storage

import (
	"fmt"

	"mad/internal/model"
)

// effect is what one applied operation changed beyond the versions it
// pushed: with the op itself — the value a put stored, the type it named —
// the input of the advisory bookkeeping (counters, histograms) that runs
// after publication, outside the commit critical section. A commit holds
// one per op until it settles, so it stays small.
type effect struct {
	old     model.Atom // put, delete: the value that left the occurrence, when hadOld
	dropped int32      // links removed, cascades included
	hadOld  bool
	// changed is false for an op that changed nothing — an idempotent
	// Connect of an existing link, a Disconnect of an absent one, a
	// DropIndex of no index. An auto-commit then publishes nothing and logs
	// nothing.
	changed bool
}

// applyOp makes one logical write a set of versions at commit timestamp
// ts. It is THE write path: the auto-commit mutators, Txn.Commit (looping
// over its buffered ops) and WAL replay all come through here, so a
// recovered database cannot diverge from the one that wrote the log.
// Callers hold commitMu (replay runs single-threaded); ts is newer than
// every version installed, so reads of the pre-state resolve at ts — the
// chain heads, including versions an earlier op of the same commit or a
// commit still awaiting its fsync pushed — never the published view.
//
// Every check precedes the first push, so an op that fails has pushed
// nothing. The undos that pop exactly the versions it did push are
// appended to *undos, oldest first, for a multi-op commit to run in
// reverse should a later op fail; nil discards them. Nothing is booked
// here — see settle.
func (db *Database) applyOp(ts uint64, op *walOp, undos *[]func()) (eff effect, err error) {
	pushed := func(undo func()) {
		if undos != nil && undo != nil {
			*undos = append(*undos, undo)
		}
	}
	switch op.kind {
	case walOpPut:
		c, ixs, _, err := db.resolveAtomType(op.name, false, nil)
		if err != nil {
			return eff, err
		}
		// An UPDATE whose atom a concurrent commit deleted fails here: it
		// must not resurrect the atom.
		old, hadOld, undo, err := c.put(op.atom, ts, op.put)
		if err != nil {
			return eff, err
		}
		pushed(undo)
		for _, ix := range ixs {
			if hadOld {
				if old.Get(ix.pos).Key() == op.atom.Get(ix.pos).Key() {
					continue // the atom stays in the posting it is in
				}
				// The postings to retire are those of the value visible at ts.
				pushed(ix.remove(old, ts))
			}
			pushed(ix.add(op.atom, ts))
		}
		eff = effect{old: old, hadOld: hadOld, changed: true}
	case walOpDelete:
		c, ixs, stores, err := db.resolveAtomType(op.name, true, nil)
		if err != nil {
			return eff, err
		}
		old, undo, err := c.remove(op.a, ts)
		if err != nil {
			return eff, err
		}
		pushed(undo)
		eff = effect{old: old, hadOld: true, changed: true}
		// The log carries only the delete: the cascade is recomputed from
		// the chain heads, here and at replay alike, so links a concurrent
		// commit connected are dropped too — no dangling references, ever.
		for _, ls := range stores {
			if n, undo := ls.dropAtom(op.a, ts); n > 0 {
				eff.dropped += int32(n)
				pushed(undo)
			}
		}
		for _, ix := range ixs {
			pushed(ix.remove(old, ts))
		}
	case walOpConnect:
		ls, ca, cb, err := db.resolveLinkType(op.name, nil)
		if err != nil {
			return eff, err
		}
		if _, ok := ca.get(op.a, ts); !ok {
			return eff, fmt.Errorf("storage: link %q: atom %v not in %q", op.name, op.a, ls.desc.SideA)
		}
		if _, ok := cb.get(op.b, ts); !ok {
			return eff, fmt.Errorf("storage: link %q: atom %v not in %q", op.name, op.b, ls.desc.SideB)
		}
		undo, err := ls.connect(op.a, op.b, ts)
		if err != nil {
			return eff, err
		}
		if undo != nil {
			pushed(undo)
			eff = effect{changed: true}
		}
	case walOpDisconnect:
		ls, _, _, err := db.resolveLinkType(op.name, nil)
		if err != nil {
			return eff, err
		}
		if undo := ls.disconnect(op.a, op.b, ts); undo != nil {
			pushed(undo)
			eff = effect{dropped: 1, changed: true}
		}
	case walOpAtomType, walOpLinkType:
		undo, err := db.defineType(op)
		if err != nil {
			return eff, err
		}
		pushed(undo)
		eff.changed = true
	case walOpCreateIndex:
		// Index DDL runs as an auto-commit only (a Txn cannot buffer it), so
		// no later op of its commit can fail and need an undo.
		eff.changed = true
		return eff, db.createIndexAt(op.name, op.def.attr, ts)
	case walOpDropIndex:
		eff.changed = db.dropIndex(op.name, op.def.attr)
	case walOpHistogram:
		eff.changed = true
		return eff, db.restoreHist(op.name, op.def)
	default:
		return eff, fmt.Errorf("storage: unknown wal op kind %d", op.kind)
	}
	return eff, nil
}

// resolveAtomType looks up what a put or delete on the named type touches:
// its container, the indexes covering it and — withLinks — the stores of
// every link type mentioning it (the delete cascade's reach). A type whose
// definition is still buffered in a Txn resolves for that transaction
// (own) alone: no other writer can put data into it.
func (db *Database) resolveAtomType(name string, withLinks bool, own *Txn) (c *Container, ixs []*Index, stores []*LinkStore, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.containers[name]
	if !ok || !db.visible(name, own) {
		return nil, nil, nil, fmt.Errorf("storage: unknown atom type %q", name)
	}
	ixs = db.indexesOf(name)
	if withLinks {
		for _, lt := range db.schema.LinkTypesOf(name) {
			if ls, present := db.links[lt.Name]; present {
				stores = append(stores, ls)
			}
		}
	}
	return c, ixs, stores, nil
}

// resolveLinkType looks up a link store and the containers of its two
// sides; like resolveAtomType it refuses a store another transaction's
// buffered definition reserved.
func (db *Database) resolveLinkType(name string, own *Txn) (ls *LinkStore, ca, cb *Container, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ls, ok := db.links[name]
	if !ok || !db.visible(name, own) {
		return nil, nil, nil, fmt.Errorf("storage: unknown link type %q", name)
	}
	ca, okA := db.containers[ls.desc.SideA]
	cb, okB := db.containers[ls.desc.SideB]
	if !okA || !okB {
		return nil, nil, nil, fmt.Errorf("storage: link type %q: a side has no container", name)
	}
	return ls, ca, cb, nil
}

// undoAll runs undos newest first.
func undoAll(undos []func()) {
	for i := len(undos) - 1; i >= 0; i-- {
		undos[i]()
	}
}

// book folds one applied op into the counters and histograms. Replay
// stops here; live commits go through settle.
func (db *Database) book(op *walOp, e *effect) {
	if e.hadOld {
		db.histDelete(op.name, e.old)
	}
	switch {
	case op.kind == walOpPut:
		if !e.hadOld {
			db.stats.AtomsInserted.Add(1)
		}
		db.histInsert(op.name, op.atom)
	case op.kind == walOpDelete:
		db.stats.AtomsDeleted.Add(1)
	case op.kind == walOpConnect && e.changed:
		db.stats.LinksConnected.Add(1)
	}
	if e.dropped != 0 {
		db.stats.LinksDropped.Add(int64(e.dropped))
	}
}

// settle runs a published commit's advisory bookkeeping — outside the
// versioned store and outside commitMu. It books every effect first (an
// automatic ANALYZE rebuilds from the committed occurrence, which already
// holds them all), then lets each atom type the commit put or deleted
// check once whether its drift warrants that ANALYZE; a check with
// nothing to fire on is a few loads.
func (db *Database) settle(ops []*walOp, effs []effect) {
	types := map[string]bool{}
	for i, op := range ops {
		db.book(op, &effs[i])
		if op.kind == walOpPut || op.kind == walOpDelete {
			types[op.name] = true
		}
	}
	for name := range types {
		db.maybeAutoAnalyze(name)
	}
}

// commit runs ops as one commit — the one commit path, behind every
// auto-commit mutator and Txn.Commit — directly under commitMu:
//
//   - frame: refuse once the log's sticky failure says durability is gone,
//     take the commit timestamp and — with a WAL — encode the record
//     before any op applies, so a record the log must refuse (one over
//     maxWALRecord) fails this commit alone, nothing pushed, the log
//     healthy;
//   - apply each op at that timestamp into effs; a failing op undoes the
//     ones before it, so nothing becomes visible;
//   - seal: advance the allocation clock and publish at once (no WAL), or
//     hand the record to the flusher, release commitMu and block until
//     the fsync published it — a nil return IS the durability
//     acknowledgement. A failed seal leaves the versions invisible
//     forever: the published clock never reaches them, and the log's
//     sticky failure refuses every later commit;
//   - settle, outside commitMu.
//
// A lone op that changed nothing — an idempotent Connect, a Disconnect of
// an absent link — publishes and logs nothing.
func (db *Database) commit(ops []*walOp, effs []effect) error {
	db.commitMu.Lock()
	ts, rec, err := db.lastAlloc+1, []byte(nil), error(nil)
	if db.wal != nil {
		if err = db.wal.healthy(); err == nil {
			rec, err = encodeWALRecord(ts, ops)
		}
	}
	var undos []func()
	keep := &undos
	if len(ops) == 1 {
		keep = nil // a lone op that fails has pushed nothing
	} else {
		undos = make([]func(), 0, len(ops))
	}
	for i := 0; err == nil && i < len(ops); i++ {
		if effs[i], err = db.applyOp(ts, ops[i], keep); err != nil && len(ops) > 1 {
			err = fmt.Errorf("storage: commit failed at operation %d: %w", i, err)
		}
	}
	if err != nil || len(ops) == 1 && !effs[0].changed {
		undoAll(undos)
		db.commitMu.Unlock()
		return err
	}
	db.lastAlloc = ts
	if db.wal == nil {
		db.latestTS.Store(ts)
		db.commitMu.Unlock()
	} else {
		done, err := db.wal.enqueue(&walReq{ts: ts, rec: rec})
		db.commitMu.Unlock()
		if err == nil {
			err = <-done
		}
		if err != nil {
			return err
		}
	}
	db.settle(ops, effs)
	return nil
}

// autoCommit runs one operation — a data mutator's or DDL's — as a commit
// of its own, reporting its effect so a mutator can tell its caller what
// happened.
func (db *Database) autoCommit(op walOp) (effect, error) {
	var eff [1]effect
	err := db.commit([]*walOp{&op}, eff[:])
	return eff[0], err
}
