package storage

import (
	"fmt"

	"mad/internal/model"
)

// effect is what one applied operation changed beyond the versions it
// pushed: the input of the advisory bookkeeping (counters, histograms,
// plan-epoch drift) that runs after publication, outside the commit
// critical section.
type effect struct {
	typeName       string     // put, delete: the atom type whose occurrence changed
	old, cur       model.Atom // the value that left / entered the occurrence
	hadOld, hasCur bool
	connected      int64        // links installed
	dropped        int64        // links removed, cascades included
	link           *LinkStore   // connect, disconnect: the store, when its occurrence changed
	cascade        []*LinkStore // delete: the stores the cascade dropped links from
}

// none reports that the operation changed nothing — an idempotent Connect
// of an existing link, a Disconnect of an absent one. An auto-commit then
// publishes nothing and logs nothing.
func (e *effect) none() bool { return e.typeName == "" && e.link == nil }

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
		c, ixs, _, err := db.resolveAtomType(op.name, false)
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
				// The postings to retire are those of the value visible at ts.
				pushed(ix.remove(old, ts))
			}
			pushed(ix.add(op.atom, ts))
		}
		eff = effect{typeName: op.name, old: old, hadOld: hadOld, cur: op.atom, hasCur: true}
	case walOpDelete:
		c, ixs, stores, err := db.resolveAtomType(op.name, true)
		if err != nil {
			return eff, err
		}
		old, undo, err := c.remove(op.id, ts)
		if err != nil {
			return eff, err
		}
		pushed(undo)
		eff = effect{typeName: op.name, old: old, hadOld: true}
		// The log carries only the delete: the cascade is recomputed from
		// the chain heads, here and at replay alike, so links a concurrent
		// commit connected are dropped too — no dangling references, ever.
		for _, ls := range stores {
			if n, undo := ls.dropAtom(op.id, ts); n > 0 {
				eff.dropped += int64(n)
				eff.cascade = append(eff.cascade, ls)
				pushed(undo)
			}
		}
		for _, ix := range ixs {
			pushed(ix.remove(old, ts))
		}
	case walOpConnect:
		ls, ca, cb, err := db.resolveLinkType(op.name)
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
			eff = effect{connected: 1, link: ls}
		}
	case walOpDisconnect:
		ls, _, _, err := db.resolveLinkType(op.name)
		if err != nil {
			return eff, err
		}
		if undo := ls.disconnect(op.a, op.b, ts); undo != nil {
			pushed(undo)
			eff = effect{dropped: 1, link: ls}
		}
	case walOpAtomType:
		desc, err := model.NewDesc(op.attrs...)
		if err == nil {
			_, err = db.defineAtomType(op.name, desc)
		}
		return eff, err
	case walOpLinkType:
		_, err := db.defineLinkType(op.name, op.link)
		return eff, err
	case walOpCreateIndex:
		return eff, db.createIndexAt(op.name, op.attr, ts)
	case walOpDropIndex:
		db.dropIndex(op.name, op.attr)
	default:
		return eff, fmt.Errorf("storage: unknown wal op kind %d", op.kind)
	}
	return eff, nil
}

// resolveAtomType looks up what a put or delete on the named type touches:
// its container, the indexes covering it and — withLinks — the stores of
// every link type mentioning it (the delete cascade's reach).
func (db *Database) resolveAtomType(name string, withLinks bool) (c *Container, ixs []*Index, stores []*LinkStore, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.containers[name]
	if !ok {
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
// sides.
func (db *Database) resolveLinkType(name string) (ls *LinkStore, ca, cb *Container, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ls, ok := db.links[name]
	if !ok {
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
func (db *Database) book(e *effect) {
	switch {
	case e.hasCur && !e.hadOld:
		db.stats.AtomsInserted.Add(1)
	case e.hadOld && !e.hasCur:
		db.stats.AtomsDeleted.Add(1)
	}
	if e.hadOld {
		db.histDelete(e.typeName, e.old)
	}
	if e.hasCur {
		db.histInsert(e.typeName, e.cur)
	}
	if e.connected != 0 {
		db.stats.LinksConnected.Add(e.connected)
	}
	if e.dropped != 0 {
		db.stats.LinksDropped.Add(e.dropped)
	}
}

// settle runs a published commit's advisory bookkeeping — outside the
// versioned store and outside commitMu. It books every effect first (an
// automatic ANALYZE rebuilds from the committed occurrence, which already
// holds them all), then lets each link store and atom type the commit
// touched check whether its drift warrants a plan-epoch bump or that
// ANALYZE; a check that has just fired, or has nothing to fire on, is a
// few loads.
func (db *Database) settle(effs []effect) {
	for i := range effs {
		db.book(&effs[i])
	}
	for i := range effs {
		e := &effs[i]
		if e.link != nil {
			db.maybeLinkEpochBump(e.link)
		}
		for _, ls := range e.cascade {
			db.maybeLinkEpochBump(ls)
		}
		if e.typeName != "" {
			db.maybeAutoAnalyze(e.typeName)
		}
	}
}

// autoCommit runs one operation as a commit of its own, directly under
// commitMu: gate on the log's health, apply at the next timestamp, seal
// (log, fsync, publish — which releases commitMu) and settle. It reports
// the op's effect so a mutator can tell its caller what happened.
func (db *Database) autoCommit(op walOp) (effect, error) {
	db.commitMu.Lock()
	if err := db.walGate(); err != nil {
		db.commitMu.Unlock()
		return effect{}, err
	}
	ts := db.lastAlloc + 1
	ops := []walOp{op}
	eff, err := db.applyOp(ts, &ops[0], nil)
	if err != nil || eff.none() {
		db.commitMu.Unlock()
		return eff, err
	}
	if err := db.sealCommit(ts, ops); err != nil {
		return effect{}, err
	}
	db.settle([]effect{eff})
	return eff, nil
}
