package plan

import (
	"container/heap"
	"context"
	"errors"
	"iter"
	"sync/atomic"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// Stream is an incremental cursor over a plan's qualifying molecules.
// Its consumer drives the executor: Next pulls the next batch when the
// last one is handed out, the first ones on the consumer's own goroutine
// and the rest from a worker pool that derives a bounded number of batches
// ahead, so the first molecules reach the consumer while the bulk of the
// roots is still deriving, and the memory footprint stays
// O(workers × batch) instead of O(result). Molecules arrive in exactly
// Execute's deterministic root-aligned order for any worker count — a
// consumed prefix of a Stream is always a prefix of the materialized
// result.
//
// A Stream is not safe for concurrent use. Callers must either drain it
// (Next returning nil, nil) or Close it; cancelling its context stops
// its workers either way, but only draining or Close releases the
// snapshot it pins.
type Stream struct {
	p *Plan

	// view is the consistent view the whole run reads through: every
	// access-path lookup, derivation step, residual evaluation and ORDER
	// BY key resolves against it, however many writers commit while the
	// stream drains. own is the snapshot the stream pinned itself,
	// released when the stream ends; nil when it reads through a
	// transaction, whose begin snapshot stays the transaction's to close.
	view storage.View
	own  *storage.Snapshot

	// run is the executor the stream pulls from, nil once it has ended;
	// states are its workers' private actuals, merged into the plan then.
	// eb holds the first evaluation error a predicate raised.
	run    *core.Run
	states []*workerState
	eb     *evalErrBox

	// A reordering ORDER BY drains the run into kh, keyed by keyOf; with
	// a Limit the heap publishes its bound for the workers' bound prune.
	kh    *topkHeap
	keyOf func(model.AtomID) (model.Value, bool)
	bound atomic.Pointer[orderBound]

	delivered int
	cur       core.MoleculeSet
	idx       int
	err       error
}

// SnapshotTS reports the commit timestamp the stream's results are
// consistent with: every molecule the cursor delivers was derived and
// filtered against this one committed state.
func (st *Stream) SnapshotTS() uint64 { return st.view.TS() }

// open pins a deriver to the view an execution of the plan inside txn
// reads through: the latest commit when txn is nil (the returned snapshot
// is the caller's to close), otherwise the transaction's view — its begin
// snapshot while it is clean, its effective view once it holds buffered
// writes. Index postings hold committed versions only, so only a plan
// entering by the plain container scan may open a dirty view.
func (p *Plan) open(txn *storage.Txn) (dv *core.Deriver, own *storage.Snapshot, err error) {
	if dv, err = core.NewDeriver(p.db, p.desc); err != nil {
		return nil, nil, err
	}
	if txn == nil {
		own = p.db.Snapshot()
		return dv.At(own.View), own, nil
	}
	if txn.Dirty() && p.path != (scan{}) {
		return nil, nil, errors.New("plan: a transaction's uncommitted writes are only reachable by a full scan (compile with CompileForced)")
	}
	return dv.At(txn.View()), nil, nil
}

// Stream starts executing the plan and returns the result cursor. The
// pipeline underneath — access path, then derivation with the root
// filter and the pushdowns as prune hooks and the residual chain run on
// the deriving worker — runs as the consumer pulls. Cancelling ctx (or
// Close) stops the worker pool mid-derivation without leaking
// goroutines.
//
// The plan's execution actuals (EXPLAIN's "actual" figures, Derived,
// Out) are valid once the stream has ended — drained, errored or closed
// — not while it is live.
func (p *Plan) Stream(ctx context.Context) (*Stream, error) {
	return p.StreamIn(ctx, nil)
}

// StreamIn is Stream reading through an open transaction — the entry
// point for transactional SELECTs: a clean transaction reads its begin
// snapshot rather than the latest commit, and one holding buffered
// writes reads its effective view, so the owner queries its own
// uncommitted inserts, updates and connects (the plan must then enter by
// the full scan). The transaction must stay open, and issue no write, until
// the stream ends. A nil transaction pins the latest commit for the
// duration of the stream (Stream's behaviour).
func (p *Plan) StreamIn(ctx context.Context, txn *storage.Txn) (*Stream, error) {
	dv, own, err := p.open(txn)
	if err != nil {
		return nil, err
	}
	p.resetActuals()
	st := &Stream{p: p, view: dv.View(), own: own, eb: &evalErrBox{}}

	// Per-atom predicates are safe for concurrent use and shared by all
	// workers; evaluation errors land in the box, and the root-position
	// guard rejects every molecule once an error is pending, so the
	// remaining batch degrades to a cheap root sweep instead of deriving
	// occurrences that will be discarded.
	filter, err := p.rootFilter(st.eb, st.view)
	preds := make([]func(model.AtomID) bool, len(p.Pushdowns))
	for i := 0; i < len(preds) && err == nil; i++ {
		preds[i], err = p.atomPred(p.Pushdowns[i].Type, p.Pushdowns[i].Conjunct, st.eb, st.view)
	}
	var roots core.Roots
	if err == nil {
		roots, err = p.path.roots(p, dv)
	}

	// Ordered delivery: an access path that already yields roots in key
	// order (OrderIndex) needs nothing extra — the executor's root-batch
	// order IS the requested order. Otherwise the qualifying molecules
	// feed a heap that reorders them before they reach the consumer; with
	// a Limit (OrderTopK) the heap stays bounded and publishes its bound so
	// workers cut hopeless roots pre-derivation.
	p.OrderPath = p.orderPath()
	if err == nil && (p.OrderPath == OrderTopK || p.OrderPath == OrderSort) {
		c, ok := p.db.Container(p.Access.Root)
		if !ok {
			err = errors.New("plan: root container vanished between compile and execute")
		}
		st.kh = &topkHeap{p: p}
		st.keyOf = func(id model.AtomID) (model.Value, bool) {
			a, ok := st.view.Atom(c, id)
			if !ok {
				return model.Value{}, false
			}
			// Account the key read like every other predicate fetch, so
			// the early-termination win stays visible in the same ledger.
			p.db.Stats().AtomsFetched.Add(1)
			return a.Get(p.Order.Pos), true
		}
	}
	if err != nil {
		st.release()
		return nil, err
	}

	// A run that delivers as it derives — unordered, or riding an index
	// in key order — ends at its Limit-th qualifying molecule, so its
	// batches are no larger than the limit.
	size := core.DefaultStreamBatch
	if p.Limit > 0 && st.kh == nil {
		size = min(size, p.Limit)
	}
	st.run = dv.DeriveStream(ctx, roots, p.Workers, size, func(int) core.FusedWorker {
		return st.worker(dv, filter, preds)
	})
	return st, nil
}

// release drops the stream's pin on its snapshot versions (no-op inside
// a transaction); safe to call more than once.
func (st *Stream) release() {
	if st.own != nil {
		st.own.Close()
	}
}

// workerState carries one worker's private execution actuals; the
// stream collects the states on the consumer's goroutine (newWorker
// contract) and merges them once the run has joined its workers, so the
// hot path performs no atomic operation per molecule.
type workerState struct {
	roots    int64 // roots the root filter passed
	rejected int64 // roots the root filter rejected
	cuts     []int64
	evals    []int64
	passed   []int64
	derived  int64
	orderCut int64
}

// orderedEntry pairs a qualifying molecule with its ORDER BY key, the
// unit the ordering heap works over.
type orderedEntry struct {
	key model.Value
	m   *core.Molecule
}

// orderBound is the published top-K heap bound: the key and root of the
// worst molecule currently in the heap. Workers load it lock-free at
// root position; a stale (older, weaker) bound only under-prunes, never
// cuts a qualifying root.
type orderBound struct {
	key model.Value
	id  model.AtomID
}

// orderCmp compares two (key, root) pairs under the plan's order: the
// key comparison honours ASC/DESC, ties always break by root atom ID
// ascending — a total order, which makes the index ride and the heap
// element-wise identical.
func (p *Plan) orderCmp(ka model.Value, ia model.AtomID, kb model.Value, ib model.AtomID) int {
	c := ka.Compare(kb)
	if p.Order.Desc {
		c = -c
	}
	if c != 0 {
		return c
	}
	switch {
	case ia < ib:
		return -1
	case ia > ib:
		return 1
	}
	return 0
}

// topkHeap is the worst-at-top heap every reordering ORDER BY drains:
// Pop removes the entry that sorts last, so holding the heap at Limit
// entries keeps exactly the best K seen so far (OrderTopK), and a heap
// never popped before the end holds the whole result (OrderSort).
type topkHeap struct {
	p     *Plan
	items []orderedEntry
}

func (h *topkHeap) Len() int { return len(h.items) }
func (h *topkHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return h.p.orderCmp(a.key, a.m.Root(), b.key, b.m.Root()) > 0
}
func (h *topkHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topkHeap) Push(x any)    { h.items = append(h.items, x.(orderedEntry)) }
func (h *topkHeap) Pop() any {
	n := len(h.items) - 1
	e := h.items[n]
	h.items[n] = orderedEntry{}
	h.items = h.items[:n]
	return e
}

// worker sets up one worker harness: the root filter, the top-K bound
// prune and the pushdowns as prune hooks, the residual chain as its
// sink, all counting into a workerState of its own.
func (st *Stream) worker(dv *core.Deriver, filter func(model.AtomID) bool, preds []func(model.AtomID) bool) core.FusedWorker {
	p, eb := st.p, st.eb
	ws := &workerState{
		cuts:   make([]int64, len(p.Pushdowns)),
		evals:  make([]int64, len(p.Residuals)),
		passed: make([]int64, len(p.Residuals)),
	}
	st.states = append(st.states, ws)
	rootPos, _ := p.desc.Pos(p.Access.Root)
	checks := []core.PruneCheck{{Pos: rootPos, Qualifies: func(atoms []model.AtomID) bool {
		// The root filter: a molecule has exactly one root atom, so
		// judging it here judges the molecule. A pending evaluation
		// error rejects every root.
		if eb.failed.Load() {
			return false
		}
		if filter != nil && !filter(atoms[0]) {
			ws.rejected++
			return false
		}
		ws.roots++
		return true
	}}}
	if p.OrderPath == OrderTopK {
		// The bound prune: once the heap is full, a root whose key
		// cannot beat the heap's worst entry is cut before its
		// molecule is derived. The bound only tightens over a run, so
		// a stale load under-prunes — harmless — and never over-prunes.
		checks = append(checks, core.PruneCheck{Pos: rootPos, Qualifies: func(atoms []model.AtomID) bool {
			b := st.bound.Load()
			if b == nil {
				return true
			}
			root := atoms[0]
			k, ok := st.keyOf(root)
			if !ok {
				return true
			}
			if p.orderCmp(k, root, b.key, b.id) > 0 {
				ws.orderCut++
				return false
			}
			return true
		}})
	}
	for i := range p.Pushdowns {
		i, pred := i, preds[i]
		checks = append(checks, core.PruneCheck{Pos: p.Pushdowns[i].Pos, Qualifies: func(atoms []model.AtomID) bool {
			for _, id := range atoms {
				if pred(id) {
					return true
				}
			}
			ws.cuts[i]++
			return false
		}})
	}
	keep := func(m *core.Molecule) bool {
		if eb.failed.Load() {
			return false
		}
		ws.derived++
		if len(p.Residuals) == 0 {
			return true
		}
		// Boxed once per molecule, not once per conjunct evaluated.
		var b expr.Binding = core.Binding{DB: p.db, M: m, View: st.view}
		for i := range p.Residuals {
			ws.evals[i]++
			ok, err := expr.EvalPredicate(p.Residuals[i].Conjunct, b)
			if err != nil {
				eb.set(err)
				return false
			}
			if !ok {
				return false
			}
			ws.passed[i]++
		}
		return true
	}
	return core.FusedWorker{Checks: dv.PrepareChecks(checks), Keep: keep}
}

// Next returns the next qualifying molecule. A nil molecule with a nil
// error means the stream is exhausted; a non-nil error (cancellation,
// deadline, evaluation error) is terminal and repeated by every further
// call.
func (st *Stream) Next() (*core.Molecule, error) {
	for st.idx >= len(st.cur) {
		if st.run == nil {
			st.cur, st.idx = nil, 0
			st.release()
			return nil, st.err
		}
		if st.kh != nil {
			st.cur, st.idx = st.sorted(), 0
		} else {
			st.cur, st.idx = st.batch(), 0
		}
	}
	m := st.cur[st.idx]
	st.idx++
	return m, nil
}

// batch pulls the run's next batch, cut at the plan's Limit, and ends the
// run once it is exhausted or failed, or the batch holds the Limit-th
// molecule.
func (st *Stream) batch() core.MoleculeSet {
	ms, err := st.run.Next()
	limited := st.p.Limit > 0 && len(ms) >= st.p.Limit-st.delivered
	if limited {
		ms = ms[:st.p.Limit-st.delivered]
	}
	st.delivered += len(ms)
	if limited || len(ms) == 0 {
		st.end(err)
	}
	return ms
}

// sorted drains the run into the heap and returns what the heap kept,
// best first: with a Limit the heap holds at most that many entries,
// and once it is full its worst entry is the bound the workers prune by.
func (st *Stream) sorted() core.MoleculeSet {
	p, kh := st.p, st.kh
	ms, err := st.run.Next()
	for ; len(ms) > 0; ms, err = st.run.Next() {
		for _, m := range ms {
			k, ok := st.keyOf(m.Root())
			if !ok {
				continue
			}
			heap.Push(kh, orderedEntry{key: k, m: m})
			if p.Limit == 0 {
				continue
			}
			if kh.Len() > p.Limit {
				heap.Pop(kh)
			}
			if kh.Len() == p.Limit {
				w := kh.items[0]
				st.bound.Store(&orderBound{key: w.key, id: w.m.Root()})
			}
		}
	}
	st.delivered = kh.Len()
	if st.end(err); st.err != nil {
		return nil
	}
	// Popping the worst-at-top heap yields worst-first, so fill the result
	// back to front.
	ms = make(core.MoleculeSet, kh.Len())
	for i := len(ms) - 1; i >= 0; i-- {
		ms[i] = heap.Pop(kh).(orderedEntry).m
	}
	return ms
}

// end closes the run with its terminal error and merges the per-worker
// actuals into the plan — even for truncated runs, whose partial actuals
// still describe the work actually done. A root the filter rejected
// never entered derivation (ActRoots leaves it out), so its placement is
// not part of the derivation work EXPLAIN reports.
func (st *Stream) end(err error) {
	p, work := st.p, st.run.Close()
	st.run = nil
	if err == nil {
		err = st.eb.get()
	}
	for _, ws := range st.states {
		p.Access.ActRoots += int(ws.roots)
		work.AtomsFetched -= ws.rejected
		p.Derived += int(ws.derived)
		p.OrderCut += int(ws.orderCut)
		for i := range p.Pushdowns {
			p.Pushdowns[i].Cut += int(ws.cuts[i])
		}
		for i := range p.Residuals {
			p.Residuals[i].Evals += int(ws.evals[i])
			p.Residuals[i].Passed += int(ws.passed[i])
		}
	}
	if st.err = err; err == nil {
		p.Out, p.Executed, p.work = st.delivered, true, work
	}
}

// Seq adapts the stream to a Go 1.23 range-over-func iterator:
//
//	for m := range st.Seq() { ... }
//
// Breaking out of the loop leaves the stream open — call Close (or
// cancel the stream's context) to release the workers; after the loop,
// Err reports whether iteration ended by exhaustion or by error.
func (st *Stream) Seq() iter.Seq[*core.Molecule] {
	return func(yield func(*core.Molecule) bool) {
		for {
			m, err := st.Next()
			if m == nil || err != nil {
				return
			}
			if !yield(m) {
				return
			}
		}
	}
}

// Err returns the stream's terminal error: nil while molecules are still
// flowing and after clean exhaustion, the cause once Next has reported a
// failure.
func (st *Stream) Err() error { return st.err }

// Close stops the in-flight execution, waits for the worker pool to
// wind down and releases the stream. It is idempotent and safe after
// exhaustion. Closing an unfinished stream is not an error: Close
// returns the stream's terminal error only when execution had already
// failed for a reason other than cancellation.
func (st *Stream) Close() error {
	if st.run != nil {
		// Ending the run as cancelled leaves its actuals unexecuted, and
		// closing an unfinished stream is not an error.
		st.end(context.Canceled)
		st.err = nil
	}
	st.cur, st.idx = nil, 0
	st.release()
	if errors.Is(st.err, context.Canceled) {
		return nil
	}
	return st.err
}
