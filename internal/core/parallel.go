package core

import (
	"context"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"mad/internal/model"
	"mad/internal/storage"
)

// FusedWorker is one worker's harness for a derive+filter batch.
// Checks are the worker-private prune hooks — their Qualifies closures
// may keep worker-local accumulators (cut counts) without any
// synchronization, because exactly one worker runs them. Keep is the
// filter sink, run on the worker goroutine immediately after a molecule
// survives every hook: returning false drops the molecule from the
// result (it is recycled into the worker's scratch, so rejected
// molecules never cross a goroutine boundary and cost no allocation on
// the next derivation).
type FusedWorker struct {
	Checks PreparedChecks
	Keep   func(m *Molecule) bool
}

// DefaultStreamBatch is the streaming executor's root-batch granularity:
// large enough that the per-batch channel traffic disappears against the
// derivation work, small enough that the first molecules reach the
// consumer long before the roots are exhausted.
const DefaultStreamBatch = 64

// fusedSlot is one dispatched root batch of the worker pool: its roots,
// and a one-slot channel its worker publishes the finished batch into —
// err set first when a root is not in the root type — so a worker send
// never blocks.
type fusedSlot struct {
	roots []model.AtomID
	err   error
	out   chan MoleculeSet
}

// DeriveStream is the derivation executor: it pulls roots from the
// sequence, derives their molecules and filters each one on the worker
// that derived it — no barrier separates the two stages. The roots are
// cut into batches of size roots (<= 0 selects DefaultStreamBatch) as
// they are pulled; each batch is checked against the root type's
// occurrence, derived and filtered by one worker, and emit receives the
// surviving molecules of every batch — compacted, in exact root order —
// as soon as that batch is done, so the output is deterministic for any
// worker count.
//
// The first batch is derived on the calling goroutine and emitted before
// another root is pulled: a run that ends there — one batch of roots, or
// a LIMIT the first batch meets — starts no goroutine and derives nothing
// it does not deliver. A run that goes on cuts the rest into batches for
// a pool of workers (<= 0 selects GOMAXPROCS; 1 keeps every batch on the
// calling goroutine). At most workers+1 batches are in flight, and no
// root is pulled past them, so the footprint stays O(workers × size)
// molecules however long the sequence is; batches are pipelined — worker
// w derives batch k+1 while emit still drains batch k. A run that ends
// early stops the sequence.
//
// newWorker is called on the calling goroutine, once per worker harness
// (ids 0..n-1; harness 0 derives on the calling goroutine), so callers
// can set up per-worker accumulators lock-free and merge them after the
// call returns. emit runs on the calling goroutine too; returning an
// error from it stops the workers and surfaces that error. A root outside
// the root type's occurrence surfaces its error after the batches before
// it. Cancelling ctx stops every worker loop mid-derivation (checked per
// root) and returns ctx.Err(); ctx may be nil for uncancellable runs. No
// goroutine outlives the call either way, and empty batches are not
// emitted. The returned tally is the run's derivation work — atoms
// fetched and links traversed — already folded into the database's
// shared statistics.
func (dv *Deriver) DeriveStream(ctx context.Context, roots iter.Seq[model.AtomID], workers, size int, newWorker func(w int) FusedWorker, emit func(MoleculeSet) error) (storage.WorkTally, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	x := &executor{dv: dv, ctx: ctx, done: ctx.Done(), workers: workers, size: size, newWorker: newWorker, emit: emit}
	if x.workers <= 0 {
		x.workers = runtime.GOMAXPROCS(0)
	}
	if x.size <= 0 {
		x.size = DefaultStreamBatch
	}
	x.fw, x.sc, x.buf = newWorker(0), newDeriveScratch(x), x.first[:0]
	for r := range roots {
		if x.buf = append(x.buf, r); len(x.buf) == x.size {
			x.cut()
		}
		if x.err != nil {
			break
		}
	}
	return x.finish()
}

// executor is the state of one DeriveStream run.
type executor struct {
	dv        *Deriver
	ctx       context.Context
	done      <-chan struct{}
	workers   int
	size      int
	newWorker func(w int) FusedWorker
	emit      func(MoleculeSet) error
	// halt stops the derivation loops once the run has failed; a
	// cancelled context stops them through done.
	halt atomic.Bool
	err  error

	// buf collects the batch being cut; the calling goroutine's batches
	// reuse first. fw and sc are harness 0, which derives them; the
	// pool's workers get harnesses 1..workers.
	buf   []model.AtomID
	first [DefaultStreamBatch]model.AtomID
	fw    FusedWorker
	sc    *deriveScratch

	// The pool, once the run is past its first batch (piped): work feeds
	// the workers, queue holds the in-flight batches in dispatch order,
	// tallies has one entry per worker started.
	piped   bool
	work    chan *fusedSlot
	queue   []*fusedSlot
	wg      sync.WaitGroup
	tallies []storage.WorkTally
}

// stopped reports whether the run failed or its context was cancelled.
// Polling done takes no lock, unlike asking the context for its error.
func (x *executor) stopped() bool {
	select {
	case <-x.done:
		return true
	default:
		return x.halt.Load()
	}
}

// cut hands the batch in buf on: derived and emitted on the calling
// goroutine until the run is piped, otherwise dispatched to the pool —
// starting one more worker while the pool is short of one per batch —
// and, with workers+1 batches in flight, the oldest emitted before
// another root is pulled.
func (x *executor) cut() {
	if !x.piped {
		batch, err := x.derive(x.fw, x.sc, x.buf)
		x.err = x.deliver(batch, err)
		x.buf, x.piped = x.buf[:0], x.workers > 1
		return
	}
	if x.work == nil {
		// Sends never block: the queue bound below caps the slots the
		// channel holds.
		x.work = make(chan *fusedSlot, x.workers+1)
		x.tallies = make([]storage.WorkTally, 0, x.workers)
	}
	if w := len(x.tallies); w < x.workers {
		fw, sc := x.newWorker(w+1), newDeriveScratch(x)
		x.tallies = append(x.tallies, storage.WorkTally{})
		x.wg.Add(1)
		go func() {
			defer x.wg.Done()
			for s := range x.work {
				batch, err := x.derive(fw, sc, s.roots)
				s.err = err
				s.out <- batch
			}
			x.tallies[w] = sc.work
			sc.flush(x.dv.db)
		}()
	}
	s := &fusedSlot{roots: x.buf, out: make(chan MoleculeSet, 1)}
	x.work <- s
	x.queue = append(x.queue, s)
	x.buf = make([]model.AtomID, 0, x.size)
	for len(x.queue) > x.workers && x.err == nil {
		x.next()
	}
}

// next waits for the oldest in-flight batch and delivers it.
func (x *executor) next() {
	s := x.queue[0]
	x.queue = x.queue[1:]
	select {
	case batch := <-s.out:
		x.err = x.deliver(batch, s.err)
	case <-x.done:
		x.err = x.ctx.Err()
	}
}

// deliver emits a finished batch. ctx.Err() decides whether the batch is
// whole: a derivation loop cuts a batch short only once done is closed or
// the run has failed, and the context sets Err before it closes done, so
// a partial batch is never emitted.
func (x *executor) deliver(batch MoleculeSet, err error) error {
	if err == nil {
		err = x.ctx.Err()
	}
	if err == nil && len(batch) > 0 {
		err = x.emit(batch)
	}
	return err
}

// derive checks roots against the root type, derives their molecules
// under a worker's hooks and sink, and compacts the survivors in root
// order. A stopped run returns what it had.
func (x *executor) derive(fw FusedWorker, sc *deriveScratch, roots []model.AtomID) (MoleculeSet, error) {
	batch := make(MoleculeSet, 0, len(roots))
	for _, r := range roots {
		if x.stopped() {
			break
		}
		if !x.dv.rootHas(r) {
			return nil, x.dv.errNotRoot(r)
		}
		m := x.dv.deriveScratched(r, fw.Checks, sc)
		if m == nil {
			continue
		}
		if fw.Keep != nil && !fw.Keep(m) {
			sc.recycle(m)
			continue
		}
		batch = append(batch, m)
	}
	return batch, nil
}

// finish cuts the last batch and delivers every batch still in flight,
// in order — or, once the run has failed, halts the workers — then joins
// the pool and returns the run's work.
func (x *executor) finish() (storage.WorkTally, error) {
	if x.err == nil && len(x.buf) > 0 {
		x.cut()
	}
	for len(x.queue) > 0 && x.err == nil {
		x.next()
	}
	if x.work != nil {
		x.halt.Store(x.err != nil)
		close(x.work)
		x.wg.Wait()
	}
	work := x.sc.work
	x.sc.flush(x.dv.db)
	for _, t := range x.tallies {
		work.Add(t)
	}
	return work, x.err
}
