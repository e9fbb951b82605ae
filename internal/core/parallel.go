package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"mad/internal/model"
	"mad/internal/storage"
)

// FusedWorker is one worker's harness for a derive+filter batch.
// Checks are the worker-private prune hooks — their Qualifies closures
// may keep worker-local accumulators (cut counts) without any
// synchronization, because exactly one worker runs them; the run lays
// them out per type position once, when it sets the worker up. Keep is the
// filter sink, run on the worker goroutine immediately after a molecule
// survives every hook, while the molecule still lies in the worker's
// builder: returning false drops it from the result (the next root
// overwrites it, so rejected molecules never cross a goroutine boundary
// and cost no allocation), and Keep must not retain it — the molecule
// delivered is its copy in the batch's slabs.
type FusedWorker struct {
	Checks []PruneCheck
	Keep   func(m *Molecule) bool
}

// DefaultStreamBatch is the streaming executor's root-batch granularity:
// large enough that the per-batch hand-off disappears against the
// derivation work, small enough that the first molecules reach the
// consumer long before the roots are exhausted.
const DefaultStreamBatch = 64

// Roots pulls a run's roots batch by batch: each call fills dst up to
// its capacity and returns it, and an empty result means the roots are
// exhausted.
type Roots func(dst []model.AtomID) []model.AtomID

// RootSlice is the pull over a collected root slice.
func RootSlice(ids []model.AtomID) Roots {
	return func(dst []model.AtomID) []model.AtomID {
		n := copy(dst[:cap(dst)], ids)
		ids = ids[n:]
		return dst[:n]
	}
}

// fusedSlot is one dispatched root batch of the worker pool: its roots,
// and a one-slot channel its worker publishes the finished batch into —
// err set first when a root is not in the root type — so a worker send
// never blocks.
type fusedSlot struct {
	roots []model.AtomID
	err   error
	out   chan MoleculeSet
}

// DeriveStream starts the derivation executor over the roots: each call
// of the returned run's Next pulls the roots of the next batch (size
// roots; <= 0 selects DefaultStreamBatch), checks them against the root
// type's occurrence, derives their molecules and filters each one on the
// worker that derived it — no barrier separates the two stages — and
// returns the surviving molecules, compacted, in exact root order, so
// the output is deterministic for any worker count.
//
// The consumer drives the run. The first batch is derived inline by the
// first Next: a run that ends there — one batch of roots, or a LIMIT the
// first batch meets — starts no goroutine and derives nothing it does not
// deliver. From the second batch on, a pool of workers (<= 0 selects
// GOMAXPROCS; 1 keeps every batch inline) derives ahead of the consumer —
// the second batch still derives inline, beside the pool's start on the
// batches behind it: after Next hands a batch out, workers+2 batches are
// in flight, and no root is pulled past them, so the footprint stays
// O(workers × size) molecules however many roots there are.
//
// newWorker is called on the consumer's goroutine — by DeriveStream and
// Next — once per worker harness (ids 0..n-1; harness 0 derives inline),
// so callers can set up per-worker accumulators lock-free and merge them
// after Close. A root outside the root type's occurrence fails its batch, after the
// batches before it. Cancelling ctx stops every derivation loop (checked
// per root) and every pool worker, Close or no Close, and Next then
// returns ctx.Err(); ctx may be nil for uncancellable runs.
func (dv *Deriver) DeriveStream(ctx context.Context, roots Roots, workers, size int, newWorker func(w int) FusedWorker) *Run {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Run{dv: dv, ctx: ctx, done: ctx.Done(), roots: roots, workers: workers, size: size, newWorker: newWorker}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	if r.size <= 0 {
		r.size = DefaultStreamBatch
	}
	r.buf = r.first[:0:min(r.size, DefaultStreamBatch)]
	if r.size > DefaultStreamBatch {
		r.buf = make([]model.AtomID, 0, r.size)
	}
	r.sc = r.newScratch(0)
	return r
}

// newScratch sets up worker w: its harness from newWorker, its hooks laid
// out per position, and a builder from the pool.
func (r *Run) newScratch(w int) deriveScratch {
	fw := r.newWorker(w)
	return deriveScratch{checks: r.dv.prepareChecks(fw.Checks), keep: fw.Keep, builder: builders.Get().(*builder), run: r}
}

// Run is one DeriveStream execution. It is not safe for concurrent use.
type Run struct {
	dv        *Deriver
	ctx       context.Context
	done      <-chan struct{}
	roots     Roots
	workers   int
	size      int
	newWorker func(w int) FusedWorker
	// halt stops the derivation loops once the run is closed; a
	// cancelled context stops them through done.
	halt atomic.Bool
	err  error
	// drained is set once the roots are exhausted.
	drained bool

	// sc is worker 0, which derives the inline batches; their roots are
	// pulled into buf, which reuses first.
	buf   []model.AtomID
	first [DefaultStreamBatch]model.AtomID
	sc    deriveScratch

	// The pool, once the run is past its first batch (piped): work feeds
	// the workers, queue holds the in-flight batches in dispatch order,
	// tallies has one entry per worker started.
	piped   bool
	work    chan *fusedSlot
	queue   []*fusedSlot
	wg      sync.WaitGroup
	tallies []storage.WorkTally
}

// stopped reports whether the run was closed or its context cancelled.
// Polling done takes no lock, unlike asking the context for its error.
func (r *Run) stopped() bool {
	select {
	case <-r.done:
		return true
	default:
		return r.halt.Load()
	}
}

// Next returns the next non-empty batch of surviving molecules; an empty
// batch with a nil error means the roots are exhausted. Errors are
// terminal. ctx.Err() decides whether a batch is whole: a derivation
// loop cuts a batch short only once done is closed or the run is halted,
// and the context sets Err before it closes done, so a partial batch is
// never returned.
func (r *Run) Next() (MoleculeSet, error) {
	for r.err == nil && !(r.drained && len(r.queue) == 0) {
		var batch MoleculeSet
		var err error
		if len(r.queue) == 0 {
			// Nothing is in flight: the batch derives inline, and once
			// the run is piped the pool starts on the batches behind it.
			roots := r.roots(r.buf)
			if len(roots) == 0 {
				r.drained = true
				break
			}
			if r.piped {
				r.fill()
			}
			batch, err = r.derive(&r.sc, roots)
			r.piped = r.workers > 1
		} else {
			s := r.queue[0]
			r.queue = r.queue[1:]
			r.fill()
			select {
			case batch = <-s.out:
				err = s.err
			case <-r.done:
			}
		}
		if err == nil {
			err = r.ctx.Err()
		}
		if r.err = err; err == nil && len(batch) > 0 {
			return batch, nil
		}
	}
	return nil, r.err
}

// fill dispatches root batches to the pool until workers+2 are in flight
// behind the batch Next is about to hand out, starting one more worker
// while the pool is short of one per batch.
func (r *Run) fill() {
	if r.work == nil {
		// Sends never block: the queue bound caps the slots the channel
		// holds.
		r.work = make(chan *fusedSlot, r.workers+3)
		r.tallies = make([]storage.WorkTally, 0, r.workers)
	}
	for !r.drained && len(r.queue) < r.workers+2 && !r.stopped() {
		roots := r.roots(make([]model.AtomID, 0, r.size))
		if len(roots) == 0 {
			r.drained = true
			return
		}
		if w := len(r.tallies); w < r.workers {
			sc := r.newScratch(w + 1)
			// tallies never outgrows its capacity, so each worker keeps
			// a stable pointer to its own entry.
			r.tallies = append(r.tallies, storage.WorkTally{})
			r.wg.Add(1)
			go r.serve(&sc, &r.tallies[w])
		}
		s := &fusedSlot{roots: roots, out: make(chan MoleculeSet, 1)}
		r.work <- s
		r.queue = append(r.queue, s)
	}
}

// serve is a pool worker's loop: it derives dispatched batches until the
// run is closed or its context cancelled, then records its work in tally.
func (r *Run) serve(sc *deriveScratch, tally *storage.WorkTally) {
	defer func() {
		*tally = sc.work
		sc.work.FlushTo(r.dv.db.Stats())
		builders.Put(sc.builder)
		r.wg.Done()
	}()
	for {
		select {
		case s, ok := <-r.work:
			if !ok {
				return
			}
			var batch MoleculeSet
			batch, s.err = r.derive(sc, s.roots)
			s.out <- batch
		case <-r.done:
			return
		}
	}
}

// derive checks roots against the root type, derives their molecules
// under a worker's hooks and sink, and carves the survivors, in root
// order, into the batch's slabs. A stopped run returns what it had.
func (r *Run) derive(sc *deriveScratch, roots []model.AtomID) (MoleculeSet, error) {
	for _, id := range roots {
		if r.stopped() {
			break
		}
		if !r.dv.view.Has(r.dv.roots, id) {
			sc.reset()
			return nil, r.dv.errNotRoot(id)
		}
		m := r.dv.deriveScratched(id, sc)
		if m != nil && (sc.keep == nil || sc.keep(m)) {
			sc.commit()
		}
	}
	return sc.carve(), nil
}

// Close halts the run, joins its pool and returns its derivation work —
// atoms fetched and links traversed, already folded into the database's
// shared statistics. Call it once, after the last Next.
func (r *Run) Close() storage.WorkTally {
	if r.work != nil {
		r.halt.Store(true)
		close(r.work)
		r.wg.Wait()
	}
	work := r.sc.work
	r.sc.work.FlushTo(r.dv.db.Stats())
	if r.sc.builder != nil { // a second Close must not pool it twice
		builders.Put(r.sc.builder)
		r.sc.builder = nil
	}
	for _, t := range r.tallies {
		work.Add(t)
	}
	return work
}
