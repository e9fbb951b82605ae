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
// consumer long before the root batch is exhausted.
const DefaultStreamBatch = 64

// fusedSlot is one dispatched root range of the streaming executor,
// with a one-slot channel its worker publishes the finished batch into
// so a worker send never blocks.
type fusedSlot struct {
	lo, hi int
	out    chan MoleculeSet
}

// DeriveStream is the derivation executor: it derives the molecules of
// the given roots on a pool of workers (<= 0 selects GOMAXPROCS) and
// filters each one on the worker that derived it — no barrier separates
// the two stages. The root batch is cut into batches of size roots (<= 0
// selects DefaultStreamBatch), each batch is derived and filtered by one
// worker, and emit receives the surviving molecules of every batch —
// compacted, in exact root order — as soon as that batch is done, so the
// output is deterministic for any worker count. At most workers+1 batches
// are in flight at any moment, which bounds the footprint at
// O(workers × size) molecules however large the root batch is; batches are pipelined —
// worker w derives batch k+1 while emit still drains batch k.
//
// newWorker is called on the calling goroutine, once per worker actually
// spawned (ids 0..n-1), so callers can set up per-worker accumulators
// lock-free and merge them after the call returns. emit runs on the
// calling goroutine too; returning an error from it stops the workers and
// surfaces that error. Cancelling ctx stops every worker loop
// mid-derivation (checked per root) and returns ctx.Err(); ctx may be
// nil for uncancellable runs. No goroutine outlives the call either
// way, and empty batches are not emitted. The returned tally is the
// run's derivation work — atoms fetched and links traversed — already
// folded into the database's shared statistics.
func (dv *Deriver) DeriveStream(ctx context.Context, roots []model.AtomID, workers, size int, newWorker func(w int) FusedWorker, emit func(MoleculeSet) error) (storage.WorkTally, error) {
	var work storage.WorkTally
	for _, r := range roots {
		if !dv.rootHas(r) {
			return work, dv.errNotRoot(r)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if size <= 0 {
		size = DefaultStreamBatch
	}

	// stop flags cancellation to the per-root worker loops without the
	// mutex a ctx.Err() probe would take on every root.
	var stop atomic.Bool
	unregister := context.AfterFunc(ctx, func() { stop.Store(true) })
	defer unregister()

	// deriveBatch derives roots[lo:hi) under one worker's hooks and sink,
	// compacting in root order. A cancelled batch returns what it had —
	// the emitter discards it, so a partial batch is never delivered.
	deriveBatch := func(fw FusedWorker, sc *deriveScratch, lo, hi int) MoleculeSet {
		batch := make(MoleculeSet, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if stop.Load() {
				break
			}
			m := dv.deriveScratched(roots[i], fw.Checks, sc)
			if m == nil {
				continue
			}
			if fw.Keep != nil && !fw.Keep(m) {
				sc.recycle(m)
				continue
			}
			batch = append(batch, m)
		}
		return batch
	}

	// More workers than batches would idle from the start.
	workers = min(workers, (len(roots)+size-1)/size)
	if workers <= 1 {
		// Sequential fast path: one worker, batches emitted in place.
		sc := newDeriveScratch(&stop)
		fw := newWorker(0)
		var err error
		for lo := 0; lo < len(roots) && err == nil; {
			hi := min(lo+size, len(roots))
			batch := deriveBatch(fw, sc, lo, hi)
			lo = hi
			// ctx.Err() — not the stop flag — decides: Err is set
			// synchronously with cancellation while the AfterFunc above
			// runs asynchronously, and stop implies Err non-nil, so a
			// batch cut short mid-derivation is never delivered.
			if err = ctx.Err(); err != nil {
				break
			}
			if len(batch) > 0 {
				err = emit(batch)
			}
		}
		work = sc.work
		sc.flush(dv.db)
		return work, err
	}

	// Pipelined path. The dispatcher cuts root ranges of size roots,
	// workers pull the slots from workCh and publish each finished batch
	// into the slot's one-slot channel, and the emitter below replays the
	// slots in dispatch order. The sem token bound keeps at most workers+1 slots in flight — the dispatcher
	// acquires before cutting a slot, the emitter releases after draining
	// it — which also bounds slotCh's occupancy, so its sends never block.
	slotCh := make(chan *fusedSlot, workers+1)
	workCh := make(chan *fusedSlot)
	sem := make(chan struct{}, workers+1)
	abort := make(chan struct{}) // closed when the emitter bails early
	var wg sync.WaitGroup
	tallies := make([]storage.WorkTally, workers)
	for w := 0; w < workers; w++ {
		fw := newWorker(w)
		wg.Add(1)
		go func(w int, fw FusedWorker) {
			defer wg.Done()
			sc := newDeriveScratch(&stop)
			for s := range workCh {
				s.out <- deriveBatch(fw, sc, s.lo, s.hi)
			}
			tallies[w] = sc.work
			sc.flush(dv.db)
		}(w, fw)
	}
	go func() { // dispatcher
		defer close(workCh)
		defer close(slotCh)
		for lo := 0; lo < len(roots); {
			hi := min(lo+size, len(roots))
			s := &fusedSlot{lo: lo, hi: hi, out: make(chan MoleculeSet, 1)}
			lo = hi
			select {
			case sem <- struct{}{}:
			case <-abort:
				return
			}
			slotCh <- s // never blocks: occupancy ≤ sem tokens ≤ cap
			select {
			case workCh <- s:
			case <-abort:
				return
			}
		}
	}()

	err := func() error {
		defer close(abort)
		for s := range slotCh {
			var batch MoleculeSet
			select {
			case batch = <-s.out:
			case <-ctx.Done():
				return ctx.Err()
			}
			// ctx.Err() — not the stop flag — decides: Err is set
			// synchronously with cancellation while the AfterFunc above
			// runs asynchronously, and a worker only cuts a batch short
			// after stop (which implies Err non-nil), so a partial batch
			// is never delivered.
			if err := ctx.Err(); err != nil {
				return err
			}
			if len(batch) > 0 {
				if err := emit(batch); err != nil {
					stop.Store(true)
					return err
				}
			}
			<-sem
		}
		return nil
	}()
	wg.Wait()
	for _, t := range tallies {
		work.Add(t)
	}
	return work, err
}
