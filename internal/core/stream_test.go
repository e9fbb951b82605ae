package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mad/internal/core"
	"mad/internal/geo"
	"mad/internal/model"
	"mad/internal/storage"
)

// passThrough is the worker of a run with no hooks and no filter sink.
func passThrough(int) core.FusedWorker { return core.FusedWorker{} }

// streamFixture builds a synthetic occurrence large enough that the
// streaming executor actually runs multi-batch, multi-worker.
func streamFixture(t *testing.T) (*core.Deriver, core.MoleculeSet) {
	t.Helper()
	syn, err := geo.BuildSynthetic(geo.Config{
		States: 200, EdgesPerArea: 3, Sharing: 2, Rivers: 4, RiverEdges: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(syn.DB, "mt_state",
		[]string{"state", "area", "edge", "point"},
		[]core.DirectedLink{
			{Link: "state-area", From: "state", To: "area"},
			{Link: "area-edge", From: "area", To: "edge"},
			{Link: "edge-point", From: "edge", To: "point"},
		})
	if err != nil {
		t.Fatal(err)
	}
	dv, err := mt.Deriver()
	if err != nil {
		t.Fatal(err)
	}
	return dv, dv.Derive()
}

// drain pulls a run to exhaustion and closes it, checking every batch
// against the batch-size bound; it returns the molecules, the number of
// batches and the run's work.
func drain(t *testing.T, run *core.Run, size int) (core.MoleculeSet, int, storage.WorkTally, error) {
	t.Helper()
	var got core.MoleculeSet
	for batches := 0; ; batches++ {
		ms, err := run.Next()
		if err != nil || len(ms) == 0 {
			return got, batches, run.Close(), err
		}
		if len(ms) > size {
			t.Fatalf("batch of %d, want at most %d", len(ms), size)
		}
		got = append(got, ms...)
	}
}

// TestDeriveStreamOrder: for any worker count (0 = GOMAXPROCS) and batch
// size, the concatenation of the batches is exactly the sequential
// derivation order, and every batch respects the batch-size bound.
func TestDeriveStreamOrder(t *testing.T) {
	dv, want := streamFixture(t)
	roots := dv.RootIDs()
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, batchSize := range []int{1, 7, 64, 1000} {
			got, batches, _, err := drain(t, dv.DeriveStream(context.Background(), core.RootSlice(roots), workers, batchSize, passThrough), batchSize)
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batchSize, err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d batch=%d: %d molecules, want %d", workers, batchSize, len(got), len(want))
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("workers=%d batch=%d: molecule %d out of order", workers, batchSize, i)
				}
			}
			if wantBatches := (len(roots) + batchSize - 1) / batchSize; batches != wantBatches {
				t.Fatalf("workers=%d batch=%d: %d batches, want %d", workers, batchSize, batches, wantBatches)
			}
		}
	}
}

// TestDeriveStreamCancel: cancelling the context after the second batch
// — the first the pool derives — stops the executor with ctx.Err() — in
// particular it does not deliver the remaining batches — and Close still
// joins all its workers.
func TestDeriveStreamCancel(t *testing.T) {
	dv, want := streamFixture(t)
	roots := dv.RootIDs()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		run := dv.DeriveStream(ctx, core.RootSlice(roots), workers, 8, passThrough)
		delivered := 0
		for range 2 {
			ms, err := run.Next()
			if err != nil || len(ms) == 0 {
				t.Fatalf("workers=%d: batch of %d molecules, %v", workers, len(ms), err)
			}
			delivered += len(ms)
		}
		cancel()
		got, _, _, err := drain(t, run, 8)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if delivered += len(got); delivered >= len(want) {
			t.Fatalf("workers=%d: delivered %d of %d after first-batch cancel", workers, delivered, len(want))
		}
	}
}

// TestDeriveStreamCloseEarly: a consumer that stops pulling and closes
// the run stops its workers — Close returns with the pool joined — and
// the pool derived no more than the workers+2 batches it keeps in
// flight past the last batch handed out.
func TestDeriveStreamCloseEarly(t *testing.T) {
	dv, _ := streamFixture(t)
	roots := dv.RootIDs()
	for _, workers := range []int{1, 4} {
		var derived atomic.Int64
		count := func(int) core.FusedWorker {
			return core.FusedWorker{Keep: func(*core.Molecule) bool { derived.Add(1); return true }}
		}
		run := dv.DeriveStream(context.Background(), core.RootSlice(roots), workers, 8, count)
		for range 2 {
			if ms, err := run.Next(); err != nil || len(ms) != 8 {
				t.Fatalf("workers=%d: batch of %d, %v", workers, len(ms), err)
			}
		}
		run.Close()
		if n, bound := derived.Load(), int64(2+workers+2)*8; n > bound {
			t.Fatalf("workers=%d: derived %d molecules for 2 batches handed out, want at most %d", workers, n, bound)
		}
	}
}

// TestDeriveStreamCtx: an already-cancelled context derives nothing, a
// nil context and a zero batch size mean "run to completion at the
// default batch size", and a root outside the occurrence fails its
// batch, so nothing of it is delivered.
func TestDeriveStreamCtx(t *testing.T) {
	dv, want := streamFixture(t)
	roots := dv.RootIDs()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _, _, err := drain(t, dv.DeriveStream(ctx, core.RootSlice(roots), 4, 0, passThrough), core.DefaultStreamBatch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 0 {
		t.Fatalf("cancelled run delivered %d molecules", len(out))
	}
	out, _, work, err := drain(t, dv.DeriveStream(nil, core.RootSlice(roots), 4, 0, passThrough), core.DefaultStreamBatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(want) {
		t.Fatalf("%d molecules, want %d", len(out), len(want))
	}
	if work.AtomsFetched == 0 || work.LinksTraversed == 0 {
		t.Fatalf("work tally not reported: %+v", work)
	}
	run := dv.DeriveStream(nil, core.RootSlice([]model.AtomID{roots[0], 0}), 4, 0, passThrough)
	if out, _, _, err = drain(t, run, core.DefaultStreamBatch); err == nil || len(out) != 0 {
		t.Fatalf("non-root atom: err = %v with %d molecules delivered, want the batch rejected", err, len(out))
	}
}
