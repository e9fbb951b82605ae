package core_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"mad/internal/core"
	"mad/internal/geo"
	"mad/internal/model"
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

// TestDeriveStreamOrder: for any worker count (0 = GOMAXPROCS) and batch
// size, the concatenation of the emitted batches is exactly the
// sequential derivation order, and every batch respects the batch-size
// bound.
func TestDeriveStreamOrder(t *testing.T) {
	dv, want := streamFixture(t)
	roots := dv.RootIDs()
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, batchSize := range []int{1, 7, 64, 1000} {
			var got core.MoleculeSet
			batches := 0
			_, err := dv.DeriveStream(context.Background(), slices.Values(roots), workers, batchSize, passThrough,
				func(ms core.MoleculeSet) error {
					if len(ms) == 0 || len(ms) > batchSize {
						t.Fatalf("workers=%d batch=%d: emitted batch of %d", workers, batchSize, len(ms))
					}
					batches++
					got = append(got, ms...)
					return nil
				})
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

// TestDeriveStreamCancel: cancelling the context after the first batch
// stops the executor with ctx.Err() — in particular it does not deliver
// the remaining batches — and the call still joins all its workers.
func TestDeriveStreamCancel(t *testing.T) {
	dv, want := streamFixture(t)
	roots := dv.RootIDs()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		delivered := 0
		_, err := dv.DeriveStream(ctx, slices.Values(roots), workers, 8, passThrough,
			func(ms core.MoleculeSet) error {
				delivered += len(ms)
				cancel()
				return nil
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if delivered == 0 || delivered >= len(want) {
			t.Fatalf("workers=%d: delivered %d of %d after first-batch cancel", workers, delivered, len(want))
		}
		cancel()
	}
}

// TestDeriveStreamEmitError: an emit error stops the workers and
// surfaces unchanged.
func TestDeriveStreamEmitError(t *testing.T) {
	dv, _ := streamFixture(t)
	roots := dv.RootIDs()
	sentinel := errors.New("stop")
	for _, workers := range []int{1, 4} {
		calls := 0
		_, err := dv.DeriveStream(context.Background(), slices.Values(roots), workers, 8, passThrough,
			func(ms core.MoleculeSet) error {
				calls++
				return sentinel
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if calls != 1 {
			t.Fatalf("workers=%d: emit called %d times after error", workers, calls)
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
	var out core.MoleculeSet
	collect := func(ms core.MoleculeSet) error {
		out = append(out, ms...)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dv.DeriveStream(ctx, slices.Values(roots), 4, 0, passThrough, collect); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 0 {
		t.Fatalf("cancelled run delivered %d molecules", len(out))
	}
	work, err := dv.DeriveStream(nil, slices.Values(roots), 4, 0, passThrough, collect)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(want) {
		t.Fatalf("%d molecules, want %d", len(out), len(want))
	}
	if work.AtomsFetched == 0 || work.LinksTraversed == 0 {
		t.Fatalf("work tally not reported: %+v", work)
	}
	out = nil
	if _, err := dv.DeriveStream(nil, slices.Values([]model.AtomID{roots[0], 0}), 4, 0, passThrough, collect); err == nil || len(out) != 0 {
		t.Fatalf("non-root atom: err = %v with %d molecules delivered, want the batch rejected", err, len(out))
	}
}
