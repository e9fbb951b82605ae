package plan_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/plan"
	"mad/internal/storage"
)

// streamWorkload builds a deterministic layered database (seeded
// generator, scaled atom count) and a molecule type over it — a workload
// big enough for streams to run multi-batch.
func streamWorkload(t *testing.T, atomsPerType int) (*storage.Database, *core.MoleculeType) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	db, types, edges, err := layeredDB(rng, 3, atomsPerType)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(db, "stream_mt", types, edges)
	if err != nil {
		t.Fatal(err)
	}
	return db, mt
}

// collectStream drains a stream via Next, closes it, and returns what it
// received.
func collectStream(t *testing.T, st *plan.Stream) core.MoleculeSet {
	t.Helper()
	var got core.MoleculeSet
	for {
		m, err := st.Next()
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if m == nil {
			break
		}
		got = append(got, m)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return got
}

// TestStreamCancelStopsWorkers: cancelling the stream's context makes
// Next report the cancellation and releases every goroutine the stream
// spawned (the -race run of this test is the leak check the acceptance
// criteria ask for).
func TestStreamCancelStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	// ≥ 4 executor batches: with the stream's hand-off channel bounded at
	// 2 batches, the producer cannot run to completion while the consumer
	// has taken only one molecule — cancellation always lands mid-flight.
	db, mt := streamWorkload(t, 400)
	p, err := plan.Compile(db, mt.Desc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	st, err := p.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := st.Next(); err != nil || m == nil {
		t.Fatalf("first molecule: %v, %v", m, err)
	}
	cancel()
	for {
		m, err := st.Next()
		if err != nil {
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if m == nil {
			t.Fatal("stream ended cleanly despite cancellation")
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close after cancel: %v", err)
	}
	// Every stream goroutine must be gone; give the runtime a moment to
	// retire them.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines: %d before stream, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamSeq: the range-over-func adapter yields the same order and
// leaves Err nil on exhaustion.
func TestStreamSeq(t *testing.T) {
	db, mt := streamWorkload(t, 8)
	p, err := plan.Compile(db, mt.Desc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plan.Compile(db, mt.Desc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p2.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for m := range st.Seq() {
		if !m.Equal(full[i]) {
			t.Fatalf("molecule %d differs", i)
		}
		i++
	}
	if i != len(full) {
		t.Fatalf("yielded %d, want %d", i, len(full))
	}
	if err := st.Err(); err != nil {
		t.Fatalf("err after exhaustion: %v", err)
	}
}

// settle waits for the goroutine count to fall to at most n.
func settle(t *testing.T, n int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > n; i++ {
		if i > 100 {
			t.Fatalf("goroutines: %d, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCancelWithoutClose: cancelling a stream's context alone
// reclaims its worker pool — the consumer calls neither Next nor Close.
// The first batch derives on the consumer's goroutine, so the stream is
// cancelled once the pool serves it: after the first molecule of the
// second batch.
func TestStreamCancelWithoutClose(t *testing.T) {
	db, mt := keyedDB(t, 4096, 0)
	before := runtime.NumGoroutine()
	p := mustCompile(t, db, mt, nil, nil, 4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := p.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for range core.DefaultStreamBatch + 1 {
		if m, err := st.Next(); err != nil || m == nil {
			t.Fatalf("molecule: %v, %v", m, err)
		}
	}
	if runtime.NumGoroutine() <= before {
		t.Fatal("no worker pool serves the second batch")
	}
	cancel()
	settle(t, before)
	if err := st.Close(); err != nil {
		t.Fatalf("close after cancel: %v", err)
	}
}

// TestStreamOneBatchNoGoroutine: a statement that ends in its first
// batch derives it on the consumer's goroutine — the goroutine count is
// the same across every Next call.
func TestStreamOneBatchNoGoroutine(t *testing.T) {
	db, desc := lookupDB(t)
	p, err := plan.Compile(db, desc, intCmp(expr.EQ, "root", "code", 17))
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 4
	before := runtime.NumGoroutine()
	st, err := p.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		m, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("Next call %d: %d goroutines, %d before the stream", i, n, before)
		}
		if m == nil {
			break
		}
	}
	if err := st.Close(); err != nil || p.Out != 1 {
		t.Fatalf("close: %v with %d molecules, want nil with 1", err, p.Out)
	}
}

// TestStreamLookaheadBound pins the memory bound of a stream whose
// consumer stalls: with workers+2 batches in flight past the batches
// handed out, a consumer holding its first batch has made the stream
// derive at most (workers+3)·size molecules, and one holding its second
// at most (workers+4)·size, however long it holds.
func TestStreamLookaheadBound(t *testing.T) {
	db, mt := keyedDB(t, 4096, 0)
	size := core.DefaultStreamBatch
	for _, workers := range []int{1, 2, 4} {
		for held := 1; held <= 2; held++ {
			p := mustCompile(t, db, mt, nil, nil, workers, 0)
			st, err := p.Stream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for range (held-1)*size + 1 {
				if m, err := st.Next(); err != nil || m == nil {
					t.Fatalf("molecule: %v, %v", m, err)
				}
			}
			time.Sleep(20 * time.Millisecond)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if bound := (held + workers + 2) * size; p.Derived > bound {
				t.Fatalf("workers=%d, batch %d held: derived %d molecules, want at most %d", workers, held, p.Derived, bound)
			}
		}
	}
}
