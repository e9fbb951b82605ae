package plan_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mad/internal/core"
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
	defer plan.Release(db)
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
	defer plan.Release(db)
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
