package plan_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
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

// collectStream drains a stream via Next, stopping after max molecules
// when max >= 0 (then closes), and returns what it received.
func collectStream(t *testing.T, st *plan.Stream, max int) core.MoleculeSet {
	t.Helper()
	var got core.MoleculeSet
	for max < 0 || len(got) < max {
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

// prefixOf checks that got is exactly want[:len(got)].
func prefixOf(t *testing.T, seed int64, label string, got, want core.MoleculeSet) bool {
	t.Helper()
	if len(got) > len(want) {
		t.Logf("seed %d %s: got %d molecules, full result only has %d", seed, label, len(got), len(want))
		return false
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Logf("seed %d %s: molecule %d differs from the materialized order", seed, label, i)
			return false
		}
	}
	return true
}

// TestStreamPrefixParityRandom is the streaming-execution property: over
// random structures, predicates, statistics regimes and worker counts,
// a Stream consumed up to any point — a LIMIT in the plan, or an early
// Close at a random cancellation point — yields an exact prefix of
// Execute's deterministic root-aligned result order, and a fully
// drained Stream yields exactly that result.
func TestStreamPrefixParityRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 2 + rng.Intn(2)
		db, types, edges, err := layeredDB(rng, depth, 4+rng.Intn(5))
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		if rng.Intn(2) == 0 {
			if err := db.CreateIndex(types[0], "v"); err != nil {
				t.Logf("index: %v", err)
				return false
			}
		}
		if rng.Intn(2) == 0 {
			if _, err := db.Analyze(); err != nil {
				t.Logf("analyze: %v", err)
				return false
			}
		}
		mt, err := core.Define(db, "random", types, edges)
		if err != nil {
			t.Logf("define: %v", err)
			return false
		}
		defer plan.Release(db)
		pred := randomPredicate(rng, types)
		if err := expr.Check(pred, core.Scope{DB: db, Desc: mt.Desc()}); err != nil {
			t.Logf("check: %v", err)
			return false
		}

		compile := func(workers, limit int) *plan.Plan {
			p, err := plan.Compile(db, mt.Desc(), pred)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			p.Workers, p.Limit = workers, limit
			return p
		}

		full, err := compile(1, 0).Execute()
		if err != nil {
			t.Logf("execute: %v", err)
			return false
		}

		for _, workers := range []int{1, 2, 4} {
			// Drained stream ≡ materialized result.
			st, err := compile(workers, 0).Stream(context.Background())
			if err != nil {
				t.Logf("stream: %v", err)
				return false
			}
			if got := collectStream(t, st, -1); len(got) != len(full) || !prefixOf(t, seed, "drain", got, full) {
				return false
			}

			// LIMIT k ≡ the first k molecules of the materialized order
			// (k = 0 means unlimited, so the draw starts at 1).
			k := 1 + rng.Intn(len(full)+2)
			st, err = compile(workers, k).Stream(context.Background())
			if err != nil {
				t.Logf("stream: %v", err)
				return false
			}
			got := collectStream(t, st, -1)
			want := min(k, len(full))
			if len(got) != want || !prefixOf(t, seed, "limit", got, full) {
				t.Logf("seed %d workers %d: LIMIT %d delivered %d, want %d", seed, workers, k, len(got), want)
				return false
			}

			// Close at a random cancellation point ≡ an exact prefix.
			j := rng.Intn(len(full) + 1)
			st, err = compile(workers, 0).Stream(context.Background())
			if err != nil {
				t.Logf("stream: %v", err)
				return false
			}
			if got := collectStream(t, st, j); len(got) != j || !prefixOf(t, seed, "cancel", got, full) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
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
