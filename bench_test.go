// Repository-level benchmarks: one per experiment of DESIGN.md §4 (the
// madbench command prints the same series as formatted tables). Workloads
// are deterministic, so -benchmem comparisons are stable.
package mad_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"mad"
	"mad/internal/bom"
	"mad/internal/codec"
	"mad/internal/core"
	"mad/internal/er"
	"mad/internal/experiments"
	"mad/internal/expr"
	"mad/internal/geo"
	"mad/internal/mql"
	"mad/internal/nf2"
	"mad/internal/plan"
	"mad/internal/prima"
	"mad/internal/recursive"
	"mad/internal/rel"
)

// mtState defines the Fig. 2 mt_state structure on any geo database.
func mtState(b *testing.B, db *mad.Database) *mad.MoleculeType {
	b.Helper()
	mt, err := mad.Define(db, "", []string{"state", "area", "edge", "point"},
		[]mad.DirectedLink{
			{Link: "state-area", From: "state", To: "area"},
			{Link: "area-edge", From: "area", To: "edge"},
			{Link: "edge-point", From: "edge", To: "point"},
		})
	if err != nil {
		b.Fatal(err)
	}
	return mt
}

func synDB(b *testing.B, states, sharing int) *geo.Synth {
	b.Helper()
	syn, err := geo.BuildSynthetic(geo.Config{
		States: states, EdgesPerArea: 3, Sharing: sharing, Rivers: 4, RiverEdges: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return syn
}

// BenchmarkF1SchemaMapping measures both directions of the Fig. 1 mapping.
func BenchmarkF1SchemaMapping(b *testing.B) {
	d := er.Fig1Diagram()
	b.Run("er_to_mad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := d.ToMAD(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("er_to_relational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := d.ToRelational(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkF2MoleculeDerivation derives the two Fig. 2 molecule types over
// the Brazil sample.
func BenchmarkF2MoleculeDerivation(b *testing.B) {
	s, err := geo.BuildSample()
	if err != nil {
		b.Fatal(err)
	}
	stateMT := mtState(b, s.DB)
	pnMT, err := mad.Define(s.DB, "", []string{"point", "edge", "area", "state", "net", "river"},
		[]mad.DirectedLink{
			{Link: "edge-point", From: "point", To: "edge"},
			{Link: "area-edge", From: "edge", To: "area"},
			{Link: "state-area", From: "area", To: "state"},
			{Link: "net-edge", From: "edge", To: "net"},
			{Link: "river-net", From: "net", To: "river"},
		})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mt_state", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stateMT.Derive(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("point_neighborhood_pn", func(b *testing.B) {
		dv, err := pnMT.Deriver()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dv.DeriveFor(s.PN); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQ1 runs the first Chapter-4 query through MQL and through the
// algebra directly.
func BenchmarkQ1(b *testing.B) {
	s, err := geo.BuildSample()
	if err != nil {
		b.Fatal(err)
	}
	sess := mql.NewSession(s.DB)
	if _, err := sess.Exec("SELECT ALL FROM mt_state(state-area-edge-point);"); err != nil {
		b.Fatal(err)
	}
	b.Run("mql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec("SELECT ALL FROM mt_state;"); err != nil {
				b.Fatal(err)
			}
		}
	})
	mt := mtState(b, s.DB)
	b.Run("algebra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mt.Derive(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQ2 runs the restricted point-neighborhood query, with and
// without the root index.
func BenchmarkQ2(b *testing.B) {
	const q = "SELECT ALL FROM point-edge-(area-state, net-river) WHERE point.name = 'pn';"
	b.Run("scan", func(b *testing.B) {
		s, err := geo.BuildSample()
		if err != nil {
			b.Fatal(err)
		}
		sess := mql.NewSession(s.DB)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		s, err := geo.BuildSample()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.DB.CreateIndex("point", "name"); err != nil {
			b.Fatal(err)
		}
		sess := mql.NewSession(s.DB)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP1MadVsRelational is the P1 series: molecule derivation against
// the relational auxiliary-relation join pipeline.
func BenchmarkP1MadVsRelational(b *testing.B) {
	for _, states := range []int{64, 256, 1024} {
		syn := synDB(b, states, 2)
		rdb, err := rel.ImportMAD(syn.DB)
		if err != nil {
			b.Fatal(err)
		}
		mt := mtState(b, syn.DB)
		b.Run(fmt.Sprintf("states=%d/mad_derive", states), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mt.Derive(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("states=%d/relational_joins", states), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.MtStateRelationalJoin(rdb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP2SharingVsNF2 measures molecule materialization cost under
// growing sharing, MAD-shared vs NF²-duplicated.
func BenchmarkP2SharingVsNF2(b *testing.B) {
	for _, sharing := range []int{1, 4, 8} {
		syn, err := geo.BuildSynthetic(geo.Config{
			States: 32, EdgesPerArea: 2, Sharing: sharing, Rivers: 2, RiverEdges: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		mt := mtState(b, syn.DB)
		set, err := mt.Derive()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("sharing=%d/mad_derive", sharing), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mt.Derive(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sharing=%d/nf2_materialize", sharing), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nf2.FromMolecules(syn.DB, set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP3DynamicDefinition derives five different molecule types from
// one database occurrence.
func BenchmarkP3DynamicDefinition(b *testing.B) {
	syn := synDB(b, 128, 2)
	structures := map[string]struct {
		types []string
		edges []mad.DirectedLink
	}{
		"mt_state": {[]string{"state", "area", "edge", "point"}, []mad.DirectedLink{
			{Link: "state-area", From: "state", To: "area"},
			{Link: "area-edge", From: "area", To: "edge"},
			{Link: "edge-point", From: "edge", To: "point"},
		}},
		"mt_river": {[]string{"river", "net", "edge", "point"}, []mad.DirectedLink{
			{Link: "river-net", From: "river", To: "net"},
			{Link: "net-edge", From: "net", To: "edge"},
			{Link: "edge-point", From: "edge", To: "point"},
		}},
		"edge_neighborhood": {[]string{"edge", "point", "area", "net"}, []mad.DirectedLink{
			{Link: "edge-point", From: "edge", To: "point"},
			{Link: "area-edge", From: "edge", To: "area"},
			{Link: "net-edge", From: "edge", To: "net"},
		}},
	}
	for name, st := range structures {
		mt, err := mad.Define(syn.DB, "", st.types, st.edges)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mt.Derive(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP4PartsExplosion compares adjacency fixpoint vs relational
// self-join closure on the BOM workload.
func BenchmarkP4PartsExplosion(b *testing.B) {
	for _, depth := range []int{6, 8, 10} {
		bm, err := bom.Build(bom.Config{Depth: depth, Branch: 3, Share: 1})
		if err != nil {
			b.Fatal(err)
		}
		rt, err := recursive.Define(bm.DB, "", "parts", "composition", false, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d/mad_fixpoint", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rt.Closure(bm.Root); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("depth=%d/self_join", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := recursive.NaiveClosure(bm.DB, "composition", bm.Root, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP5OperatorPipelines measures a Σ→Σ→Π pipeline with propagation
// (each iteration rebuilds the sample since propagation enlarges it).
func BenchmarkP5OperatorPipelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := geo.BuildSample()
		if err != nil {
			b.Fatal(err)
		}
		mt := mtState(b, s.DB)
		b.StartTimer()
		step1, err := core.Restrict(mt, expr.Cmp{Op: expr.GT,
			L: expr.Attr{Type: "state", Name: "hectare"}, R: expr.Lit(mad.Float(100))}, "", nil)
		if err != nil {
			b.Fatal(err)
		}
		root := step1.Desc().Root()
		step2, err := core.Restrict(step1, expr.Cmp{Op: expr.LT,
			L: expr.Attr{Type: root, Name: "hectare"}, R: expr.Lit(mad.Float(950))}, "", nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Project(step2, core.Projection{Keep: step2.Desc().Types()[:2]}, "", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP6TwoLayer measures the instrumented two-layer engine.
func BenchmarkP6TwoLayer(b *testing.B) {
	syn := synDB(b, 256, 2)
	e := prima.New(syn.DB)
	if _, _, err := e.RunMQL("SELECT ALL FROM mt_state(state-area-edge-point);"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunMQL("SELECT ALL FROM mt_state;"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP8PlannerPushdown compares naive Σ (derive everything, then
// qualify) with the compiled plan on the three planner access shapes:
// indexed root equality, unindexed root predicate (filtered scan), and a
// mid-structure conjunct exploitable only by pushdown.
func BenchmarkP8PlannerPushdown(b *testing.B) {
	syn := synDB(b, 256, 2)
	if err := syn.DB.CreateIndex("state", "abbrev"); err != nil {
		b.Fatal(err)
	}
	mt := mtState(b, syn.DB)
	preds := map[string]mad.Expr{
		"indexed_eq": expr.Cmp{Op: expr.EQ,
			L: expr.Attr{Type: "state", Name: "abbrev"}, R: expr.Lit(mad.Str("S7"))},
		"root_range": expr.Cmp{Op: expr.LT,
			L: expr.Attr{Type: "state", Name: "hectare"}, R: expr.Lit(mad.Float(120))},
		"mid_structure": expr.Cmp{Op: expr.EQ,
			L: expr.Attr{Type: "edge", Name: "tag"}, R: expr.Lit(mad.Str("be3"))},
	}
	for name, pred := range preds {
		b.Run(name+"/naive", func(b *testing.B) {
			dv, err := mt.Deriver()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				var evalErr error
				dv.Walk(func(m *core.Molecule) bool {
					keep, err := expr.EvalPredicate(pred, core.Binding{DB: syn.DB, M: m})
					if err != nil {
						evalErr = err
						return false
					}
					if keep {
						n++
					}
					return true
				})
				if evalErr != nil {
					b.Fatal(evalErr)
				}
			}
		})
		b.Run(name+"/planned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := plan.Compile(syn.DB, mt.Desc(), pred)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// liveHeap forces a collection and returns the live heap — the figure
// the streaming benchmark tracks as "peak-B/op" (B/op from -benchmem
// counts total allocation, which streaming cannot reduce: every
// molecule is built either way; what streaming caps is how many of them
// are alive at once).
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkP12StreamingMemory compares the peak live heap of consuming a
// large result incrementally (Plan.Stream, molecules dropped as they are
// read) against materializing it (Plan.Execute holds the whole set):
// the streamed run's peak stays bounded by the executor's in-flight
// batches while the materialized peak grows with the result. The
// "peak-B/op" metric lands in the bench-trajectory artifact via
// scripts/bench.sh, so the trajectory tracks the memory cap alongside
// ns/op.
func BenchmarkP12StreamingMemory(b *testing.B) {
	db, mt, err := experiments.BuildAssembly(4096)
	if err != nil {
		b.Fatal(err)
	}
	defer plan.Release(db)
	b.Run("materialized", func(b *testing.B) {
		var peak int64
		for i := 0; i < b.N; i++ {
			p, err := plan.Compile(db, mt.Desc(), nil)
			if err != nil {
				b.Fatal(err)
			}
			base := liveHeap()
			set, err := p.Execute()
			if err != nil {
				b.Fatal(err)
			}
			if g := liveHeap() - base; g > peak {
				peak = g
			}
			runtime.KeepAlive(set)
		}
		b.ReportMetric(float64(peak), "peak-B/op")
	})
	b.Run("streaming", func(b *testing.B) {
		var peak int64
		for i := 0; i < b.N; i++ {
			p, err := plan.Compile(db, mt.Desc(), nil)
			if err != nil {
				b.Fatal(err)
			}
			base := liveHeap()
			st, err := p.Stream(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				m, err := st.Next()
				if err != nil {
					b.Fatal(err)
				}
				if m == nil {
					break
				}
				n++
				// Sample the live heap a few times mid-stream; consumed
				// molecules are garbage and must not accumulate.
				if n%1024 == 0 {
					if g := liveHeap() - base; g > peak {
						peak = g
					}
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(peak), "peak-B/op")
	})
}

// BenchmarkP15TopKEarlyStop measures the early-terminating ordered
// access path: ORDER BY root attribute LIMIT K with K ≪ N through the
// bounded-heap plan (the heap bound is pushed into the access path, so
// roots that cannot make the top K are cut before their molecule is
// derived) against the sort-everything path that materializes all N.
// Logical work is reported as "atom-fetches/op" next to ns/op — at K=8
// over 4096 assemblies the top-K run must fetch at least 5× fewer atoms,
// and the benchmark fails if it does not.
func BenchmarkP15TopKEarlyStop(b *testing.B) {
	const (
		assemblies = 4096
		k          = 8
	)
	db, mt, err := experiments.BuildAssembly(assemblies)
	if err != nil {
		b.Fatal(err)
	}
	defer plan.Release(db)
	order := plan.OrderBy{Attr: "code", Desc: true}
	// exec runs one ordered query and returns the molecule count.
	exec := func(limit int) (int, error) {
		p, err := plan.CompileOrdered(db, mt.Desc(), nil, &order)
		if err != nil {
			return 0, err
		}
		p.Limit = limit
		st, err := p.Stream(context.Background())
		if err != nil {
			return 0, err
		}
		n := 0
		for {
			m, err := st.Next()
			if err != nil {
				st.Close()
				return 0, err
			}
			if m == nil {
				break
			}
			n++
		}
		return n, st.Close()
	}
	run := func(b *testing.B, limit, want int) {
		before := db.Stats().Snapshot()
		for i := 0; i < b.N; i++ {
			n, err := exec(limit)
			if err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("drained %d molecules, want %d", n, want)
			}
		}
		diff := db.Stats().Snapshot().Sub(before)
		b.ReportMetric(float64(diff.AtomsFetched)/float64(b.N), "atom-fetches/op")
	}
	// The ≥5× acceptance gate, checked on logical work alone so it holds
	// at smoke benchtime (1x) as well as trend-quality runs.
	fetches := func(limit int) int64 {
		before := db.Stats().Snapshot()
		if _, err := exec(limit); err != nil {
			b.Fatal(err)
		}
		return db.Stats().Snapshot().Sub(before).AtomsFetched
	}
	full, topk := fetches(0), fetches(k)
	if topk*5 > full {
		b.Fatalf("top-K fetched %d atoms vs %d for the full sort — want ≥5× fewer", topk, full)
	}
	b.Run("sort_all", func(b *testing.B) { run(b, 0, assemblies) })
	b.Run(fmt.Sprintf("topk_limit=%d", k), func(b *testing.B) { run(b, k, k) })
}

// BenchmarkP16IndexIntersection measures the multi-entry access path: two
// indexed equality conjuncts on different interior atom types, executed
// through the best single interior-index entry (all of that entry's
// candidates are derived; the other conjunct rejects molecules via its
// pushdown hook) versus the sorted-merge index intersection (both entries
// climb to candidate roots, the sets intersect, and only the survivors
// are derived). Logical work is reported as "atom-fetches/op" — over 4096
// jobs on a 64×64 site/grade grid the intersection must fetch at least 3×
// fewer atoms than the best single entry, and the benchmark fails if it
// does not.
func BenchmarkP16IndexIntersection(b *testing.B) {
	const jobs = 4096
	db, mt, err := experiments.BuildJobShop(jobs)
	if err != nil {
		b.Fatal(err)
	}
	defer plan.Release(db)
	pred := experiments.JobShopPred(7, 3)
	// exec compiles the contested plan — or, forced, the best candidate
	// of its contest that is not the intersection — and returns the
	// molecule count.
	exec := func(intersect bool) (int, error) {
		p, err := plan.Compile(db, mt.Desc(), pred)
		if err != nil {
			return 0, err
		}
		if p.Access.Kind != plan.IndexIntersect {
			return 0, fmt.Errorf("contest picked %v, want index intersection", p.Access.Kind)
		}
		if !intersect {
			if p, err = experiments.CompileBestSingleEntry(db, mt.Desc(), pred, p); err != nil {
				return 0, err
			}
		}
		set, err := p.Execute()
		if err != nil {
			return 0, err
		}
		return len(set), nil
	}
	run := func(b *testing.B, intersect bool) {
		before := db.Stats().Snapshot()
		for i := 0; i < b.N; i++ {
			n, err := exec(intersect)
			if err != nil {
				b.Fatal(err)
			}
			if n != 1 {
				b.Fatalf("delivered %d molecules, want 1", n)
			}
		}
		diff := db.Stats().Snapshot().Sub(before)
		b.ReportMetric(float64(diff.AtomsFetched)/float64(b.N), "atom-fetches/op")
	}
	// The ≥3× acceptance gate, checked on logical work alone so it holds
	// at smoke benchtime (1x) as well as trend-quality runs.
	fetches := func(intersect bool) int64 {
		before := db.Stats().Snapshot()
		if _, err := exec(intersect); err != nil {
			b.Fatal(err)
		}
		return db.Stats().Snapshot().Sub(before).AtomsFetched
	}
	single, intersected := fetches(false), fetches(true)
	if intersected*3 > single {
		b.Fatalf("intersection fetched %d atoms vs %d for the best single entry — want ≥3× fewer", intersected, single)
	}
	b.Run("single_entry", func(b *testing.B) { run(b, false) })
	b.Run("intersect", func(b *testing.B) { run(b, true) })
}

// BenchmarkP17BOMExplosion measures the recursion subsystem on a deep
// reconvergent assembly graph (P17, `madbench -exp P17`): a depth-bounded
// part explosion of one assembly through the indexed fixpoint entry
// against the eager derive-everything-then-filter baseline, plus
// time-to-first-molecule of the streamed full explosion. Both acceptance
// gates run before the sub-benchmarks so a regression fails even at
// smoke benchtime: the indexed entry must fetch ≥5× fewer atoms than the
// eager closure, and the first streamed molecule must arrive before 50%
// of full-materialization wall time.
func BenchmarkP17BOMExplosion(b *testing.B) {
	db, err := experiments.BuildBOM(200)
	if err != nil {
		b.Fatal(err)
	}
	defer plan.Release(db)
	const depth = 4
	pred := experiments.BOMPred(3)

	eager := func() int64 {
		rt, err := recursive.Define(db, "", "parts", "composition", false, depth)
		if err != nil {
			b.Fatal(err)
		}
		before := db.Stats().Snapshot()
		if _, err := rt.Derive(); err != nil {
			b.Fatal(err)
		}
		return db.Stats().Snapshot().Sub(before).AtomsFetched
	}
	desc, err := core.NewClosureDesc(db, "parts", "composition", false, depth)
	if err != nil {
		b.Fatal(err)
	}
	planned := func() int64 {
		fp, err := plan.Compile(db, desc, pred)
		if err != nil {
			b.Fatal(err)
		}
		if fp.Access.Kind != plan.IndexScan {
			b.Fatalf("entry contest picked %v, want indexed entry", fp.Access.Kind)
		}
		before := db.Stats().Snapshot()
		ms, err := fp.Execute()
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) != 1 {
			b.Fatalf("explosion delivered %d molecules, want 1", len(ms))
		}
		return db.Stats().Snapshot().Sub(before).AtomsFetched
	}
	// Gate 1: logical work, stable at any benchtime.
	eagerFetches, plannedFetches := eager(), planned()
	if plannedFetches*5 > eagerFetches {
		b.Fatalf("indexed fixpoint fetched %d atoms vs %d eager — want ≥5× fewer", plannedFetches, eagerFetches)
	}
	// Gate 2: streaming latency — first closure of the full explosion
	// must land before half the full materialization.
	full, err := plan.Compile(db, desc, nil)
	if err != nil {
		b.Fatal(err)
	}
	st, err := full.Stream(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	if _, err := st.Next(); err != nil {
		b.Fatal(err)
	}
	firstAt := time.Since(start)
	for {
		m, err := st.Next()
		if err != nil {
			b.Fatal(err)
		}
		if m == nil {
			break
		}
	}
	totalAt := time.Since(start)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	if firstAt*2 >= totalAt {
		b.Fatalf("first streamed molecule after %v of %v total — want < 50%%", firstAt, totalAt)
	}

	b.Run("eager_full_closure", func(b *testing.B) {
		var fetches int64
		for i := 0; i < b.N; i++ {
			fetches += eager()
		}
		b.ReportMetric(float64(fetches)/float64(b.N), "atom-fetches/op")
	})
	b.Run("indexed_fixpoint", func(b *testing.B) {
		var fetches int64
		for i := 0; i < b.N; i++ {
			fetches += planned()
		}
		b.ReportMetric(float64(fetches)/float64(b.N), "atom-fetches/op")
	})
	b.Run("first_molecule", func(b *testing.B) {
		var wait time.Duration
		for i := 0; i < b.N; i++ {
			st, err := full.Stream(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			if _, err := st.Next(); err != nil {
				b.Fatal(err)
			}
			wait += time.Since(start)
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wait.Nanoseconds())/float64(b.N), "ns-to-first-molecule")
	})
}

// BenchmarkCodecRoundTrip measures snapshot encode/decode of a mid-size
// database.
func BenchmarkCodecRoundTrip(b *testing.B) {
	syn := synDB(b, 256, 2)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := codec.Encode(syn.DB, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP7ParallelDerivation measures derivation speedup over workers.
func BenchmarkP7ParallelDerivation(b *testing.B) {
	syn := synDB(b, 1024, 2)
	mt := mtState(b, syn.DB)
	dv, err := core.NewDeriver(syn.DB, mt.Desc())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var set core.MoleculeSet
				_, err := dv.DeriveStream(context.Background(), dv.RootIDs(), workers, nil,
					func(int) core.FusedWorker { return core.FusedWorker{} },
					func(batch core.MoleculeSet) error { set = append(set, batch...); return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP9SkewedAccessPath measures the histogram win end to end: the
// same skewed-data predicate executed through the plan the uniform
// estimate picks (heavy-hitter index) and through the plan the
// histograms pick (selective index), plus the cost of compiling fresh
// versus through the plan cache.
func BenchmarkP9SkewedAccessPath(b *testing.B) {
	db, mt, err := experiments.BuildSkewed(1000)
	if err != nil {
		b.Fatal(err)
	}
	pred := expr.And{
		L: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "part", Name: "batch"}, R: expr.Lit(mad.Int(0))},
		R: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "part", Name: "grade"}, R: expr.Lit(mad.Str("g3"))},
	}
	uniform, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mad.Analyze(db, "part"); err != nil {
		b.Fatal(err)
	}
	histo, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("execute/uniform_plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := uniform.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute/histogram_plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := histo.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile/fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Compile(db, mt.Desc(), pred); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile/cached", func(b *testing.B) {
		cache := mad.PlanCacheFor(db)
		if _, _, err := cache.Compile(mt.Desc(), pred); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := cache.Compile(mt.Desc(), pred); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP10InteriorEntry measures the symmetric access path end to
// end: the same selective mid-structure predicate executed through the
// filtered root scan (compiled before the interior index existed) and
// through the interior-index entry that climbs the links upward from the
// matching parts. Fewer atom fetches must show up as lower ns/op.
func BenchmarkP10InteriorEntry(b *testing.B) {
	db, mt, err := experiments.BuildAssembly(1024)
	if err != nil {
		b.Fatal(err)
	}
	pred := experiments.FlaggedPartPred()
	rootScan, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("part", "serial"); err != nil {
		b.Fatal(err)
	}
	interior, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		b.Fatal(err)
	}
	if interior.Access.Kind != plan.InteriorIndex {
		b.Fatalf("expected the interior-index entry to win, got %+v", interior.Access)
	}
	b.Run("execute/root_scan_plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rootScan.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute/interior_index_plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := interior.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP13MixedReadWrite measures snapshot isolation's headline
// promise: streaming readers do not stall behind writers. The read_only
// series drains a Plan.Stream cursor over an undisturbed database; the
// mixed series drains the identical cursor while 4 writer goroutines
// continuously commit whole-molecule version bumps through buffered
// transactions. The writers are rate-limited to a steady aggregate load
// (they model an OLTP feed, not a CPU-saturation spin — on a small
// machine an unthrottled spin loop would measure scheduler share, not
// lock interference). Under the old global RWMutex even this modest
// write rate stalled every reader for the duration of each write; under
// MVCC each cursor pins its snapshot and the two series should stay
// within 2x of each other at every worker count.
func BenchmarkP13MixedReadWrite(b *testing.B) {
	const (
		molecules = 1024
		leaves    = 3
		bgWriters = 4
	)
	build := func(b *testing.B) (*mad.Database, *mad.Plan, [][]mad.AtomID) {
		b.Helper()
		db := mad.NewDatabase()
		desc, err := mad.NewAtomDesc(
			mad.AttrDesc{Name: "name", Kind: mad.KString},
			mad.AttrDesc{Name: "v", Kind: mad.KInt},
		)
		if err != nil {
			b.Fatal(err)
		}
		for _, tn := range []string{"root", "leaf"} {
			if _, err := db.DefineAtomType(tn, desc); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := db.DefineLinkType("rl", mad.LinkDesc{SideA: "root", SideB: "leaf"}); err != nil {
			b.Fatal(err)
		}
		mols := make([][]mad.AtomID, molecules)
		for i := range mols {
			ids := make([]mad.AtomID, 0, leaves+1)
			root, err := db.InsertAtom("root", mad.Str(fmt.Sprintf("r%d", i)), mad.Int(0))
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, root)
			for j := 0; j < leaves; j++ {
				leaf, err := db.InsertAtom("leaf", mad.Str(fmt.Sprintf("r%d_l%d", i, j)), mad.Int(0))
				if err != nil {
					b.Fatal(err)
				}
				if err := db.Connect("rl", root, leaf); err != nil {
					b.Fatal(err)
				}
				ids = append(ids, leaf)
			}
			mols[i] = ids
		}
		mt, err := mad.Define(db, "", []string{"root", "leaf"},
			[]mad.DirectedLink{{Link: "rl", From: "root", To: "leaf"}})
		if err != nil {
			b.Fatal(err)
		}
		p, err := mad.CompilePlan(db, mt.Desc(), nil)
		if err != nil {
			b.Fatal(err)
		}
		return db, p, mols
	}
	drain := func(b *testing.B, p *mad.Plan) {
		b.Helper()
		st, err := p.Stream(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			m, err := st.Next()
			if err != nil {
				b.Fatal(err)
			}
			if m == nil {
				break
			}
			n++
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		if n != molecules {
			b.Fatalf("drained %d molecules, want %d", n, molecules)
		}
	}
	for _, workers := range []int{1, 4, 8} {
		db, p, mols := build(b)
		p.Workers = workers
		b.Run(fmt.Sprintf("read_only/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drain(b, p)
			}
		})
		b.Run(fmt.Sprintf("mixed/workers=%d", workers), func(b *testing.B) {
			// Writers partition the molecules, so commits never
			// conflict; each bumps a whole molecule per transaction.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < bgWriters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ver := int64(0)
					tick := time.NewTicker(200 * time.Microsecond)
					defer tick.Stop()
					for i := w; ; i = (i + bgWriters) % molecules {
						select {
						case <-stop:
							return
						case <-tick.C:
						}
						ver++
						txn := mad.Begin(db)
						ids := mols[i]
						if err := txn.UpdateAtom("root", ids[0],
							[]mad.Value{mad.Str(fmt.Sprintf("r%d", i)), mad.Int(ver)}); err != nil {
							txn.Rollback()
							continue
						}
						for j, id := range ids[1:] {
							if err := txn.UpdateAtom("leaf", id,
								[]mad.Value{mad.Str(fmt.Sprintf("r%d_l%d", i, j)), mad.Int(ver)}); err != nil {
								txn.Rollback()
								continue
							}
						}
						txn.Commit()
					}
				}(w)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain(b, p)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			// The writers piled up versions; reclaim them so the next
			// worker count starts from a compact chain.
			db.Vacuum()
		})
	}
}
