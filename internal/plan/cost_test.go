package plan_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/storage"
)

// skewedDB builds the workload the uniform estimate gets wrong: parts
// whose batch attribute is 0 for 90% of the atoms (the rest spread over
// 1..50) and whose grade is uniform over ten values, each part linked to
// two components. Indexes cover both part attributes, so the access-path
// choice is a genuine contest between a heavy-hitter index and a
// selective one.
func skewedDB(t testing.TB, parts int) (*storage.Database, *core.MoleculeType) {
	t.Helper()
	db := storage.NewDatabase()
	partDesc := model.MustDesc(
		model.AttrDesc{Name: "batch", Kind: model.KInt},
		model.AttrDesc{Name: "grade", Kind: model.KString},
	)
	if _, err := db.DefineAtomType("part", partDesc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineAtomType("comp", model.MustDesc(model.AttrDesc{Name: "weight", Kind: model.KFloat})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLinkType("part-comp", model.LinkDesc{SideA: "part", SideB: "comp"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < parts; i++ {
		batch := int64(0)
		if i%10 == 9 {
			batch = int64(1 + rng.Intn(50))
		}
		id, err := db.InsertAtom("part", model.Int(batch), model.Str(fmt.Sprintf("g%d", i%10)))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			cid, err := db.InsertAtom("comp", model.Float(rng.Float64()))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Connect("part-comp", id, cid); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, attr := range []string{"batch", "grade"} {
		if err := db.CreateIndex("part", attr); err != nil {
			t.Fatal(err)
		}
	}
	mt, err := core.Define(db, "skewed", []string{"part", "comp"},
		[]core.DirectedLink{{Link: "part-comp", From: "part", To: "comp"}})
	if err != nil {
		t.Fatal(err)
	}
	return db, mt
}

// skewedPred is "part.batch = 0 AND part.grade = 'g3'": the batch index
// looks cheap under the uniform assumption (51 distinct keys) but
// actually selects 90% of the roots; the grade index honestly selects
// 10%.
func skewedPred() expr.Expr {
	return expr.And{
		L: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "part", Name: "batch"}, R: expr.Lit(model.Int(0))},
		R: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "part", Name: "grade"}, R: expr.Lit(model.Str("g3"))},
	}
}

// TestHistogramFixesAccessPath is the tentpole behavior: on skewed data
// the uniform estimate picks the heavy-hitter index, the histogram
// estimate picks the selective one — and does measurably less work.
func TestHistogramFixesAccessPath(t *testing.T) {
	db, mt := skewedDB(t, 500)
	pred := skewedPred()

	before, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if before.Access.Kind != plan.IndexScan || before.Access.Entries[0].Attr != "batch" {
		t.Fatalf("uniform plan chose %s.%s, want the (mistaken) batch index",
			before.Access.Root, before.Access.Entries[0].Attr)
	}
	if before.Access.EstSource != plan.SrcUniform {
		t.Fatalf("EstSource = %q, want uniform before ANALYZE", before.Access.EstSource)
	}

	if _, err := db.Analyze("part"); err != nil {
		t.Fatal(err)
	}
	after, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if after.Access.Kind != plan.IndexScan || after.Access.Entries[0].Attr != "grade" {
		t.Fatalf("histogram plan chose %s.%s, want the grade index\n%s",
			after.Access.Root, after.Access.Entries[0].Attr, after.Render())
	}
	if after.Access.EstSource != plan.SrcHistogram {
		t.Fatalf("EstSource = %q, want histogram after ANALYZE", after.Access.EstSource)
	}

	db.Stats().Reset()
	setBefore, err := before.Execute()
	if err != nil {
		t.Fatal(err)
	}
	workBefore := db.Stats().Snapshot()
	db.Stats().Reset()
	setAfter, err := after.Execute()
	if err != nil {
		t.Fatal(err)
	}
	workAfter := db.Stats().Snapshot()

	if !sameSets(setBefore, setAfter) {
		t.Fatalf("access paths disagree: %d vs %d molecules", len(setBefore), len(setAfter))
	}
	// Both plans derive the same qualifying molecules, so the saved work
	// shows up in the root candidates fetched and filtered: the batch
	// index feeds 90% of the container through the grade filter, the
	// grade index feeds 10% through the batch filter.
	if workAfter.AtomsFetched >= workBefore.AtomsFetched {
		t.Fatalf("histogram plan fetched %d atoms, uniform %d — no win",
			workAfter.AtomsFetched, workBefore.AtomsFetched)
	}
	// The histogram estimate must be in the right ballpark (±2× of
	// actual), where the uniform estimate was off by an order of
	// magnitude.
	if est, act := after.Access.EstRoots, after.Access.ActRoots; est < act/2 || est > act*2 {
		t.Fatalf("histogram EstRoots %d vs actual %d", est, act)
	}
}

// TestHistogramRangeEstimate checks EstRoots for a selective range
// predicate: with a histogram the range estimate tracks the skew instead
// of assuming the full container, and the selective estimate lets the
// key-bounded index range walk win the contest over the full scan.
func TestHistogramRangeEstimate(t *testing.T) {
	db, mt := skewedDB(t, 500)
	if _, err := db.Analyze("part"); err != nil {
		t.Fatal(err)
	}
	// batch > 0 keeps only the rare 10%.
	pred := expr.Cmp{Op: expr.GT, L: expr.Attr{Type: "part", Name: "batch"}, R: expr.Lit(model.Int(0))}
	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if p.Access.Kind != plan.IndexScan || !p.Access.Entries[0].Ranged {
		t.Fatalf("selective range predicate should pick the index range walk, got %+v", p.Access)
	}
	if p.Access.EstSource != plan.SrcHistogram {
		t.Fatalf("EstSource = %q, want histogram", p.Access.EstSource)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	est, act := p.Access.EstRoots, p.Access.ActRoots
	if est < act/2 || est > act*2 {
		t.Fatalf("range EstRoots %d vs actual %d (histogram should be close)", est, act)
	}
}

// residualPredicate builds a conjunction of 2–4 residual-shaped conjuncts
// (multi-type comparisons, NOT, COUNT) in random syntactic order.
func residualPredicate(rng *rand.Rand, types []string) expr.Expr {
	last := types[len(types)-1]
	choices := []func() expr.Expr{
		func() expr.Expr {
			return expr.Cmp{Op: expr.LE, L: expr.Attr{Type: types[0], Name: "w"}, R: expr.Attr{Type: types[1], Name: "w"}}
		},
		func() expr.Expr {
			return expr.Not{E: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: last, Name: "v"}, R: expr.Lit(model.Int(int64(rng.Intn(4))))}}
		},
		func() expr.Expr {
			return expr.Cmp{Op: expr.GE, L: expr.CountOf{Type: types[1]}, R: expr.Lit(model.Int(int64(rng.Intn(3))))}
		},
		func() expr.Expr {
			return expr.Cmp{Op: expr.GT, L: expr.Attr{Type: last, Name: "w"}, R: expr.Attr{Type: types[0], Name: "w"}}
		},
	}
	pred := choices[rng.Intn(len(choices))]()
	for n := 1 + rng.Intn(3); n > 0; n-- {
		pred = expr.And{L: pred, R: choices[rng.Intn(len(choices))]()}
	}
	return pred
}

// TestResidualOrderEquivalence is the ordering-soundness property: for
// random schemas and random residual-heavy predicates, the cost-ordered
// short-circuit evaluation returns exactly the naive result, and so does
// every random permutation of the residual chain (ordering is purely a
// work optimization).
func TestResidualOrderEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, types, edges, err := layeredDB(rng, 2+rng.Intn(2), 4+rng.Intn(4))
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		mt, err := core.Define(db, "resid", types, edges)
		if err != nil {
			t.Logf("define: %v", err)
			return false
		}
		if rng.Intn(2) == 0 {
			if _, err := db.Analyze(); err != nil {
				t.Logf("analyze: %v", err)
				return false
			}
		}
		pred := residualPredicate(rng, types)
		if err := expr.Check(pred, core.Scope{DB: db, Desc: mt.Desc()}); err != nil {
			t.Logf("check: %v", err)
			return false
		}
		want := naiveRestrict(t, mt, pred)

		p, err := plan.Compile(db, mt.Desc(), pred)
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		if len(p.Residuals) < 2 {
			return true // nothing to permute
		}
		got, err := p.Execute()
		if err != nil {
			t.Logf("execute: %v", err)
			return false
		}
		if !sameSets(got, want) {
			t.Logf("seed %d: ordered residual %d molecules, naive %d\n%s", seed, len(got), len(want), p.Render())
			return false
		}
		// Short-circuit accounting: the first conjunct sees every derived
		// molecule, later conjuncts only the survivors.
		if p.Residuals[0].Evals != p.Derived {
			t.Logf("seed %d: first conjunct evaluated %d of %d derived", seed, p.Residuals[0].Evals, p.Derived)
			return false
		}
		for i := 1; i < len(p.Residuals); i++ {
			if p.Residuals[i].Evals != p.Residuals[i-1].Passed {
				t.Logf("seed %d: chain broken at %d: evals %d, prior passed %d",
					seed, i, p.Residuals[i].Evals, p.Residuals[i-1].Passed)
				return false
			}
		}
		// Any permutation of the chain is result-equivalent.
		rng.Shuffle(len(p.Residuals), func(i, j int) {
			p.Residuals[i], p.Residuals[j] = p.Residuals[j], p.Residuals[i]
		})
		shuffled, err := p.Execute()
		if err != nil {
			t.Logf("shuffled execute: %v", err)
			return false
		}
		if !sameSets(shuffled, want) {
			t.Logf("seed %d: shuffled residual differs (%d vs %d)", seed, len(shuffled), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestResidualOrderPutsSelectiveFirst pins the ordering criterion: a
// cheap, selective conjunct must precede an expensive, unselective one
// regardless of syntactic order.
func TestResidualOrderPutsSelectiveFirst(t *testing.T) {
	db, mt := skewedDB(t, 200)
	if _, err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	// Both conjuncts stay residual (COUNT and NOT never push down). The
	// histogram knows every comp weight is ≥ 0, so NOT(weight >= 0) is
	// estimated near-zero selectivity while the COUNT comparison falls
	// back to the 50% default — the plan must run the NOT first even
	// though source order lists it second.
	weak := expr.Cmp{Op: expr.GE, L: expr.CountOf{Type: "comp"}, R: expr.Lit(model.Int(0))}
	strong := expr.Not{E: expr.Cmp{Op: expr.GE, L: expr.Attr{Type: "comp", Name: "weight"}, R: expr.Lit(model.Float(0))}}
	pred := expr.And{L: weak, R: strong}
	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Residuals) != 2 {
		t.Fatalf("want 2 residual conjuncts, got %+v", p.Residuals)
	}
	if _, ok := p.Residuals[0].Conjunct.(expr.Not); !ok {
		t.Fatalf("selective NOT conjunct must run first, got order %s then %s\n%s",
			p.Residuals[0].Conjunct, p.Residuals[1].Conjunct, p.Render())
	}
}

func TestRenderShowsEstimateSource(t *testing.T) {
	db, mt := skewedDB(t, 100)
	pred := skewedPred()
	p, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Render(), "[uniform]") {
		t.Fatalf("render must label the uniform estimate:\n%s", p.Render())
	}
	if _, err := db.Analyze("part"); err != nil {
		t.Fatal(err)
	}
	p, err = plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Render(), "[histogram]") {
		t.Fatalf("render must label the histogram estimate:\n%s", p.Render())
	}
}

// TestConstantConjunctEstimates: a reference-free conjunct is folded to
// its value — it keeps every candidate or none — and leaves the
// estimate's source as it was: over 2 items, a root filter 1 = 1 enters
// the container's exact 2 roots.
func TestConstantConjunctEstimates(t *testing.T) {
	s := mql.NewSession(storage.NewDatabase())
	if _, err := s.ExecScript("CREATE ATOM TYPE item (code STRING NOT NULL, qty INT); " +
		"INSERT INTO item VALUES ('a', 1); INSERT INTO item VALUES ('b', 2);"); err != nil {
		t.Fatal(err)
	}
	for where, want := range map[string]string{
		"1 = 1":               "est ≈2 roots [container]",
		"2 > 1 AND NOT 1 = 2": "est ≈2 roots [container]",
		"1 = 2":               "est ≈1 roots [container]",
		"1 = 1 AND qty > 1":   "est ≈1 roots [default]",
	} {
		r, err := s.Exec("EXPLAIN SELECT COUNT FROM item WHERE " + where + ";")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(r.Message, want) {
			t.Errorf("WHERE %s: want %q in\n%s", where, want, r.Message)
		}
	}
}
