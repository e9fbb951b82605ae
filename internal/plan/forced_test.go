package plan_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/plan"
)

// accessPredicate builds a random conjunction of equality and range
// comparisons on the v attribute of random types — root and interior, so
// with indexes in place every row of the access-path table finds
// candidates — plus, sometimes, an OR-shaped pushdown and a residual-only
// conjunct.
func accessPredicate(rng *rand.Rand, types []string) expr.Expr {
	ops := []expr.CmpOp{expr.EQ, expr.EQ, expr.LT, expr.LE, expr.GT, expr.GE}
	cmp := func() expr.Expr {
		return intCmp(ops[rng.Intn(len(ops))], types[rng.Intn(len(types))], "v", int64(rng.Intn(4)))
	}
	pred := cmp()
	for n := rng.Intn(4); n > 0; n-- {
		pred = expr.And{L: pred, R: cmp()}
	}
	if len(types) > 2 && rng.Intn(4) == 0 {
		// Equalities on two different interior types: the intersection row.
		pred = expr.And{L: pred, R: expr.And{
			L: intCmp(expr.EQ, types[1], "v", int64(rng.Intn(4))),
			R: intCmp(expr.EQ, types[2], "v", int64(rng.Intn(4)))}}
	}
	if rng.Intn(3) == 0 {
		t := types[1+rng.Intn(len(types)-1)]
		pred = expr.And{L: pred, R: expr.Or{L: intCmp(expr.EQ, t, "v", int64(rng.Intn(4))), R: intCmp(expr.EQ, t, "v", int64(rng.Intn(4)))}}
	}
	if rng.Intn(3) == 0 {
		pred = expr.And{L: pred, R: expr.Cmp{Op: expr.GE, L: expr.CountOf{Type: types[1]}, R: expr.Lit(model.Int(int64(rng.Intn(3))))}}
	}
	return pred
}

// runActuals are the execution actuals that must not depend on the
// worker count.
type runActuals struct {
	roots, derived, out int
	cuts, evals, passed []int
}

func actualsOf(p *plan.Plan) runActuals {
	a := runActuals{roots: p.Access.ActRoots, derived: p.Derived, out: p.Out}
	for _, pd := range p.Pushdowns {
		a.cuts = append(a.cuts, pd.Cut)
	}
	for _, r := range p.Residuals {
		a.evals = append(a.evals, r.Evals)
		a.passed = append(a.passed, r.Passed)
	}
	return a
}

func (a runActuals) equal(b runActuals) bool {
	return a.roots == b.roots && a.derived == b.derived && a.out == b.out &&
		slices.Equal(a.cuts, b.cuts) && slices.Equal(a.evals, b.evals) && slices.Equal(a.passed, b.passed)
}

// TestForcedPathParityRandom is the access-path table's property: over
// random 2–4-type structures with shared and multi-parent atoms, random
// index and statistics regimes, random conjunctive predicates and an
// optional ORDER BY / LIMIT, EVERY candidate the table enumerates —
// forced in place of the cheapest — delivers exactly the naive oracle
// (Deriver.Walk + expr.EvalPredicate, then sort and truncate) for 1, 3
// and 8 workers: element-wise, since every path yields root-ID order when
// no ORDER BY asks otherwise. Complete runs additionally report the same
// roots/derived/out, per-pushdown Cut and per-residual Evals/Passed for
// every worker count, and the unforced compile installs the cheapest
// candidate. Run with -quickchecks 1000 for the long form.
func TestForcedPathParityRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, types, edges, err := layeredDB(rng, 1+rng.Intn(3), 4+rng.Intn(9))
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		for _, tn := range types {
			if rng.Intn(3) > 0 {
				if err := db.CreateIndex(tn, "v"); err != nil {
					t.Logf("index: %v", err)
					return false
				}
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
		pred := accessPredicate(rng, types)
		if err := expr.Check(pred, core.Scope{DB: db, Desc: mt.Desc()}); err != nil {
			t.Logf("check: %v", err)
			return false
		}
		var order *plan.OrderBy
		if rng.Intn(2) == 0 {
			order = &plan.OrderBy{Attr: []string{"v", "w"}[rng.Intn(2)], Desc: rng.Intn(2) == 0}
		}
		limit := 0
		if rng.Intn(2) == 0 {
			limit = 1 + rng.Intn(6)
		}

		want := naiveRestrict(t, mt, pred)
		if order != nil {
			want = orderedReference(t, db, types[0], want, *order, limit)
		} else if limit > 0 && len(want) > limit {
			want = want[:limit]
		}

		contested, err := plan.CompileOrdered(db, mt.Desc(), pred, order)
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		if !contested.Alternatives[0].Chosen {
			t.Logf("seed %d: unforced compile did not install the cheapest candidate:\n%s", seed, contested.Render())
			return false
		}
		for _, alt := range contested.Alternatives {
			var base runActuals
			for _, workers := range []int{1, 3, 8} {
				p, err := plan.CompileForced(db, mt.Desc(), pred, order, alt.Label)
				if err != nil {
					t.Logf("seed %d: force %q: %v", seed, alt.Label, err)
					return false
				}
				p.Workers, p.Limit = workers, limit
				got, err := p.Execute()
				if err != nil {
					t.Logf("seed %d: %q workers=%d: %v", seed, alt.Label, workers, err)
					return false
				}
				if len(got) != len(want) {
					t.Logf("seed %d: %q workers=%d: %d molecules, oracle %d (pred %s)\n%s",
						seed, alt.Label, workers, len(got), len(want), pred, p.Render())
					return false
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Logf("seed %d: %q workers=%d: molecule %d differs from the oracle (pred %s)\n%s",
							seed, alt.Label, workers, i, pred, p.Render())
						return false
					}
				}
				if limit > 0 {
					continue // truncated and bound-pruned runs stop where timing says
				}
				if a := actualsOf(p); workers == 1 {
					base = a
				} else if !a.equal(base) {
					t.Logf("seed %d: %q workers=%d: actuals %+v, sequential %+v", seed, alt.Label, workers, a, base)
					return false
				}
			}
		}
		if _, err := plan.CompileForced(db, mt.Desc(), pred, order, "no such path"); err == nil {
			t.Logf("seed %d: forcing an unknown label must fail", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
