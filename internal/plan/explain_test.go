package plan_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain/*.golden from the current Render output")

func intCmp(op expr.CmpOp, typeName, attr string, v int64) expr.Expr {
	return expr.Cmp{Op: op, L: expr.Attr{Type: typeName, Name: attr}, R: expr.Lit(model.Int(v))}
}

// TestExplainGolden pins Plan.Render byte for byte, estimate-only and
// executed, for one statement per access path plus the top-K and sort
// variants, a contest misled by the uniform estimate, and three over a
// closure description. Regenerate with -update only when an EXPLAIN
// change is intended.
func TestExplainGolden(t *testing.T) {
	stepsVsMachines := expr.Cmp{Op: expr.GE, L: expr.CountOf{Type: "step"}, R: expr.CountOf{Type: "machine"}}
	and := func(cs ...expr.Expr) expr.Expr {
		pred := cs[0]
		for _, c := range cs[1:] {
			pred = expr.And{L: pred, R: c}
		}
		return pred
	}

	plain, plainMT := jobShopDB(t, 8)
	indexed, indexedMT := jobShopDB(t, 8)
	if err := indexed.CreateIndex("job", "id"); err != nil {
		t.Fatal(err)
	}
	analyzed, analyzedMT := jobShopDB(t, 8)
	if err := analyzed.CreateIndex("job", "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := analyzed.Analyze(); err != nil {
		t.Fatal(err)
	}

	asm, asmMT := assemblyDB(t, 256)
	drift, driftMT := driftDB(t)

	// Closure descriptions: the same table, the semi-naive derive line.
	closureMT := func(db *storage.Database, desc *core.Desc) *core.MoleculeType {
		mt, err := core.DefineDesc(db, "explosion", desc)
		if err != nil {
			t.Fatal(err)
		}
		return mt
	}
	forest, forestDesc := chainForest(t, 32, 4)
	forestIdx, forestIdxDesc := chainForest(t, 32, 4)
	if err := forestIdx.CreateIndex("part", "pn"); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		db    *storage.Database
		mt    *core.MoleculeType
		pred  expr.Expr
		order *plan.OrderBy
		limit int
	}{
		{name: "full-scan", db: plain, mt: plainMT,
			pred: and(intCmp(expr.GE, "job", "id", 10), intCmp(expr.GE, "step", "seq", 12), stepsVsMachines)},
		{name: "root-index-eq", db: indexed, mt: indexedMT,
			pred: and(intCmp(expr.EQ, "job", "id", 43), intCmp(expr.EQ, "machine", "site", 3))},
		{name: "root-index-range", db: indexed, mt: indexedMT,
			pred: and(intCmp(expr.GE, "job", "id", 8), intCmp(expr.LT, "job", "id", 24), intCmp(expr.GE, "step", "seq", 12))},
		{name: "root-index-range-histogram", db: analyzed, mt: analyzedMT,
			pred: and(intCmp(expr.GT, "job", "id", 40), intCmp(expr.GE, "step", "seq", 15))},
		{name: "interior-index-eq", db: plain, mt: plainMT,
			pred: and(intCmp(expr.EQ, "machine", "site", 3), intCmp(expr.LT, "job", "id", 32))},
		{name: "interior-index-range", db: plain, mt: plainMT,
			pred: intCmp(expr.GT, "machine", "site", 6)},
		{name: "intersect", db: plain, mt: plainMT,
			pred: and(intCmp(expr.EQ, "machine", "site", 3), intCmp(expr.EQ, "tool", "grade", 5))},
		{name: "ordered-scan", db: indexed, mt: indexedMT,
			pred: intCmp(expr.GE, "step", "seq", 12), order: &plan.OrderBy{Attr: "id", Desc: true}, limit: 5},
		{name: "order-by-index-eq", db: indexed, mt: indexedMT,
			pred: intCmp(expr.EQ, "job", "id", 7), order: &plan.OrderBy{Attr: "id"}},
		{name: "top-k", db: asm, mt: asmMT,
			order: &plan.OrderBy{Attr: "code", Desc: true}, limit: 4},
		{name: "sort", db: plain, mt: plainMT,
			pred: intCmp(expr.EQ, "tool", "grade", 2), order: &plan.OrderBy{Attr: "id"}},
		{name: "closure-scan", db: forest, mt: closureMT(forest, forestDesc),
			pred: intCmp(expr.GE, "part", "pn", 100)},
		{name: "closure-index-eq", db: forestIdx, mt: closureMT(forestIdx, forestIdxDesc),
			pred: intCmp(expr.EQ, "part", "pn", 16)},
		{name: "closure-order-topk", db: forest, mt: closureMT(forest, forestDesc),
			order: &plan.OrderBy{Attr: "pn"}, limit: 4},
		{name: "observed-first", db: plain, mt: plainMT,
			pred: and(intCmp(expr.EQ, "machine", "site", 3), stepsVsMachines)},
		{name: "drift-cold", db: drift, mt: driftMT,
			pred: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "item", Name: "tag"}, R: expr.Lit(model.Str("hot"))}},
		{name: "top-k-first", db: asm, mt: asmMT,
			order: &plan.OrderBy{Attr: "code"}, limit: 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := plan.CompileOrdered(c.db, c.mt.Desc(), c.pred, c.order)
			if err != nil {
				t.Fatal(err)
			}
			// One worker keeps the top-K bound-cut count deterministic;
			// every other actual is worker-count independent.
			p.Workers, p.Limit = 1, c.limit
			checkGolden(t, c.name, p)
		})
	}
}

// checkGolden renders p before and after executing it and compares both
// renderings with testdata/explain/<name>.golden.
func checkGolden(t *testing.T, name string, p *plan.Plan) {
	t.Helper()
	got := "-- estimate --\n" + p.Render()
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	got += "-- executed --\n" + p.Render()

	path := filepath.Join("testdata", "explain", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN of %s drifted from %s\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}
