package experiments

import (
	"fmt"
	"io"
	"strings"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/storage"
)

// BuildJobShop constructs the P16 workload (exported for the repository-
// level benchmarks): a job-shop structure where every "job" root links to
// one "machine" (site = i mod 64, indexed), one "tool" (grade =
// (i/64) mod 64, indexed) and 16 "step" atoms. Each indexed equality
// alone is mildly selective — site matches ~N/64 jobs, grade ~64 — but
// their conjunction selects exactly one. Climbing each entry separately
// and intersecting the candidate-root sets before derivation touches a
// fraction of what the best single entry derives.
func BuildJobShop(jobs int) (*storage.Database, *core.MoleculeType, error) {
	db := storage.NewDatabase()
	for _, at := range []struct {
		name string
		desc *model.Desc
	}{
		{"job", model.MustDesc(model.AttrDesc{Name: "id", Kind: model.KInt})},
		{"machine", model.MustDesc(model.AttrDesc{Name: "site", Kind: model.KInt})},
		{"tool", model.MustDesc(model.AttrDesc{Name: "grade", Kind: model.KInt})},
		{"step", model.MustDesc(model.AttrDesc{Name: "seq", Kind: model.KInt})},
	} {
		if _, err := db.DefineAtomType(at.name, at.desc); err != nil {
			return nil, nil, err
		}
	}
	for _, lt := range []struct{ name, a, b string }{
		{"job-machine", "job", "machine"},
		{"job-tool", "job", "tool"},
		{"job-step", "job", "step"},
	} {
		if _, err := db.DefineLinkType(lt.name, model.LinkDesc{SideA: lt.a, SideB: lt.b}); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < jobs; i++ {
		jid, err := db.InsertAtom("job", model.Int(int64(i)))
		if err != nil {
			return nil, nil, err
		}
		mid, err := db.InsertAtom("machine", model.Int(int64(i%64)))
		if err != nil {
			return nil, nil, err
		}
		tid, err := db.InsertAtom("tool", model.Int(int64((i/64)%64)))
		if err != nil {
			return nil, nil, err
		}
		if err := db.Connect("job-machine", jid, mid); err != nil {
			return nil, nil, err
		}
		if err := db.Connect("job-tool", jid, tid); err != nil {
			return nil, nil, err
		}
		for k := 0; k < 16; k++ {
			sid, err := db.InsertAtom("step", model.Int(int64(k)))
			if err != nil {
				return nil, nil, err
			}
			if err := db.Connect("job-step", jid, sid); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, idx := range [][2]string{{"machine", "site"}, {"tool", "grade"}} {
		if err := db.CreateIndex(idx[0], idx[1]); err != nil {
			return nil, nil, err
		}
	}
	mt, err := core.Define(db, "jobshop_p16", []string{"job", "machine", "tool", "step"},
		[]core.DirectedLink{
			{Link: "job-machine", From: "job", To: "machine"},
			{Link: "job-tool", From: "job", To: "tool"},
			{Link: "job-step", From: "job", To: "step"},
		})
	if err != nil {
		return nil, nil, err
	}
	return db, mt, nil
}

// JobShopPred is the P16 predicate: indexed equalities on two different
// interior types — machine.site = site AND tool.grade = grade.
func JobShopPred(site, grade int64) expr.Expr {
	return expr.And{
		L: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "machine", Name: "site"}, R: expr.Lit(model.Int(site))},
		R: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "tool", Name: "grade"}, R: expr.Lit(model.Int(grade))},
	}
}

// CompileBestSingleEntry forces the cheapest candidate of contested's
// access-path contest that is not the index intersection — the P16
// baseline: what the planner would run without the composed path.
func CompileBestSingleEntry(db *storage.Database, desc *core.Desc, pred expr.Expr, contested *plan.Plan) (*plan.Plan, error) {
	for _, alt := range contested.Alternatives { // cheapest first
		if !strings.HasPrefix(alt.Label, "intersect[") {
			return plan.CompileForced(db, desc, pred, nil, alt.Label)
		}
	}
	return nil, fmt.Errorf("P16: the contest lists no single-entry access path")
}

// RunP16 measures composable access paths: the same two-entry conjunction
// executed through the best single interior-index entry (every candidate
// of that one entry is derived, the other conjunct rejects molecules via
// its pushdown hook) and through the multi-entry index intersection
// (both entries climb to candidate roots, the sorted sets intersect, and
// only the survivors are derived).
func RunP16(w io.Writer, scale int) error {
	header(w, "P16", "composable access paths: multi-entry index intersection vs single entry")
	db, mt, err := BuildJobShop(1024 * scale)
	if err != nil {
		return err
	}
	defer plan.Release(db)
	pred := JobShopPred(7, 3)

	intersect, err := plan.Compile(db, mt.Desc(), pred)
	if err != nil {
		return err
	}
	single, err := CompileBestSingleEntry(db, mt.Desc(), pred, intersect)
	if err != nil {
		return err
	}

	tw := table(w)
	fmt.Fprintf(tw, "plan\taccess\tcandidate roots\tmolecules\tatoms fetched\tlinks traversed\tindex lookups\n")
	for _, c := range []struct {
		label string
		p     *plan.Plan
	}{{"single interior entry", single}, {"index intersection", intersect}} {
		db.Stats().Reset()
		set, err := c.p.Execute()
		if err != nil {
			return err
		}
		work := db.Stats().Snapshot()
		access := fmt.Sprintf("interior %s.%s", c.p.Access.EntryType, c.p.Access.Attr)
		if c.p.Access.Kind == plan.IndexIntersect {
			parts := make([]string, len(c.p.Access.Entries))
			for i, e := range c.p.Access.Entries {
				parts[i] = e.Type + "." + e.Attr
			}
			access = "intersect[" + parts[0] + " ∧ " + parts[1] + "]"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n", c.label, access,
			c.p.Access.ActSurvivors, len(set), work.AtomsFetched, work.LinksTraversed, work.IndexLookups)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nintersecting plan (EXPLAIN form):\n%s", intersect.Render())
	return nil
}
