package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/recursive"
	"mad/internal/storage"
)

// bomLevels is the depth of the P17 assembly graph.
const bomLevels = 12

// BuildBOM constructs the P17 workload (exported for the repository-level
// benchmarks): a deep bill-of-material graph of bomLevels levels with
// `width` parts per level. Every part at level l is composed of three
// parts at level l+1 — children overlap between neighbouring assemblies,
// so the graph reconverges and the same sub-assembly is shared by many
// parents (the Chapter-5 part-explosion shape). Part numbers encode
// level*10000+i and are indexed, so an equality on pn can seed a closure
// from one root without scanning the container.
func BuildBOM(width int) (*storage.Database, error) {
	db := storage.NewDatabase()
	if _, err := db.DefineAtomType("parts", model.MustDesc(model.AttrDesc{Name: "pn", Kind: model.KInt})); err != nil {
		return nil, err
	}
	if _, err := db.DefineLinkType("composition", model.LinkDesc{SideA: "parts", SideB: "parts"}); err != nil {
		return nil, err
	}
	ids := make([][]model.AtomID, bomLevels)
	for l := 0; l < bomLevels; l++ {
		ids[l] = make([]model.AtomID, width)
		for i := 0; i < width; i++ {
			id, err := db.InsertAtom("parts", model.Int(int64(l*10000+i)))
			if err != nil {
				return nil, err
			}
			ids[l][i] = id
		}
	}
	for l := 0; l < bomLevels-1; l++ {
		for i := 0; i < width; i++ {
			for _, j := range []int{(2 * i) % width, (2*i + 1) % width, (i + 7) % width} {
				if err := db.Connect("composition", ids[l][i], ids[l+1][j]); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := db.CreateIndex("parts", "pn"); err != nil {
		return nil, err
	}
	return db, nil
}

// BOMPred selects the explosion root by part number.
func BOMPred(pn int64) expr.Expr {
	return expr.Cmp{Op: expr.EQ,
		L: expr.Attr{Type: "parts", Name: "pn"},
		R: expr.Lit(model.Int(pn))}
}

// RunP17 measures the planned recursion subsystem against the naive
// eager derivation it replaces: a depth-bounded part explosion of ONE
// assembly executed (a) eagerly — every part in the database becomes a
// root, every closure is derived, then all but the requested root are
// thrown away — and (b) through the planner over the closure description,
// where the indexed equality seeds the closure from the single matching
// root. A second
// comparison streams the full unfiltered explosion and reports
// time-to-first-molecule against full materialization.
func RunP17(w io.Writer, scale int) error {
	header(w, "P17", "BOM part explosion: indexed fixpoint entry vs eager full closure")
	width := 200 * scale
	db, err := BuildBOM(width)
	if err != nil {
		return err
	}
	defer plan.Release(db)
	const depth = 4
	pred := BOMPred(3) // one level-0 assembly

	tw := table(w)
	fmt.Fprintf(tw, "plan\troots derived\tmolecules kept\tatoms fetched\tlinks traversed\n")

	// Eager: the pre-planner semantics — derive the closure of every
	// part, filter afterwards.
	rt, err := recursive.Define(db, "", "parts", "composition", false, depth)
	if err != nil {
		return err
	}
	db.Stats().Reset()
	all, err := rt.Derive()
	if err != nil {
		return err
	}
	c, _ := db.Container("parts")
	kept := 0
	for _, m := range all {
		a, ok := c.Get(m.Root)
		if !ok {
			continue
		}
		keep, err := expr.EvalPredicate(pred, expr.AtomBinding{TypeName: "parts", Desc: c.Desc(), Atom: a})
		if err != nil {
			return err
		}
		db.Stats().AtomsFetched.Add(1)
		if keep {
			kept++
		}
	}
	eager := db.Stats().Snapshot()
	fmt.Fprintf(tw, "eager full closure\t%d\t%d\t%d\t%d\n",
		len(all), kept, eager.AtomsFetched, eager.LinksTraversed)

	// Planned: the closure description compiles through the one planner;
	// the indexed equality wins the entry contest and only the matching
	// root's closure is expanded.
	desc, err := core.NewClosureDesc(db, "parts", "composition", false, depth)
	if err != nil {
		return err
	}
	fp, err := plan.Compile(db, desc, pred)
	if err != nil {
		return err
	}
	db.Stats().Reset()
	ms, err := fp.Execute()
	if err != nil {
		return err
	}
	planned := db.Stats().Snapshot()
	fmt.Fprintf(tw, "planned fixpoint\t%d\t%d\t%d\t%d\n",
		fp.Access.ActRoots, len(ms), planned.AtomsFetched, planned.LinksTraversed)
	if err := tw.Flush(); err != nil {
		return err
	}
	if planned.AtomsFetched > 0 {
		fmt.Fprintf(w, "\natom-fetch ratio (eager / planned): %.1f×\n",
			float64(eager.AtomsFetched)/float64(planned.AtomsFetched))
	}
	fmt.Fprintf(w, "\nplanned explosion (EXPLAIN form):\n%s", fp.Render())

	// Streaming: first closure of the full explosion arrives long before
	// the set materializes.
	full, err := plan.Compile(db, desc, nil)
	if err != nil {
		return err
	}
	st, err := full.Stream(context.Background())
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := st.Next(); err != nil {
		return err
	}
	firstAt := time.Since(start)
	for {
		m, err := st.Next()
		if err != nil {
			return err
		}
		if m == nil {
			break
		}
	}
	totalAt := time.Since(start)
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nstreamed full explosion (%d roots): first molecule after %v, all after %v (%.0f%% of wall time to first result)\n",
		full.Out, firstAt.Round(time.Microsecond), totalAt.Round(time.Microsecond),
		100*float64(firstAt)/float64(totalAt))
	return nil
}
