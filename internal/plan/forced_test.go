package plan_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/recursive"
	"mad/internal/storage"
)

// accessPredicate builds a random conjunction of equality and range
// comparisons on the v attribute of random types — root and interior, so
// with indexes in place every row of the access-path table finds
// candidates — plus, sometimes, an OR-shaped pushdown and a residual-only
// conjunct (a COUNT, a negation or a comparison across two types).
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
	if len(types) > 1 && rng.Intn(3) == 0 {
		t := types[1+rng.Intn(len(types)-1)]
		pred = expr.And{L: pred, R: expr.Or{L: intCmp(expr.EQ, t, "v", int64(rng.Intn(4))), R: intCmp(expr.EQ, t, "v", int64(rng.Intn(4)))}}
	}
	if len(types) > 1 && rng.Intn(3) == 0 {
		residuals := []expr.Expr{
			expr.Cmp{Op: expr.GE, L: expr.CountOf{Type: types[1]}, R: expr.Lit(model.Int(int64(rng.Intn(3))))},
			expr.Not{E: intCmp(expr.EQ, types[len(types)-1], "v", int64(rng.Intn(4)))},
			expr.Cmp{Op: expr.LE, L: expr.Attr{Type: types[0], Name: "w"}, R: expr.Attr{Type: types[1], Name: "w"}},
		}
		pred = expr.And{L: pred, R: residuals[rng.Intn(len(residuals))]}
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

// parityCase is one generated query with its oracle answer.
type parityCase struct {
	db    *storage.Database
	desc  *core.Desc
	pred  expr.Expr
	order *plan.OrderBy
	limit int
	// txn, when set, is an open transaction holding buffered writes: the
	// plan streams over its effective view, and the oracle read it too.
	txn *storage.Txn
	// many marks a root type populated past two executor batches, so the
	// full scan's 3- and 8-worker runs take the pipelined path.
	many bool
	// roots are the oracle's qualifying roots in scan order; same compares
	// a delivered molecule with the oracle's molecule of the same root.
	roots []model.AtomID
	same  func(got *core.Molecule) bool
}

// view is what the case's oracle reads through: the open transaction's
// effective view, the latest commit without one.
func (c *parityCase) view() storage.View {
	if c.txn != nil {
		return c.txn.View()
	}
	return c.db.View(0)
}

// closureDB generates a random reflexive graph of n atoms — self-loops,
// cycles and reconvergent paths included — over one atom type with the
// layered generator's attributes (v from a small domain, w for ordering).
func closureDB(rng *rand.Rand, n int) (*storage.Database, error) {
	db := storage.NewDatabase()
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt}, model.AttrDesc{Name: "w", Kind: model.KFloat})
	if _, err := db.DefineAtomType("part", desc); err != nil {
		return nil, err
	}
	if _, err := db.DefineLinkType("comp", model.LinkDesc{SideA: "part", SideB: "part"}); err != nil {
		return nil, err
	}
	ids := make([]model.AtomID, n)
	for i := range ids {
		id, err := db.InsertAtom("part", model.Int(int64(rng.Intn(4))), model.Float(rng.Float64()*100))
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	for k := rng.Intn(3*n + 1); k > 0; k-- {
		if err := db.Connect("comp", ids[rng.Intn(n)], ids[rng.Intn(n)]); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// dirty opens a transaction on db and buffers random inserts, updates,
// deletes, connects and disconnects over the structure's types and
// links. Operations the transaction refuses (a duplicate link, an atom it
// already deleted) are simply skipped; at least one is always buffered.
func dirty(rng *rand.Rand, db *storage.Database, desc *core.Desc) *storage.Txn {
	txn := db.Begin()
	types, edges := desc.Types(), desc.Edges()
	vals := func() []model.Value {
		return []model.Value{model.Int(int64(rng.Intn(4))), model.Float(rng.Float64() * 100)}
	}
	pick := func(typeName string) (model.AtomID, bool) {
		c, _ := db.Container(typeName)
		ids := txn.View().IDs(c)
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	for k := 1 + rng.Intn(8); k > 0 || !txn.Dirty(); k-- {
		tn := types[rng.Intn(len(types))]
		switch op := rng.Intn(5); {
		case op == 0 || len(edges) == 0 && op > 2:
			_, _ = txn.InsertAtom(tn, vals()...)
		case op == 1:
			if id, ok := pick(tn); ok {
				_ = txn.UpdateAtom(tn, id, vals())
			}
		case op == 2:
			if id, ok := pick(tn); ok {
				_ = txn.DeleteAtom(tn, id)
			}
		default:
			e := edges[rng.Intn(len(edges))]
			a, okA := pick(e.From)
			b, okB := pick(e.To)
			if !okA || !okB {
				continue
			}
			if op == 3 {
				_ = txn.Connect(e.Link, a, b)
			} else {
				_, _ = txn.Disconnect(e.Link, a, b)
			}
		}
	}
	return txn
}

// viewClosure is the dirty-view closure oracle: the recursive molecule of
// root over the comp link as the transaction sees it — level by level,
// every atom at the level it is first reached, every traversed link kept.
func viewClosure(view storage.View, comp *storage.LinkStore, root model.AtomID, up bool, depth int) *recursive.Molecule {
	m := &recursive.Molecule{Root: root, Levels: [][]model.AtomID{{root}}}
	seen := map[model.AtomID]bool{root: true}
	for d := 1; depth == 0 || d <= depth; d++ {
		var next []model.AtomID
		for _, a := range m.Levels[d-1] {
			for _, b := range view.Partners(comp, a, !up) {
				m.Links = append(m.Links, model.Link{A: a, B: b})
				if !seen[b] {
					seen[b] = true
					next = append(next, b)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		m.Levels = append(m.Levels, next)
	}
	return m
}

// check executes every candidate the contest enumerates for the case —
// forced in place of the cheapest — with 1, 3 and 8 workers and compares
// each delivery, element-wise, with the oracle's roots ordered and cut as
// the query asks; a stream of the same plan closed at a random point
// must have delivered a prefix of it. A dirty view admits only the full
// scan; every other candidate must refuse to open it. Over committed
// state the case then runs reloaded: over the database saved as a state
// file and loaded back, the unforced compile must render byte-equal to
// the original's and deliver the oracle. Last, an unlimited structure
// case is propagated: DEFINE … AS SELECT … WHERE through an MQL session
// must define an occurrence equivalent to the set the cheapest candidate
// delivered.
func (c parityCase) check(t *testing.T, seed int64) bool {
	root := c.desc.Root()
	cont, _ := c.db.Container(root)
	if n := len(c.view().IDs(cont)); c.many && n <= 2*core.DefaultStreamBatch {
		t.Logf("seed %d: many-roots case has %d roots, not more than two batches", seed, n)
		return false
	}
	want := c.roots
	if c.order != nil {
		pos, _ := cont.Desc().Lookup(c.order.Attr)
		key := func(id model.AtomID) model.Value {
			a, ok := c.view().Atom(cont, id)
			if !ok {
				t.Fatalf("seed %d: oracle root %v vanished", seed, id)
			}
			return a.Get(pos)
		}
		want = slices.Clone(want)
		sort.SliceStable(want, func(i, j int) bool {
			cmp := key(want[i]).Compare(key(want[j]))
			if c.order.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
			return want[i] < want[j]
		})
	}
	if c.limit > 0 && len(want) > c.limit {
		want = want[:c.limit]
	}

	contested, err := plan.CompileOrdered(c.db, c.desc, c.pred, c.order)
	if err != nil {
		t.Logf("seed %d: compile: %v", seed, err)
		return false
	}
	if !contested.Alternatives[0].Chosen {
		t.Logf("seed %d: unforced compile did not install the cheapest candidate:\n%s", seed, contested.Render())
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	var delivered core.MoleculeSet // by the cheapest candidate, sequentially
	for _, alt := range contested.Alternatives {
		var base runActuals
		for _, workers := range []int{1, 3, 8} {
			p, err := plan.CompileForced(c.db, c.desc, c.pred, c.order, alt.Label)
			if err != nil {
				t.Logf("seed %d: force %q: %v", seed, alt.Label, err)
				return false
			}
			p.Workers, p.Limit = workers, c.limit
			got, err := p.ExecuteIn(context.Background(), c.txn)
			if c.txn != nil && alt.Label != "full scan of "+root {
				if err == nil {
					t.Logf("seed %d: %q opened a dirty view it cannot enter", seed, alt.Label)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("seed %d: %q workers=%d: %v", seed, alt.Label, workers, err)
				return false
			}
			if !c.delivers(t, seed, p, got, want, alt.Label) {
				return false
			}
			if alt.Chosen && workers == 1 {
				delivered = got
			}
			a := actualsOf(p)
			if !c.prefix(t, seed, p, rng, want, alt.Label) {
				return false
			}
			if c.limit > 0 {
				continue // truncated and bound-pruned runs stop where timing says
			}
			if workers == 1 {
				base = a
			} else if !a.equal(base) {
				t.Logf("seed %d: %q workers=%d: actuals %+v, sequential %+v", seed, alt.Label, workers, a, base)
				return false
			}
		}
	}
	if _, err := plan.CompileForced(c.db, c.desc, c.pred, c.order, "no such path"); err == nil {
		t.Logf("seed %d: forcing an unknown label must fail", seed)
		return false
	}
	if c.txn != nil {
		return true // the unforced plan may enter by an index the dirty view cannot open
	}

	// Reloaded: the database written as a state file and read back — its
	// indexes and histograms with it — compiles to the plan the original
	// did and delivers the oracle.
	path := filepath.Join(t.TempDir(), "reloaded.mad")
	if err := storage.Save(c.db, path); err != nil {
		t.Logf("seed %d: save: %v", seed, err)
		return false
	}
	back, err := storage.Load(path)
	if err != nil {
		t.Logf("seed %d: load: %v", seed, err)
		return false
	}
	p, err := plan.CompileOrdered(back, c.desc, c.pred, c.order)
	if err != nil {
		t.Logf("seed %d: reloaded compile: %v", seed, err)
		return false
	}
	if p.Render() != contested.Render() {
		t.Logf("seed %d: reloaded plan renders\n%s\nthe original rendered\n%s", seed, p.Render(), contested.Render())
		return false
	}
	p.Limit = c.limit
	got, err := p.Execute()
	if err != nil {
		t.Logf("seed %d: reloaded run: %v", seed, err)
		return false
	}
	if !c.delivers(t, seed, p, got, want, "reloaded") {
		return false
	}

	// Propagated: algebra mode's Σ, the planned stream feeding the
	// propagation sink, defines the occurrence the plan delivered. A
	// recursive WHERE cannot be propagated, and a LIMIT cannot be defined.
	if c.desc.Closure() != nil || c.limit > 0 {
		return true
	}
	mt, err := core.DefineDesc(c.db, "", c.desc)
	if err != nil {
		t.Logf("seed %d: %v", seed, err)
		return false
	}
	sess := mql.NewSession(c.db)
	if err := sess.Register("random", mt); err != nil {
		t.Logf("seed %d: %v", seed, err)
		return false
	}
	define := &mql.DefineStmt{Name: "sigma", Select: &mql.SelectStmt{All: true, From: mql.FromClause{Name: "random"}, Where: c.pred}}
	if _, err := sess.Execute(define); err != nil {
		t.Logf("seed %d: DEFINE: %v", seed, err)
		return false
	}
	sigma, _ := sess.NamedType("sigma")
	if ok, err := core.EquivalentOccurrence(sigma, delivered); err != nil || !ok {
		t.Logf("seed %d: propagated occurrence differs from the delivered set (pred %s, err %v)", seed, c.pred, err)
		return false
	}
	return true
}

// prefix streams p again and closes it after a random number of
// molecules: what it delivered must be exactly that prefix of want.
func (c parityCase) prefix(t *testing.T, seed int64, p *plan.Plan, rng *rand.Rand, want []model.AtomID, label string) bool {
	st, err := p.StreamIn(context.Background(), c.txn)
	if err != nil {
		t.Logf("seed %d: %q workers=%d: stream: %v", seed, label, p.Workers, err)
		return false
	}
	j := rng.Intn(len(want) + 1)
	var got core.MoleculeSet
	for len(got) < j {
		m, err := st.Next()
		if m == nil || err != nil {
			break
		}
		got = append(got, m)
	}
	if err := st.Close(); err != nil {
		t.Logf("seed %d: %q workers=%d: close after %d: %v", seed, label, p.Workers, j, err)
		return false
	}
	return c.delivers(t, seed, p, got, want[:j], label+" closed early")
}

// delivers compares one run's molecules, element-wise, with the oracle's
// roots in delivery order.
func (c parityCase) delivers(t *testing.T, seed int64, p *plan.Plan, got core.MoleculeSet, want []model.AtomID, label string) bool {
	if len(got) != len(want) {
		t.Logf("seed %d: %q workers=%d: %d molecules, oracle %d (pred %s)\n%s",
			seed, label, p.Workers, len(got), len(want), c.pred, p.Render())
		return false
	}
	for i, m := range got {
		if m.Root() != want[i] || !c.same(m) {
			t.Logf("seed %d: %q workers=%d: molecule %d differs from the oracle (pred %s)\n%s",
				seed, label, p.Workers, i, c.pred, p.Render())
			return false
		}
	}
	return true
}

// TestForcedPathParityRandom is the pipeline's one differential property:
// EVERY candidate the access-path table enumerates — forced in place of
// the cheapest — delivers exactly the naive oracle, element-wise (every
// path yields root-ID order when no ORDER BY asks otherwise), for 1, 3 and
// 8 workers; complete runs additionally report the same roots/derived/out,
// per-pushdown Cut and per-residual Evals/Passed for every worker count,
// a stream closed at a random point has delivered an exact prefix, and
// the unforced compile installs the cheapest candidate; over committed
// state the database written as a state file and read back delivers the
// oracle too (reloaded: its indexes and histograms return, so its plan
// renders byte-equal to the original's); an unlimited structure case
// propagated through DEFINE … AS SELECT … WHERE defines the delivered
// occurrence. Three configurations share the random index and statistics
// regimes, the population regime (about one case in four holds more than
// two executor batches of roots, so 3 and 8 workers run pipelined), the
// optional ORDER BY / LIMIT and the check:
//
//   - structures: random 2–4-type structures with shared and multi-parent
//     atoms under random conjunctive predicates; oracle Deriver.Walk +
//     expr.EvalPredicate;
//   - closures: random cyclic, reconvergent reflexive graphs × {down, up}
//     × depth 0–4 under an optional root predicate; oracle
//     recursive.Type.DeriveFor per qualifying root, compared on Levels and
//     Links;
//   - dirty views: either kind of structure inside a transaction holding
//     random buffered writes, the stream opened over its effective view;
//     oracle Deriver.At(txn.View()).Walk + EvalPredicate reading through
//     the same view for a structure, a breadth-first walk over the
//     view's Partners for a closure.
//
// Run with -quickchecks 1000 for the long form.
func TestForcedPathParityRandom(t *testing.T) {
	// regime applies a random index and statistics regime.
	regime := func(rng *rand.Rand, db *storage.Database, types []string) error {
		for _, tn := range types {
			if rng.Intn(3) > 0 {
				if err := db.CreateIndex(tn, "v"); err != nil {
					return err
				}
			}
		}
		if rng.Intn(2) == 0 {
			_, err := db.Analyze()
			return err
		}
		return nil
	}
	// population draws how many atoms each generated type holds: few, or
	// — in about one case in four — more than two executor batches, so the
	// full scan's root batch fans out over the 3- and 8-worker pools.
	population := func(rng *rand.Rand, few int) (int, bool) {
		if rng.Intn(4) > 0 {
			return few, false
		}
		return 2*core.DefaultStreamBatch + 16 + rng.Intn(core.DefaultStreamBatch), true
	}
	// shape draws the optional ORDER BY and LIMIT.
	shape := func(rng *rand.Rand, c *parityCase) {
		if rng.Intn(2) == 0 {
			c.order = &plan.OrderBy{Attr: []string{"v", "w"}[rng.Intn(2)], Desc: rng.Intn(2) == 0}
		}
		if rng.Intn(2) == 0 {
			c.limit = 1 + rng.Intn(6)
		}
	}
	// walk fills the case's oracle from the naive derivation over its read
	// view, judging each molecule with judge.
	walk := func(c *parityCase, judge func(*core.Molecule) (bool, error)) error {
		dv, err := core.NewDeriver(c.db, c.desc)
		if err != nil {
			return err
		}
		want := make(map[model.AtomID]*core.Molecule)
		dv.At(c.view()).Walk(func(m *core.Molecule) bool {
			var keep bool
			if keep, err = judge(m); keep {
				c.roots = append(c.roots, m.Root())
				want[m.Root()] = m
			}
			return err == nil
		})
		c.same = func(got *core.Molecule) bool {
			w := want[got.Root()]
			return got.Equal(w) && slices.EqualFunc(got.Levels(), w.Levels(), slices.Equal[[]model.AtomID])
		}
		return err
	}

	structures := func(rng *rand.Rand, inTxn bool) (c parityCase, err error) {
		n, many := population(rng, 4+rng.Intn(9))
		db, types, edges, err := layeredDB(rng, 1+rng.Intn(3), n)
		if err != nil {
			return c, err
		}
		if err := regime(rng, db, types); err != nil {
			return c, err
		}
		mt, err := core.Define(db, "random", types, edges)
		if err != nil {
			return c, err
		}
		c = parityCase{db: db, desc: mt.Desc(), pred: accessPredicate(rng, types), many: many}
		if err := expr.Check(c.pred, core.Scope{DB: db, Desc: c.desc}); err != nil {
			return c, err
		}
		shape(rng, &c)
		if inTxn {
			c.txn = dirty(rng, db, c.desc)
		}
		b := core.Binding{DB: db, View: c.view()}
		return c, walk(&c, func(m *core.Molecule) (bool, error) {
			b.M = m
			return expr.EvalPredicate(c.pred, b)
		})
	}

	closures := func(rng *rand.Rand, inTxn bool) (c parityCase, err error) {
		n, many := population(rng, 1+rng.Intn(20))
		db, err := closureDB(rng, n)
		if err != nil {
			return c, err
		}
		if err := regime(rng, db, []string{"part"}); err != nil {
			return c, err
		}
		up, depth := rng.Intn(2) == 1, rng.Intn(5)
		desc, err := core.NewClosureDesc(db, "part", "comp", up, depth)
		if err != nil {
			return c, err
		}
		c = parityCase{db: db, desc: desc, many: many}
		if rng.Intn(3) > 0 {
			c.pred = accessPredicate(rng, []string{"part"})
		}
		shape(rng, &c)
		rt, err := recursive.Define(db, "", "part", "comp", up, depth)
		if err != nil {
			return c, err
		}
		// The oracle shares no code with the pipeline: the Chapter 5
		// derivation over the committed state, a plain breadth-first walk
		// over the transaction's effective partners inside one.
		cont, _ := db.Container("part")
		comp, _ := db.LinkStore("comp")
		derive := rt.DeriveFor
		if inTxn {
			c.txn = dirty(rng, db, desc)
			derive = func(root model.AtomID) (*recursive.Molecule, error) {
				return viewClosure(c.view(), comp, root, up, depth), nil
			}
		}
		want := make(map[model.AtomID]*recursive.Molecule)
		for _, id := range c.view().IDs(cont) {
			// The qualification of a recursive molecule judges its root atom.
			a, _ := c.view().Atom(cont, id)
			keep, err := expr.EvalPredicate(c.pred, expr.AtomBinding{TypeName: "part", Desc: cont.Desc(), Atom: a})
			if err != nil {
				return c, err
			}
			if !keep {
				continue
			}
			if want[id], err = derive(id); err != nil {
				return c, err
			}
			c.roots = append(c.roots, id)
		}
		c.same = func(got *core.Molecule) bool {
			w := want[got.Root()]
			return slices.EqualFunc(got.Levels(), w.Levels, slices.Equal[[]model.AtomID]) && slices.Equal(got.LinksAt(0), w.Links)
		}
		return c, nil
	}

	for _, cfg := range []struct {
		name string
		gen  func(rng *rand.Rand) (parityCase, error)
	}{
		{"structures", func(rng *rand.Rand) (parityCase, error) { return structures(rng, false) }},
		{"closures", func(rng *rand.Rand) (parityCase, error) { return closures(rng, false) }},
		{"dirty views", func(rng *rand.Rand) (parityCase, error) {
			if rng.Intn(2) == 0 {
				return closures(rng, true)
			}
			return structures(rng, true)
		}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			f := func(seed int64) bool {
				c, err := cfg.gen(rand.New(rand.NewSource(seed)))
				if c.txn != nil {
					defer c.txn.Rollback()
				}
				if err != nil {
					t.Logf("seed %d: generate: %v", seed, err)
					return false
				}
				return c.check(t, seed)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}
