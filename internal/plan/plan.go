// Package plan compiles molecule queries into explicit plan DAGs. A plan
// fixes, before any atom is touched,
//
//   - the access path: the entry point into the structure. The links of
//     the model are symmetric, so every atom type is a legal entry point
//     and the alternatives are peers — the candidates of one access-path
//     table of enumerating functions (access.go): a scan of the root
//     type's container, an equality or range entry through a secondary
//     index on the *root* type, the same through an index on any
//     *interior* atom type (the matching atoms are climbed upward against
//     the declared edge directions, core.Deriver.RecoverRoots, to the
//     candidate roots, which are then derived downward as usual), an
//     intersection of several interior entries, and an ordered index
//     walk. Every index entry is one AccessEntry, and the chosen
//     candidate's Access node — its kind and entries — is the plan's.
//     The candidates are costed in one contest against histogram
//     estimates and link fan-out statistics, root-only conjuncts the path
//     does not absorb become the root filter, and EXPLAIN records the
//     contest;
//   - the derivation node, annotated with per-atom-type pushdown
//     conjuncts: conjuncts referencing a single non-root atom type are
//     evaluated inside core.Deriver while the structure template is laid
//     over the atom network, cutting non-qualifying subtrees as soon as
//     the referenced type's component set is complete, instead of
//     post-filtering whole molecules (the optimization the paper
//     anticipates for query processing, Chapter 5); hooks at the same
//     type fire most-selective-first; and
//   - the residual filter: whatever part of the formula genuinely needs
//     the whole molecule (multi-type conjuncts, quantifiers over non-root
//     types) runs under molecule binding, its conjuncts ordered by
//     estimated selectivity × evaluation cost so cheap, selective
//     conjuncts short-circuit the expensive ones.
//
// Execution is streaming, and the consumer drives it: each Stream.Next
// that runs out of molecules pulls the access path's next roots as one
// batch (core.DeriveStream, which derives the first batches on the
// consumer's goroutine and the rest on a worker pool running a bounded
// number of batches ahead) — the one place a query fans out — each
// worker judges the root filter and the pushdowns as prune hooks and
// runs the residual chain on a molecule the moment it finishes deriving
// it — no barrier separates derivation from filtering, rejected
// molecules never cross a goroutine, and every worker keeps private
// Evals/Passed/Cut accumulators merged when the run ends so the EXPLAIN
// actuals stay exact — and batches are handed out in root order, so
// consumers see the first molecules while the bulk of the roots is
// still deriving, with a live set bounded by O(workers × batch).
// Execute collects a Stream; cancelling the stream's context (or
// reaching Plan.Limit) stops the workers mid-derivation.
//
// Cardinality and selectivity estimates come from the equi-depth
// histograms of storage/stats when ANALYZE has built them, falling back
// to the uniform occurrence/distinct-keys assumption (and finally to
// fixed shape defaults); EXPLAIN labels every estimate with its source.
// Residual conjuncts are estimated per molecule in closed form from the
// same statistics and the link fan-outs (conjSelectivity), so a plan
// depends only on the data and its statistics: the same statement over
// the same data compiles to the same plan however often it has run. The
// storage layer keeps every statistic a compile reads as the data
// changes, so a compile costs the same on any database, and every
// statement compiles afresh, costed on the statistics of its moment.
//
// The planner is sound with respect to the molecule algebra: a plan's
// result is always set-equal to naive Σ (core.Restrict) over the same
// predicate — pushdown decides early whether a molecule can qualify, it
// never changes the content of qualifying molecules, residual ordering
// only permutes a commutative conjunction, and an interior entry only
// narrows the root batch (root recovery is a superset of the qualifying
// roots, and the entry conjunct stays on as a prune hook).
package plan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// AccessKind labels the family of the access path a plan runs: what
// execution (Plan.roots) and EXPLAIN do with the Access node's entries.
type AccessKind uint8

// Access path families.
const (
	// FullScan reads every atom of the root type's container.
	FullScan AccessKind = iota
	// IndexScan enters through a secondary index on the root type — an
	// equality lookup, or a key-bounded range walk (AccessEntry.Ranged).
	IndexScan
	// InteriorIndex enters through an index on a non-root atom type and
	// recovers the candidate roots by climbing the links upward.
	InteriorIndex
	// OrderedScan walks a secondary index on the ORDER BY attribute in
	// key order, yielding the roots already sorted as derivation pulls
	// them.
	OrderedScan
	// IndexIntersect intersects the candidate roots of several interior
	// entries before a single molecule is derived.
	IndexIntersect
)

// Ordered-delivery mechanisms, as EXPLAIN provenance labels: how a plan
// with an ORDER BY turns the root-batch stream into a key-ordered one.
const (
	// OrderIndex: the access path already produces roots in key order
	// (an OrderedScan, or an index equality on the ORDER BY attribute
	// itself — one key, ties broken by atom ID). Zero sorting work.
	OrderIndex = "index-order"
	// OrderTopK: a bounded heap keeps the best LIMIT molecules while the
	// stream drains, and the heap's current bound is pushed into the
	// access path as a root prune — roots that cannot beat it are cut
	// before derivation.
	OrderTopK = "top-k heap"
	// OrderSort: no index and no LIMIT — the same heap, never popped
	// until the whole result is in, so no bound is published.
	OrderSort = "sort"
)

// OrderBy asks a plan to deliver molecules ordered by a root attribute.
// Ties (equal keys) are broken by root atom ID ascending regardless of
// direction, so both delivery mechanisms — index ride and heap — produce
// the identical sequence.
type OrderBy struct {
	Attr string
	Desc bool
	// Pos is the attribute's position in the root container's
	// descriptor, resolved at compile time.
	Pos int
}

// Access is the access-path node of a plan: how the root batch entering
// derivation is produced. A FullScan or OrderedScan has no entries; an
// IndexScan or InteriorIndex enters through Entries[0], an
// IndexIntersect through every entry.
type Access struct {
	Kind AccessKind
	Root string
	// Filter holds the remaining root-only conjuncts; derivation judges
	// them per root atom as the first prune hook, before anything below
	// the root is traversed (every molecule has exactly one root atom, so
	// per-atom evaluation equals molecule evaluation).
	Filter expr.Expr
	// EstRoots estimates how many roots enter derivation: histogram
	// buckets when available, otherwise the container size for a full
	// scan and occurrence/distinct-keys for an index scan, scaled by the
	// estimated selectivity of the root filter. For an interior entry it
	// is the climb estimate scaled the same way.
	EstRoots int
	// EstSource records which statistic produced EstRoots (SrcHistogram,
	// SrcUniform, SrcContainer, SrcLinkFan or SrcDefault) for EXPLAIN.
	EstSource string
	// ActRoots counts the roots that passed the root filter and so
	// entered derivation; like Derived, a truncated run counts only the
	// roots it got to.
	ActRoots int
	// Entries are the index entry points, in the order they run.
	Entries []AccessEntry
	// ActSurvivors counts the roots the entries yielded together — for an
	// IndexIntersect the sorted-merge intersection survivors — before the
	// root filter ran.
	ActSurvivors int
}

// AccessEntry is one index entry point: an equality lookup or, Ranged, a
// key-bounded walk of the ordered index on Type.Attr. A root entry yields
// roots itself; the atoms of an interior entry are climbed upward against
// the declared edge directions to candidate roots.
type AccessEntry struct {
	Type string
	Pos  int
	Attr string
	// Value is the equality key; a Ranged entry walks the KeyRange's
	// bounds instead (<, <=, >, >=, and at the root BETWEEN-shaped AND
	// pairs merged into one interval).
	Value  model.Value
	Ranged bool
	storage.KeyRange
	// EstEntries estimates the atoms the index returns; EntrySource
	// records the statistic behind it.
	EstEntries  int
	EntrySource string
	// UpPath lists the atom types an interior entry's climb passes
	// through, entry first, root last; EstRoots estimates the candidate
	// roots it recovers.
	UpPath   []string
	EstRoots int
	// ActEntries counts the atoms the index returned, ActRoots the roots
	// the entry yielded. When an intersection short-circuits on an empty
	// running set, later entries are never probed and keep zero actuals.
	ActEntries int
	ActRoots   int
	// ords are the ordinals of the root conjuncts a root entry absorbs:
	// they leave the root filter. access is an interior entry's access
	// cost: its atoms, the climb and the recovered roots.
	ords   []int
	access float64
}

// Alternative is one access path the planner considered, with its total
// estimated cost (atom fetches + link traversals to produce the root
// batch, plus expected derivation work) — the EXPLAIN provenance for why
// the chosen entry point won.
type Alternative struct {
	Label  string
	Cost   float64
	Chosen bool
}

// Pushdown is one conjunct pushed below derivation at one atom type.
type Pushdown struct {
	Type     string
	Pos      int
	Conjunct expr.Expr
	// Sel estimates the fraction of the type's atoms satisfying the
	// conjunct (a per-atom, not per-molecule, selectivity); Source
	// records the statistic behind it.
	Sel    float64
	Source string
	// Cut counts the molecules this node disqualified mid-derivation.
	Cut int
	// c is Type's container and pred the conjunct compiled against it.
	c    *storage.Container
	pred expr.Pred
}

// ResidualConjunct is one molecule-level conjunct of the residual filter,
// annotated with the cost-model estimates that ordered it and, after
// execution, with evaluation actuals.
type ResidualConjunct struct {
	Conjunct expr.Expr
	// Sel estimates the fraction of molecules the conjunct keeps; Source
	// records which statistic produced it.
	Sel    float64
	Source string
	// Cost scores the relative per-molecule evaluation cost (the static
	// shape-based conjCost score).
	Cost float64
	// Evals and Passed count molecules evaluated and kept (short-circuit
	// means later conjuncts see fewer molecules than earlier ones).
	Evals  int
	Passed int
	// pred is the conjunct compiled against the structure.
	pred expr.Pred
}

// Plan is a compiled query plan: access path → derivation with pushdown →
// residual restriction. Projection stays with the caller (MQL applies it
// via PruneTo in query mode, Π with propagation in algebra mode).
type Plan struct {
	db   *storage.Database
	desc *core.Desc
	// presorted marks a root batch that already arrives in the requested
	// order: an ordered index walk, or a root entry on the ORDER BY
	// attribute itself.
	presorted bool
	// derivCost is the expected atoms fetched deriving one molecule, the
	// link-fan constant the contest weighed the alternatives with.
	derivCost float64

	Access Access
	// Alternatives records every access path considered at compile time,
	// most attractive first, with the chosen one marked.
	Alternatives []Alternative
	Pushdowns    []Pushdown
	// Residual is the whole residual conjunction in source order (nil
	// when everything pushed down); Residuals holds the same conjuncts
	// split and cost-ordered for short-circuit evaluation.
	Residual  expr.Expr
	Residuals []ResidualConjunct

	// Workers bounds the worker pool derivation fans the root batch out
	// over: 0 selects GOMAXPROCS, 1 forces sequential derivation.
	Workers int
	// Limit caps the molecules a Stream delivers (and therefore what
	// Execute returns): 0 means unlimited. When the cap is reached the
	// in-flight derivation is cancelled, so a LIMIT query never derives
	// far past its answer. A truncated run's actuals cover only the work
	// actually done. On an
	// ordered plan without an index ride, Limit instead selects the
	// top-K heap: the whole root batch is examined (under the heap-bound
	// prune), and exactly the K best molecules are delivered.
	Limit int
	// Order, when non-nil, makes the stream deliver molecules sorted by
	// the root attribute; OrderPath records the mechanism the run used
	// (OrderIndex, OrderTopK or OrderSort) and OrderCut counts the roots
	// the top-K heap bound cut before derivation.
	Order     *OrderBy
	OrderPath string
	OrderCut  int

	// Execution actuals (valid after Execute).
	Derived  int // molecules fully derived (survived every pushdown)
	Out      int // molecules after the residual filter
	Executed bool
	// work is the derivation work of the last stream, as the executor
	// tallied it.
	work storage.WorkTally

	// root is the root type's container and filter Access.Filter compiled
	// against it, both set once the predicates are compiled
	// (compilePreds).
	root   *storage.Container
	filter expr.Pred
}

// orderPath predicts the ordered-delivery mechanism the next run will
// use under the plan's current Limit — what OrderPath will record.
func (p *Plan) orderPath() string {
	switch {
	case p.Order == nil:
		return ""
	case p.presorted:
		return OrderIndex
	case p.Limit > 0:
		return OrderTopK
	default:
		return OrderSort
	}
}

// Desc returns the structure the plan derives.
func (p *Plan) Desc() *core.Desc { return p.desc }

// rootConjInfo carries the per-root-conjunct analysis access-path
// enumeration works from.
type rootConjInfo struct {
	conj expr.Expr
	sel  float64
	src  string
	// ord is the conjunct's ordinal in the split predicate.
	ord int
}

// Compile builds the plan for deriving desc under pred (nil = no
// restriction). pred must already be statically valid for the structure
// (expr.Check against core.Scope).
func Compile(db *storage.Database, desc *core.Desc, pred expr.Expr) (*Plan, error) {
	return compile(db, desc, pred, nil, "")
}

// CompileOrdered is Compile with an ORDER BY on a root attribute: the
// access-path contest additionally weighs an ordered index ride against
// heap-ordered delivery, and the resulting plan's streams deliver in key
// order. order must name an attribute of the root type; a nil order
// degrades to Compile.
func CompileOrdered(db *storage.Database, desc *core.Desc, pred expr.Expr, order *OrderBy) (*Plan, error) {
	return compile(db, desc, pred, order, "")
}

// CompileForced is CompileOrdered taking the candidate the contest lists
// under label (an Alternative.Label of the unforced compile) instead of
// the cheapest — the hook the forced-path parity property and the
// intersection test's single-entry baselines execute a losing access
// path through. It is not reachable from MQL or the session options.
func CompileForced(db *storage.Database, desc *core.Desc, pred expr.Expr, order *OrderBy, label string) (*Plan, error) {
	return compile(db, desc, pred, order, label)
}

// compile is CompileOrdered where a non-empty force selects the
// access-path candidate with that label.
func compile(db *storage.Database, desc *core.Desc, pred expr.Expr, order *OrderBy, force string) (*Plan, error) {
	p := &Plan{
		db:     db,
		desc:   desc,
		Access: Access{Root: desc.Root()},
	}
	if order != nil {
		c, ok := db.Container(desc.Root())
		if !ok {
			return nil, fmt.Errorf("plan: root type %q has no container", desc.Root())
		}
		pos, ok := c.Desc().Lookup(order.Attr)
		if !ok {
			return nil, fmt.Errorf("plan: root type %q has no attribute %q to order by", desc.Root(), order.Attr)
		}
		p.Order = &OrderBy{Attr: order.Attr, Desc: order.Desc, Pos: pos}
	}
	n, err := db.CountAtoms(desc.Root())
	if err != nil {
		return nil, err
	}
	sizes := componentSizes(db, desc)

	var rootConjs []rootConjInfo
	for ord, c := range splitConjuncts(pred) {
		t, single := conjunctType(db, desc, c)
		if desc.NumTypes() == 1 && !single {
			// A one-type molecule is its root atom, and the qualification
			// of a recursive molecule judges its root atom (Chapter 5):
			// every conjunct is a root conjunct. As a residual a
			// reference-free conjunct would keep a roots-only run from
			// judging the match, and a closure's would evaluate
			// existentially over every level and silently mean something
			// else.
			for rt := range expr.TypesReferenced(c) {
				if rt != "" && rt != desc.Root() {
					return nil, fmt.Errorf("plan: WHERE references %q; only %q is in scope", rt, desc.Root())
				}
			}
			t, single = desc.Root(), true
		}
		switch {
		case single && t == desc.Root():
			info := rootConjInfo{conj: c, ord: ord}
			info.sel, info.src = conjSelectivity(db, desc, c, nil)
			rootConjs = append(rootConjs, info)
		case single && pushableShape(c):
			pos, _ := desc.Pos(t)
			sel, src := conjSelectivity(db, desc, c, nil)
			p.Pushdowns = append(p.Pushdowns, Pushdown{
				Type: t, Pos: pos, Conjunct: c, Sel: sel, Source: src,
			})
		default:
			p.Residual = combine(p.Residual, c)
			sel, src := conjSelectivity(db, desc, c, sizes)
			p.Residuals = append(p.Residuals, ResidualConjunct{
				Conjunct: c, Sel: sel, Source: src, Cost: conjCost(c),
			})
		}
	}

	if err := p.chooseAccess(n, rootConjs, derivCostPerRoot(db, desc, sizes), force); err != nil {
		return nil, err
	}
	p.rankResiduals()
	// Pushdown order follows the topological order of the structure (a
	// hook can only fire once its type's component set is complete);
	// among hooks at the same type, the most selective fires first so
	// the cheapest cut decides before the weaker conjuncts run.
	if len(p.Pushdowns) > 1 {
		topoPos := make(map[string]int, desc.NumTypes())
		for i, t := range desc.Topo() {
			topoPos[t] = i
		}
		sort.SliceStable(p.Pushdowns, func(i, j int) bool {
			a, b := &p.Pushdowns[i], &p.Pushdowns[j]
			if pa, pb := topoPos[a.Type], topoPos[b.Type]; pa != pb {
				return pa < pb
			}
			return a.Sel < b.Sel
		})
	}
	return p, nil
}

// combineSource merges provenance labels, treating "" and a folded
// constant as absent.
func combineSource(a, b string) string {
	if a == "" || a == SrcConstant {
		return b
	}
	if b == "" || b == SrcConstant {
		return a
	}
	return worseSource(a, b)
}

// splitConjuncts flattens the top-level AND tree of pred.
func splitConjuncts(pred expr.Expr) []expr.Expr {
	if pred == nil {
		return nil
	}
	if and, ok := pred.(expr.And); ok {
		return append(splitConjuncts(and.L), splitConjuncts(and.R)...)
	}
	return []expr.Expr{pred}
}

// combine conjoins two optional predicates.
func combine(a, b expr.Expr) expr.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return expr.And{L: a, R: b}
}

// conjunctType resolves every reference of the conjunct (attributes,
// quantifier and aggregate targets) to its atom type within the structure
// — unqualified attributes resolve to the unique declaring component type,
// mirroring molecule-binding semantics — and reports whether they all
// name one single type.
func conjunctType(db *storage.Database, desc *core.Desc, c expr.Expr) (string, bool) {
	// Fast path for the dominant shape: attribute vs constant, qualified
	// or naming the one type there is.
	if a, _, _, ok := attrConstCmp(c); ok {
		switch {
		case a.Type != "":
			return a.Type, desc.HasType(a.Type)
		case desc.NumTypes() == 1:
			return desc.Root(), true
		}
	}
	types := make(map[string]bool)
	for t := range expr.TypesReferenced(c) {
		if t == "" {
			continue
		}
		types[t] = true
	}
	for _, a := range expr.References(c) {
		if a.Type != "" {
			continue
		}
		t, err := core.ResolveUnqualified(db, desc, a.Name)
		if err != nil {
			return "", false
		}
		types[t] = true
	}
	if len(types) != 1 {
		return "", false
	}
	for t := range types {
		if !desc.HasType(t) {
			return "", false
		}
		return t, true
	}
	return "", false
}

// pushableShape reports whether a single-type conjunct may be evaluated
// per component atom with existential (OR) aggregation. That holds for
// comparisons whose attribute side is the bare attribute reference and
// whose other side is reference-free, and for disjunctions of such
// comparisons: molecule-level evaluation of these forms is existential
// over the component atoms, and ∃ distributes over OR. Negation,
// universal/count quantifiers and arithmetic over the multi-valued side
// do not commute with ∃ and stay in the residual filter.
func pushableShape(e expr.Expr) bool {
	switch n := e.(type) {
	case expr.Or:
		return pushableShape(n.L) && pushableShape(n.R)
	case expr.Cmp:
		if _, ok := n.L.(expr.Attr); ok && referenceFree(n.R) {
			return true
		}
		if _, ok := n.R.(expr.Attr); ok && referenceFree(n.L) {
			return true
		}
	}
	return false
}

// referenceFree reports that e mentions no attribute, quantifier or
// aggregate — it evaluates to the same constant under any binding.
func referenceFree(e expr.Expr) bool {
	return len(expr.TypesReferenced(e)) == 0
}

// estimateEqCount estimates how many atoms of typeName carry attr = v:
// histogram buckets when ANALYZE has built them (the estimate that stays
// honest under skew), the uniform occurrence/distinct-keys assumption
// otherwise.
func estimateEqCount(db *storage.Database, typeName, attr string, v model.Value, n int) (int, string) {
	if h, ok := db.Histogram(typeName, attr); ok && h.Total() > 0 {
		est := int(h.EstimateEq(v))
		if est > n {
			est = n
		}
		return est, SrcHistogram
	}
	keys, _ := db.IndexCardinality(typeName, attr)
	return estimateEqUniform(n, keys), SrcUniform
}

// estimateEqUniform is the PR-1 equality estimate: occurrence size
// divided by the index's distinct-key count, rounded up.
func estimateEqUniform(n, keys int) int {
	if keys <= 0 {
		return n
	}
	est := (n + keys - 1) / keys
	if est < 1 {
		est = 1
	}
	return est
}

// scaleEst scales a cardinality estimate by a selectivity, keeping a
// nonzero floor when the base was nonzero (an estimated-empty filter must
// not advertise an impossible zero).
func scaleEst(n int, sel float64) int {
	if n <= 0 {
		return 0
	}
	est := int(float64(n)*sel + 0.5)
	if est < 1 {
		est = 1
	}
	if est > n {
		est = n
	}
	return est
}

// evalErrBox captures the first evaluation error raised by a per-atom
// predicate; derivation fans out over the worker pool, so the capture
// must be safe for concurrent use. The failed flag gives hooks a cheap
// lock-free "is an error pending" probe on the hot path.
type evalErrBox struct {
	failed atomic.Bool
	mu     sync.Mutex
	err    error
}

func (b *evalErrBox) set(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.failed.Store(true)
}

func (b *evalErrBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// compilePreds compiles the plan's predicates on its first run — each
// conjunct once, its references resolved to columns and containers —
// and every later run of the plan reuses them.
func (p *Plan) compilePreds() error {
	if p.root != nil {
		return nil
	}
	root, ok := p.db.Container(p.Access.Root)
	if !ok {
		return fmt.Errorf("plan: atom type %q has no container", p.Access.Root)
	}
	if p.Access.Filter != nil {
		p.filter = expr.Compile(p.Access.Filter, expr.AtomScope{TypeName: p.Access.Root, Desc: root.Desc()})
	}
	for i := range p.Pushdowns {
		pd := &p.Pushdowns[i]
		if pd.c, ok = p.db.Container(pd.Type); !ok {
			return fmt.Errorf("plan: atom type %q has no container", pd.Type)
		}
		pd.pred = expr.Compile(pd.Conjunct, expr.AtomScope{TypeName: pd.Type, Desc: pd.c.Desc()})
	}
	scope := core.Scope{DB: p.db, Desc: p.desc}
	for i := range p.Residuals {
		p.Residuals[i].pred = expr.Compile(p.Residuals[i].Conjunct, scope)
	}
	p.root = root
	return nil
}

// atomPred returns the compiled per-atom predicate pred over c's atoms,
// reading through view. Evaluation errors surface through eb (first one
// wins). It judges through a reader of its own, so every worker takes
// its own predicate.
func (p *Plan) atomPred(c *storage.Container, pred expr.Pred, eb *evalErrBox, view storage.View) func(model.AtomID) bool {
	r := new(atomReader)
	return func(id model.AtomID) bool {
		a, ok := view.Atom(c, id)
		if !ok {
			return false
		}
		// Account the read like molecule-level evaluation does, so the
		// naive-vs-planned logical-work comparisons stay fair.
		p.db.Stats().AtomsFetched.Add(1)
		r[0] = a
		keep, err := pred(r)
		if err != nil {
			eb.set(err)
		}
		return err == nil && keep
	}
}

// atomReader is the expr.Reader of an atom-level predicate: its one
// slot holds the atom judged.
type atomReader [1]model.Atom

func (r *atomReader) Atoms(int) ([]model.Atom, error) { return r[:], nil }
func (r *atomReader) Count(int) int                   { return 1 }

// rankResiduals orders the residual chain by the (selectivity − 1)/cost
// criterion so short-circuit evaluation does the least expected work per
// molecule.
func (p *Plan) rankResiduals() {
	sort.SliceStable(p.Residuals, func(i, j int) bool {
		ri, rj := &p.Residuals[i], &p.Residuals[j]
		return residualRank(ri.Sel, ri.Cost) < residualRank(rj.Sel, rj.Cost)
	})
}

// resetActuals zeroes every execution actual before a run.
func (p *Plan) resetActuals() {
	p.Access.ActRoots, p.Access.ActSurvivors = 0, 0
	for i := range p.Access.Entries {
		e := &p.Access.Entries[i]
		e.ActEntries, e.ActRoots = 0, 0
	}
	p.Derived, p.Out, p.work = 0, 0, storage.WorkTally{}
	p.OrderPath, p.OrderCut = "", 0
	p.Executed = false
	for i := range p.Pushdowns {
		p.Pushdowns[i].Cut = 0
	}
	for i := range p.Residuals {
		p.Residuals[i].Evals, p.Residuals[i].Passed = 0, 0
	}
}

// rootFilter is the compiled Access.Filter as a per-root predicate
// reading through view; nil when the access path absorbed every root
// conjunct.
func (p *Plan) rootFilter(eb *evalErrBox, view storage.View) func(model.AtomID) bool {
	if p.filter == nil {
		return nil
	}
	return p.atomPred(p.root, p.filter, eb, view)
}

// Execute runs the plan and returns the qualifying molecules, filling
// the actual-cardinality fields: Stream, drained into a set. Execute
// never enlarges the database; algebra-mode callers propagate the
// returned set themselves (see Restrict).
func (p *Plan) Execute() (core.MoleculeSet, error) {
	return p.ExecuteIn(context.Background(), nil)
}

// ExecuteIn is Execute honoring a context — cancelling ctx stops the
// worker pool mid-derivation and returns ctx.Err() — and reading through
// txn's view (see StreamIn; nil pins the latest commit).
func (p *Plan) ExecuteIn(ctx context.Context, txn *storage.Txn) (core.MoleculeSet, error) {
	var set core.MoleculeSet
	if err := p.drain(ctx, txn, func(m *core.Molecule) { set = append(set, m) }); err != nil {
		return nil, err
	}
	return set, nil
}

// drain streams the plan through txn's view (nil pins the latest commit)
// and hands every molecule to fn.
func (p *Plan) drain(ctx context.Context, txn *storage.Txn, fn func(*core.Molecule)) error {
	st, err := p.StreamIn(ctx, txn)
	if err != nil {
		return err
	}
	defer st.Close()
	for m := range st.Seq() {
		fn(m)
	}
	return st.Err()
}

// CanCountFast reports whether the plan's roots alone decide its
// result: with no interior pushdowns and no residual chain, every root
// passing the root filter yields exactly one qualifying molecule (a root
// always derives). A one-type description always qualifies.
func (p *Plan) CanCountFast() bool {
	return len(p.Pushdowns) == 0 && len(p.Residuals) == 0
}

// ExecuteCountIn counts the plan's qualifying molecules through txn's
// view (see StreamIn; nil pins the latest commit for the call). When
// CanCountFast holds, the count is the roots-only run's — zero
// derivations, zero molecules materialized. Otherwise the counting rides
// the stream, where a LIMIT still ends derivation mid-run the moment the
// bound is reached.
func (p *Plan) ExecuteCountIn(ctx context.Context, txn *storage.Txn) (int, error) {
	if !p.CanCountFast() {
		n := 0
		if err := p.drain(ctx, txn, func(*core.Molecule) { n++ }); err != nil {
			return 0, err
		}
		return n, nil
	}
	if err := p.passingRoots(txn, func(model.AtomID) {}); err != nil {
		return 0, err
	}
	if p.Limit > 0 {
		p.Out = min(p.Out, p.Limit)
	}
	return p.Out, nil
}

// MatchIn returns the roots a CanCountFast plan qualifies, read through
// txn's view (see StreamIn; nil pins the latest commit for the call) —
// for a one-type description, the atoms the restriction selects, in the
// access path's order. Only the access path and the root filter run.
func (p *Plan) MatchIn(txn *storage.Txn) ([]model.AtomID, error) {
	if !p.CanCountFast() {
		return nil, errors.New("plan: the roots alone do not decide this plan's molecules")
	}
	var ids []model.AtomID
	err := p.passingRoots(txn, func(r model.AtomID) { ids = append(ids, r) })
	return ids, err
}

// passingRoots is the roots-only run: it opens the plan through txn's
// view, pulls the access path's roots and hands fn each one passing the
// root filter, recording the actuals as a drained stream would.
func (p *Plan) passingRoots(txn *storage.Txn, fn func(model.AtomID)) error {
	dv, own, err := p.open(txn)
	if err != nil {
		return err
	}
	if own != nil {
		defer own.Close()
	}
	p.resetActuals()
	if err := p.compilePreds(); err != nil {
		return err
	}
	eb := &evalErrBox{}
	filter := p.rootFilter(eb, dv.View())
	roots, err := p.roots(dv)
	if err != nil {
		return err
	}
	buf := make([]model.AtomID, 0, core.DefaultStreamBatch)
	for ids := roots(buf); len(ids) > 0 && !eb.failed.Load(); ids = roots(buf) {
		for _, r := range ids {
			if filter == nil || filter(r) {
				p.Access.ActRoots++
				fn(r)
			}
		}
	}
	if err := eb.get(); err != nil {
		return err
	}
	p.Out, p.Executed = p.Access.ActRoots, true
	return nil
}

// Render prints the plan tree with estimated and (when executed) actual
// cardinalities, leaves first — the EXPLAIN output.
func (p *Plan) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "structure: %s\n", p.desc)
	fmt.Fprintf(&b, "root:      %s\n", p.desc.Root())
	p.explain(&b)
	if p.Access.Filter != nil {
		fmt.Fprintf(&b, "           root filter %s before derivation\n", p.Access.Filter)
	}
	if p.Order != nil {
		dir := "asc"
		if p.Order.Desc {
			dir = "desc"
		}
		path := p.OrderPath
		if path == "" {
			path = p.orderPath()
		}
		line := fmt.Sprintf("order:     by %s.%s %s [%s]", p.desc.Root(), p.Order.Attr, dir, path)
		if path == OrderTopK {
			line += fmt.Sprintf(" (K=%d)", p.Limit)
			if p.Executed {
				line += fmt.Sprintf(" — bound cut %d of %d roots before derivation", p.OrderCut, p.Access.ActRoots)
			}
		}
		b.WriteString(line + "\n")
	}
	if len(p.Alternatives) > 1 {
		parts := make([]string, 0, len(p.Alternatives))
		for _, a := range p.Alternatives {
			s := fmt.Sprintf("%s (cost %s)", a.Label, approx(int(a.Cost+0.5)))
			if a.Chosen {
				s += " ← chosen"
			}
			parts = append(parts, s)
		}
		fmt.Fprintf(&b, "considered: %s\n", strings.Join(parts, "; "))
	}
	if p.desc.Closure() == nil {
		fmt.Fprintf(&b, "derive:    structure template over the atom network%s\n", p.actual(p.Derived))
	} else {
		line := fmt.Sprintf("derive:    reflexive edge followed to a fixpoint, semi-naive (est ≈%.1f atoms/root [%s]",
			p.derivCost, SrcLinkFan)
		if p.Derived > 0 {
			line += fmt.Sprintf(", actual %d at %.1f atoms/root", p.Derived, float64(p.work.AtomsFetched)/float64(p.Derived))
		} else {
			line += p.actual(p.Derived)
		}
		b.WriteString(line + ")\n")
	}
	for _, pd := range p.Pushdowns {
		line := fmt.Sprintf("pushdown:  Σ↓[%s] at %s (est atom sel %.2f [%s]) — cuts the subtree when no %s atom qualifies",
			pd.Conjunct, pd.Type, pd.Sel, pd.Source, pd.Type)
		if p.Executed {
			line += fmt.Sprintf(" (cut %d)", pd.Cut)
		}
		b.WriteString(line + "\n")
	}
	for i, r := range p.Residuals {
		line := fmt.Sprintf("residual:  %d. Σ[%s] (est sel %.2f [%s], cost %.1f)",
			i+1, r.Conjunct, r.Sel, r.Source, r.Cost)
		if p.Executed {
			line += fmt.Sprintf(" — passed %d/%d", r.Passed, r.Evals)
		}
		b.WriteString(line + "\n")
	}
	if p.Executed {
		fmt.Fprintf(&b, "output:    %d molecule(s)\n", p.Out)
	}
	return b.String()
}

// actual renders ", actual n" when the plan ran.
func (p *Plan) actual(n int) string {
	if !p.Executed {
		return ""
	}
	return fmt.Sprintf(", actual %d", n)
}

// approx renders an estimate as ≈n.
func approx(n int) string { return fmt.Sprintf("≈%d", n) }
