package plan

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/recursive"
	"mad/internal/storage"
)

// This file is the recursion subsystem: it compiles a recursive molecule
// type (one atom type closed over one direction of a reflexive link type,
// the Chapter 5 BOM shape) into a planned, streaming semi-naive delta
// fixpoint. Where the seed internal/recursive package derives eagerly —
// every root, latest state, full materialization before the first result
// — a FixpointPlan contests its entry point on the link-fan statistics,
// pins one MVCC snapshot for the whole closure, prunes non-qualifying
// roots before a single link is traversed, expands frontiers in parallel
// over a bounded worker pool, and emits each molecule the moment its own
// closure finishes. DEPTH bounds the per-root iteration; LIMIT cancels
// the in-flight rounds once the cap is reached.

// FixAccessKind names a fixpoint plan's root entry path.
type FixAccessKind int

const (
	// FixScan seeds the closure from every atom of the component type, in
	// container order.
	FixScan FixAccessKind = iota
	// FixIndexEq seeds the closure from the atoms matching an indexed
	// equality on the component type — the part-number probe of the BOM
	// workload, which explodes one assembly instead of all of them.
	FixIndexEq
)

// fixMaxEstRounds caps the rounds the closure-size estimate unrolls for
// an unbounded (DEPTH 0) recursion: past this the geometric series has
// either converged (fan < 1) or hit the container-size cap anyway.
const fixMaxEstRounds = 8

// fixRootBatch is how many seed roots one worker expands per dispatch —
// small enough that the first completed closures reach the consumer while
// the bulk of the seed batch is still deriving.
const fixRootBatch = 32

// FixpointPlan is a compiled recursive derivation: the recursion shape,
// the contested entry path, the closure-size estimate the contest was
// costed with, and — after execution — the fixpoint actuals.
type FixpointPlan struct {
	db    *storage.Database
	epoch uint64
	// rootConjs are the WHERE conjuncts evaluated per seed root at the
	// snapshot timestamp, before any expansion: the prune hooks. The
	// entry conjunct (already exact via the index) is excluded.
	rootConjs []expr.Expr
	entryVal  model.Value

	// AtomType, Link, Up, Depth are the recursion shape: the component
	// atom type closed over one direction of the reflexive link type,
	// optionally depth-bounded.
	AtomType string
	Link     string
	Up       bool
	Depth    int

	// EntryKind is the chosen entry path; EntryAttr/EntryValue identify
	// the indexed equality when EntryKind is FixIndexEq.
	EntryKind   FixAccessKind
	EntryAttr   string
	EstRoots    int
	EntrySource string

	// EstClosure is the estimated closure size per seed root (atoms,
	// including the root) from AvgFan^depth capped by the container size;
	// EstRounds the rounds that estimate unrolled; ClosureSource its
	// provenance ([link-fan], or [observed] once feedback calibrated it).
	EstClosure    float64
	EstRounds     int
	ClosureSource string

	// Alternatives records the entry contest.
	Alternatives []Alternative

	// Workers bounds the expansion pool (0 = all cores); Limit caps the
	// molecules delivered, cancelling in-flight rounds at the cap.
	Workers int
	Limit   int

	// Execution actuals, valid once Executed: seed roots that entered the
	// closure (after prune hooks), roots the hooks cut, the deepest
	// fixpoint round any molecule ran, total frontier atoms expanded,
	// total atoms visited across all closures, molecules delivered.
	ActRoots      int
	PrunedRoots   int
	Rounds        int
	FrontierAtoms int
	VisitedAtoms  int
	Out           int
	Executed      bool
}

// CompileFixpoint plans a recursive derivation over atomType closed under
// one direction of the reflexive link type. The WHERE predicate (may be
// nil) restricts the seed roots: an indexed equality conjunct is eligible
// to seed the closure straight from the index, every other conjunct
// becomes a per-root prune hook evaluated before expansion. The entry
// contest weighs full scan against each indexed equality using the
// histogram/uniform root estimate and the link-fan closure estimate.
func CompileFixpoint(db *storage.Database, atomType, link string, up bool, depth int, pred expr.Expr) (*FixpointPlan, error) {
	c, ok := db.Container(atomType)
	if !ok {
		return nil, fmt.Errorf("plan: unknown atom type %q", atomType)
	}
	lt, ok := db.Schema().LinkType(link)
	if !ok {
		return nil, fmt.Errorf("plan: unknown link type %q", link)
	}
	if !lt.Desc.Reflexive() || lt.Desc.SideA != atomType {
		return nil, fmt.Errorf("plan: link type %q is not reflexive on %q", link, atomType)
	}
	if depth < 0 {
		return nil, fmt.Errorf("plan: negative depth")
	}
	for t := range expr.TypesReferenced(pred) {
		if t != "" && t != atomType {
			return nil, fmt.Errorf("plan: recursive WHERE references %q; only %q is in scope", t, atomType)
		}
	}
	ls, _ := db.LinkStore(link)
	n := c.Len()

	p := &FixpointPlan{
		db:       db,
		epoch:    db.PlanEpoch(),
		AtomType: atomType,
		Link:     link,
		Up:       up,
		Depth:    depth,
	}

	// Closure-size estimate: the geometric frontier series Σ fan^d capped
	// by the container (a closure cannot hold more atoms than exist).
	// Traversal down expands A→B partners, so the per-atom fan is the
	// link occurrence over the A-side population — AvgFan(!up).
	fan := 0.0
	if ls != nil {
		fan = ls.AvgFan(!up)
	}
	p.EstClosure, p.EstRounds = estimateFixClosure(fan, depth, n)
	p.ClosureSource = SrcLinkFan
	if obs, ok := feedbackLookup(db).observed(ratioFixpoint, fixKey(atomType, link, up, depth)); ok {
		p.EstClosure, p.ClosureSource = obs, SrcObserved
	}

	// Entry contest: full scan enters every root that survives the WHERE
	// selectivity; an indexed equality enters only the matching roots.
	// Either way each entering root pays one estimated closure.
	conjs := splitConjuncts(pred)
	scanSel, scanSrc := 1.0, ""
	for _, cj := range conjs {
		sel, src := fixConjSelectivity(db, atomType, cj)
		scanSel *= sel
		scanSrc = combineSource(scanSrc, src)
	}
	entering := scaleEst(n, clampSel(scanSel))
	scanCost := float64(n) + float64(entering)*p.EstClosure
	p.Alternatives = append(p.Alternatives, Alternative{
		Label: fmt.Sprintf("fixpoint scan %s (≈%d of %d roots enter ×≈%.1f atoms)", atomType, entering, n, p.EstClosure),
		Cost:  scanCost,
	})
	p.EntryKind, p.EstRoots, p.EntrySource = FixScan, n, SrcContainer
	best, bestOrd := scanCost, -1
	for ord, cj := range conjs {
		attr, v, ok := indexableEq(cj, db, atomType)
		if !ok {
			continue
		}
		est, src := estimateEqCount(db, atomType, attr, v, n)
		cost := float64(est) + float64(est)*p.EstClosure
		alt := Alternative{
			Label: fmt.Sprintf("fixpoint index %s.%s = %s (≈%d roots ×≈%.1f atoms)", atomType, attr, v, est, p.EstClosure),
			Cost:  cost,
		}
		if cost < best {
			best, bestOrd = cost, ord
			p.EntryKind, p.EntryAttr, p.entryVal = FixIndexEq, attr, v
			p.EstRoots, p.EntrySource = est, src
		}
		p.Alternatives = append(p.Alternatives, alt)
	}
	chosen := 0
	if bestOrd >= 0 {
		// Alternatives are appended scan-first, then one per indexable
		// conjunct in conjunct order; recover the winner's position.
		pos := 1
		for ord := range conjs {
			if _, _, ok := indexableEq(conjs[ord], db, atomType); !ok {
				continue
			}
			if ord == bestOrd {
				chosen = pos
				break
			}
			pos++
		}
	}
	p.Alternatives[chosen].Chosen = true

	// Every non-entry conjunct prunes seed roots before expansion. The
	// index already guarantees the entry equality exactly, so it drops
	// out of the hook chain.
	for ord, cj := range conjs {
		if ord == bestOrd {
			continue
		}
		p.rootConjs = append(p.rootConjs, cj)
	}
	return p, nil
}

// estimateFixClosure unrolls the frontier series 1 + fan + fan² + … for
// depth rounds (fixMaxEstRounds when unbounded), capping the running
// total at the container size.
func estimateFixClosure(fan float64, depth, n int) (float64, int) {
	rounds := depth
	if rounds == 0 || rounds > fixMaxEstRounds {
		rounds = fixMaxEstRounds
	}
	total, level := 1.0, 1.0
	for d := 1; d <= rounds; d++ {
		level *= fan
		total += level
		if n > 0 && total >= float64(n) {
			return float64(n), d
		}
		if level < 0.5 {
			// The frontier has died out; further rounds add nothing.
			return total, d
		}
	}
	return total, rounds
}

// fixConjSelectivity estimates an atom-level conjunct's selectivity over
// the recursion's component type (there is no molecule description to
// resolve against, so this is conjSelectivity's single-type core).
func fixConjSelectivity(db *storage.Database, atomType string, c expr.Expr) (float64, string) {
	if a, op, v, ok := attrConstCmp(c); ok {
		return cmpSelectivity(db, atomType, a.Name, op, v)
	}
	return defSelOther, SrcDefault
}

// fixKey is the feedback key of one recursion shape: the closure size a
// run observes depends on the traversal direction and the depth bound,
// not on which roots seeded it.
func fixKey(atomType, link string, up bool, depth int) string {
	dir := "down"
	if up {
		dir = "up"
	}
	return fmt.Sprintf("%s\x00%s\x00%s\x00%d", atomType, link, dir, depth)
}

// fixAtomPred compiles a conjunct into a per-root predicate at commit
// timestamp ts, mirroring Plan.atomPred (same stats accounting, same
// concurrent-safe error capture).
func fixAtomPred(db *storage.Database, typeName string, conjunct expr.Expr, eb *evalErrBox, ts uint64) (func(model.AtomID) bool, error) {
	c, ok := db.Container(typeName)
	if !ok {
		return nil, fmt.Errorf("plan: atom type %q has no container", typeName)
	}
	desc := c.Desc()
	return func(id model.AtomID) bool {
		a, ok := c.GetAt(id, ts)
		if !ok {
			return false
		}
		db.Stats().AtomsFetched.Add(1)
		keep, err := expr.EvalPredicate(conjunct, expr.AtomBinding{TypeName: typeName, Desc: desc, Atom: a})
		if err != nil {
			eb.set(err)
		}
		return err == nil && keep
	}, nil
}

// FixpointStream is the incremental cursor over a fixpoint plan's
// molecules: worker batches land on a bounded channel as their closures
// finish, in deterministic seed order. Like plan.Stream it must be
// drained or Closed, and is not safe for concurrent use.
type FixpointStream struct {
	p      *FixpointPlan
	cancel context.CancelFunc

	snap    *storage.Snapshot
	ownSnap bool

	batches chan []*recursive.Molecule
	errc    chan error

	cur  []*recursive.Molecule
	idx  int
	done bool
	err  error
}

// SnapshotTS reports the commit timestamp the whole closure is pinned
// to: every seed lookup, prune-hook read and frontier expansion resolved
// against this one committed state.
func (st *FixpointStream) SnapshotTS() uint64 { return st.snap.TS() }

// Stream starts the fixpoint and returns the cursor, pinning a snapshot
// of the latest commit for the duration of the run.
func (p *FixpointPlan) Stream(ctx context.Context) (*FixpointStream, error) {
	return p.StreamAt(ctx, nil)
}

// StreamAt is Stream reading through a caller-supplied snapshot (a
// transaction's begin snapshot); the caller keeps ownership. A nil
// snapshot pins the latest commit.
func (p *FixpointPlan) StreamAt(ctx context.Context, snap *storage.Snapshot) (*FixpointStream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ownSnap := snap == nil
	if ownSnap {
		snap = p.db.Snapshot()
	}
	p.ActRoots, p.PrunedRoots, p.Rounds, p.FrontierAtoms, p.VisitedAtoms, p.Out = 0, 0, 0, 0, 0, 0
	p.Executed = false

	eb := &evalErrBox{}
	preds := make([]func(model.AtomID) bool, len(p.rootConjs))
	var err error
	for i, cj := range p.rootConjs {
		preds[i], err = fixAtomPred(p.db, p.AtomType, cj, eb, snap.TS())
		if err != nil {
			if ownSnap {
				snap.Close()
			}
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	st := &FixpointStream{
		p:       p,
		cancel:  cancel,
		snap:    snap,
		ownSnap: ownSnap,
		batches: make(chan []*recursive.Molecule, streamBufBatches),
		errc:    make(chan error, 1),
	}
	go st.run(ctx, eb, preds)
	return st, nil
}

func (st *FixpointStream) release() {
	if st.ownSnap {
		st.snap.Close()
	}
}

// fixResult is one worker batch: the finished molecules plus the batch's
// fixpoint actuals.
type fixResult struct {
	ms       []*recursive.Molecule
	rounds   int
	frontier int
	visited  int
	err      error
}

// run is the producer: seed the roots through the chosen entry path,
// prune them with the WHERE hooks, expand the survivors' closures over
// the worker pool (deterministic seed order, bounded in-flight batches),
// and hand each finished batch to the consumer. LIMIT cancels the
// in-flight rounds once the cap is delivered.
func (st *FixpointStream) run(ctx context.Context, eb *evalErrBox, preds []func(model.AtomID) bool) {
	defer close(st.batches)
	p := st.p
	ts := st.snap.TS()

	ls, ok := p.db.LinkStore(p.Link)
	if !ok {
		st.errc <- fmt.Errorf("plan: link store %q vanished between compile and execute", p.Link)
		return
	}
	var roots []model.AtomID
	switch p.EntryKind {
	case FixIndexEq:
		ids, ok := p.db.IndexLookupAt(p.AtomType, p.EntryAttr, p.entryVal, ts)
		if !ok {
			st.errc <- fmt.Errorf("plan: index on %s.%s vanished between compile and execute", p.AtomType, p.EntryAttr)
			return
		}
		roots = ids
	default:
		c, ok := p.db.Container(p.AtomType)
		if !ok {
			st.errc <- errors.New("plan: root container vanished between compile and execute")
			return
		}
		roots = c.IDsAt(ts)
	}

	// Prune hooks: non-qualifying roots are cut here, before a single
	// link of their closure is traversed.
	seeds := roots
	if len(preds) > 0 {
		seeds = make([]model.AtomID, 0, len(roots))
		for _, id := range roots {
			keep := true
			for _, pr := range preds {
				if !pr(id) {
					keep = false
					break
				}
			}
			if eb.failed.Load() {
				st.errc <- eb.get()
				return
			}
			if keep {
				seeds = append(seeds, id)
			}
		}
		p.PrunedRoots = len(roots) - len(seeds)
	}
	p.ActRoots = len(seeds)

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Ordered parallel expansion: the dispatcher enqueues one result slot
	// per seed batch in seed order and spawns its worker; the queue's
	// capacity bounds the in-flight batches at workers+1, and reading the
	// slots in queue order restores the deterministic delivery order
	// whatever order the workers finish in.
	queue := make(chan chan fixResult, workers+1)
	go func() {
		defer close(queue)
		for start := 0; start < len(seeds); start += fixRootBatch {
			end := start + fixRootBatch
			if end > len(seeds) {
				end = len(seeds)
			}
			batch := seeds[start:end]
			resc := make(chan fixResult, 1)
			select {
			case queue <- resc:
			case <-ctx.Done():
				return
			}
			go func() {
				resc <- expandFixBatch(ctx, p, ls, batch, ts)
			}()
		}
	}()

	delivered := 0
	limited := false
	var runErr error
	for resc := range queue {
		r := <-resc
		if r.err != nil {
			if runErr == nil {
				runErr = r.err
			}
			break
		}
		if r.rounds > p.Rounds {
			p.Rounds = r.rounds
		}
		p.FrontierAtoms += r.frontier
		p.VisitedAtoms += r.visited
		ms := r.ms
		if p.Limit > 0 {
			if rest := p.Limit - delivered; len(ms) >= rest {
				ms, limited = ms[:rest], true
			}
		}
		if len(ms) > 0 {
			select {
			case st.batches <- ms:
				delivered += len(ms)
			case <-ctx.Done():
				if runErr == nil {
					runErr = ctx.Err()
				}
			}
		}
		if limited || runErr != nil {
			break
		}
	}
	if limited || runErr != nil {
		// Cancel the in-flight rounds and wait for every outstanding
		// worker to notice: each queued slot is guaranteed a result
		// (workers send into a buffered channel), so draining the queue
		// joins the pool without leaking goroutines.
		st.cancel()
		for resc := range queue {
			<-resc
		}
	}
	if runErr == nil {
		runErr = eb.get()
	}
	if runErr != nil && errors.Is(runErr, context.Canceled) && limited {
		runErr = nil
	}
	if runErr != nil {
		st.errc <- runErr
		return
	}

	p.Out = delivered
	p.Executed = true
	if !limited && ctx.Err() == nil && p.ActRoots > 0 {
		// Only a complete run observed the true closure shape; a
		// truncated one saw a biased prefix.
		feedbackLookup(p.db).recordFixpoint(p, fixKey(p.AtomType, p.Link, p.Up, p.Depth),
			float64(p.VisitedAtoms)/float64(p.ActRoots))
	}
	st.errc <- nil
}

// expandFixBatch derives the closures of one seed batch — per root the
// same semi-naive iteration as recursive.Type.DeriveFor (frontier-only
// expansion, visited-set cycle detection, identical Levels/Links shape
// and work accounting), but reading links at the pinned snapshot.
func expandFixBatch(ctx context.Context, p *FixpointPlan, ls *storage.LinkStore, seeds []model.AtomID, ts uint64) fixResult {
	var r fixResult
	r.ms = make([]*recursive.Molecule, 0, len(seeds))
	for _, root := range seeds {
		if err := ctx.Err(); err != nil {
			r.err = err
			return r
		}
		m := &recursive.Molecule{Root: root, Levels: [][]model.AtomID{{root}}}
		visited := map[model.AtomID]bool{root: true}
		frontier := []model.AtomID{root}
		for depth := 1; len(frontier) > 0 && (p.Depth == 0 || depth <= p.Depth); depth++ {
			if err := ctx.Err(); err != nil {
				r.err = err
				return r
			}
			if depth > r.rounds {
				r.rounds = depth
			}
			r.frontier += len(frontier)
			var next []model.AtomID
			for _, a := range frontier {
				var partners []model.AtomID
				if p.Up {
					partners = ls.PartnersFromBAt(a, ts)
				} else {
					partners = ls.PartnersFromAAt(a, ts)
				}
				p.db.Stats().LinksTraversed.Add(int64(len(partners)) + 1)
				for _, q := range partners {
					m.Links = append(m.Links, model.Link{A: a, B: q})
					if visited[q] {
						continue // cycle or reconvergence: include once
					}
					visited[q] = true
					next = append(next, q)
				}
			}
			if len(next) > 0 {
				m.Levels = append(m.Levels, next)
			}
			frontier = next
		}
		p.db.Stats().AtomsFetched.Add(int64(m.Size()))
		r.visited += m.Size()
		r.ms = append(r.ms, m)
	}
	return r
}

// Next returns the next finished molecule; nil, nil means exhaustion,
// errors are terminal.
func (st *FixpointStream) Next() (*recursive.Molecule, error) {
	if st.done {
		return nil, st.err
	}
	for st.idx >= len(st.cur) {
		batch, ok := <-st.batches
		if !ok {
			st.err = <-st.errc
			st.done = true
			st.cur, st.idx = nil, 0
			st.release()
			return nil, st.err
		}
		st.cur, st.idx = batch, 0
	}
	m := st.cur[st.idx]
	st.idx++
	return m, nil
}

// Err returns the stream's terminal error, nil while molecules are still
// flowing and after clean exhaustion.
func (st *FixpointStream) Err() error { return st.err }

// Close cancels the in-flight fixpoint, waits for the workers to wind
// down and releases the snapshot pin; idempotent, and like Stream.Close
// it swallows the cancellation it caused itself.
func (st *FixpointStream) Close() error {
	st.cancel()
	if !st.done {
		for range st.batches {
			// Drain abandoned batches so the producer can finish.
		}
		if e := <-st.errc; e != nil && !errors.Is(e, context.Canceled) && st.err == nil {
			st.err = e
		}
		st.done = true
		st.cur, st.idx = nil, 0
	}
	st.release()
	if errors.Is(st.err, context.Canceled) {
		return nil
	}
	return st.err
}

// Execute drains a fresh stream into a materialized slice — the
// collect-all bridge the experiments and EXPLAIN use.
func (p *FixpointPlan) Execute(ctx context.Context) ([]*recursive.Molecule, error) {
	st, err := p.Stream(ctx)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []*recursive.Molecule
	for {
		m, err := st.Next()
		if err != nil {
			return nil, err
		}
		if m == nil {
			return out, nil
		}
		out = append(out, m)
	}
}

// Render prints the fixpoint plan with estimated and (when executed)
// actual figures — the EXPLAIN output for recursive SELECTs.
func (p *FixpointPlan) Render() string {
	var b strings.Builder
	view := "sub-component view"
	if p.Up {
		view = "super-component view"
	}
	shape := fmt.Sprintf("%s ⟲ %s (%s", p.AtomType, p.Link, view)
	if p.Depth > 0 {
		shape += fmt.Sprintf(", depth ≤ %d", p.Depth)
	}
	shape += ")"
	fmt.Fprintf(&b, "recursive: %s\n", shape)
	switch p.EntryKind {
	case FixIndexEq:
		fmt.Fprintf(&b, "access:    [fixpoint] index entry %s.%s = %s (est %s roots [%s]%s)\n",
			p.AtomType, p.EntryAttr, p.entryVal,
			approx(p.EstRoots), p.EntrySource, p.fixActual(p.ActRoots))
	default:
		fmt.Fprintf(&b, "access:    [fixpoint] full scan of %s (est %s roots [%s]%s)\n",
			p.AtomType, approx(p.EstRoots), p.EntrySource, p.fixActual(p.ActRoots))
	}
	for _, cj := range p.rootConjs {
		line := fmt.Sprintf("pushdown:  Σ↓[%s] prunes seed roots before expansion", cj)
		if p.Executed {
			line += fmt.Sprintf(" (cut %d)", p.PrunedRoots)
		}
		b.WriteString(line + "\n")
	}
	fmt.Fprintf(&b, "closure:   est ≈%.1f atoms/root over ≤%d round(s) [%s]\n",
		p.EstClosure, p.EstRounds, p.ClosureSource)
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
	b.WriteString("derive:    semi-naive delta fixpoint (frontier-only expansion, visited-set cycle detection, streamed per closure)\n")
	if p.Executed {
		fmt.Fprintf(&b, "actuals:   [fixpoint] rounds %d, frontier %d, visited %d\n",
			p.Rounds, p.FrontierAtoms, p.VisitedAtoms)
		fmt.Fprintf(&b, "output:    %d molecule(s)\n", p.Out)
	}
	return b.String()
}

func (p *FixpointPlan) fixActual(n int) string {
	if !p.Executed {
		return ""
	}
	return fmt.Sprintf(", actual %d", n)
}
