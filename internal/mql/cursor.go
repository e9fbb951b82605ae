package mql

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"mad/internal/core"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/recursive"
	"mad/internal/storage"
)

// queryOpts carries the per-query execution options of one QueryContext
// call; unset fields fall back to the session's SET defaults and the
// statement's own LIMIT clause.
type queryOpts struct {
	workers    int
	workersSet bool
	limit      int
	limitSet   bool
	noCache    bool
	// shapeKey, when set, plans through the shape-keyed plan-cache entry
	// of a PREPARE'd statement instead of the literal cache key.
	shapeKey string
}

// QueryOption tunes one QueryContext call. Options override the
// session-level SET defaults and the statement's LIMIT clause for this
// query only.
type QueryOption func(*queryOpts)

// WithWorkers bounds the worker pool the query's derivation fans out
// over: 0 selects all cores, 1 forces sequential execution.
func WithWorkers(n int) QueryOption {
	return func(o *queryOpts) { o.workers, o.workersSet = n, true }
}

// WithLimit caps the molecules the cursor delivers; the in-flight
// derivation is cancelled once the cap is reached. 0 removes a LIMIT
// the statement itself carries.
func WithLimit(n int) QueryOption {
	return func(o *queryOpts) { o.limit, o.limitSet = n, true }
}

// WithNoCache bypasses the plan cache for this query: the plan is
// compiled fresh and not memoized — useful for one-off ad-hoc
// statements that should not evict hot cached plans.
func WithNoCache() QueryOption {
	return func(o *queryOpts) { o.noCache = true }
}

// Cursor is the streaming result of one statement. For a non-recursive
// SELECT it wraps a plan.Stream: molecules arrive incrementally, in the
// deterministic root-aligned execution order, with the projection of the
// SELECT list applied molecule by molecule — the first result is
// available while the bulk of the root batch is still deriving, and
// cancelling the query's context stops the worker pool mid-derivation.
// Every other statement (DDL, DML, SHOW, EXPLAIN, recursive SELECT)
// executes eagerly and carries its Result immediately; Next then reports
// exhaustion straight away.
//
// A Cursor must be drained (Next returning nil, nil) or Closed; like its
// Session it is not safe for concurrent use.
type Cursor struct {
	db     *storage.Database
	stream *plan.Stream
	// rec is the streaming fixpoint of a recursive SELECT (stream and rec
	// are mutually exclusive); recType carries the recursion shape for
	// rendering.
	rec     *plan.FixpointStream
	recType *recursive.Type
	// desc is the delivered structure (the projected sub-description
	// when the SELECT list narrows); sub is non-nil when each molecule
	// must be pruned to it before delivery.
	desc  *core.Desc
	sub   *core.Desc
	attrs map[string][]string
	res   *Result // immediate result of a non-streaming statement
	n     int
}

// QueryContext parses and executes a single statement under ctx,
// returning a streaming Cursor. Cancelling ctx (or reaching its
// deadline) stops an in-flight SELECT mid-derivation; per-query options
// override the session's SET defaults.
func (s *Session) QueryContext(ctx context.Context, src string, opts ...QueryOption) (*Cursor, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.ExecuteStream(ctx, st, opts...)
}

// ExecuteStream is QueryContext over an already-parsed statement — the
// entry point for callers that manage their own parsing (the TCP server
// runs each statement of a request script through it).
func (s *Session) ExecuteStream(ctx context.Context, st Stmt, opts ...QueryOption) (*Cursor, error) {
	var o queryOpts
	for _, opt := range opts {
		opt(&o)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		r, err := s.Execute(st)
		if err != nil {
			return nil, err
		}
		return &Cursor{db: s.db, res: r}, nil
	}
	mt, rt, err := s.resolveFrom(sel.From)
	if err != nil {
		return nil, err
	}
	if rt != nil {
		return s.recursiveCursor(ctx, sel, rt, o)
	}
	desc := mt.Desc()
	if s.txn != nil && s.txn.Dirty() {
		// Read-your-writes: once the open transaction holds buffered
		// writes, the SELECT (plain, ordered, counted or grouped) derives
		// eagerly over its effective view so the session sees its own
		// uncommitted inserts, updates and connects. A clean transaction
		// stays on the streaming begin-snapshot path below.
		r, err := s.execSelectEff(ctx, sel, desc, o)
		if err != nil {
			return nil, err
		}
		return &Cursor{db: s.db, res: r}, nil
	}
	if sel.Count {
		// COUNT aggregates eagerly — a count (grouped or not) has no
		// molecules to stream; the fold itself still consumes the plan's
		// stream batch by batch without materializing the result set.
		r, err := s.execCount(ctx, sel, desc, o)
		if err != nil {
			return nil, err
		}
		return &Cursor{db: s.db, res: r}, nil
	}
	p, err := s.planSelect(sel, desc, o)
	if err != nil {
		return nil, err
	}
	// Validate the SELECT list before execution starts, exactly like the
	// materialized path does.
	sub, attrs, err := s.projectionSpec(sel, desc)
	if err != nil {
		return nil, err
	}
	stream, err := p.StreamAt(ctx, s.readSnapshot())
	if err != nil {
		return nil, err
	}
	c := &Cursor{db: s.db, stream: stream, desc: desc, sub: sub, attrs: attrs}
	if sub != nil {
		c.desc = sub
	}
	return c, nil
}

// recursiveCursor compiles a recursive SELECT into a planned streaming
// fixpoint (plan.CompileFixpoint): the entry contest seeds the closure
// from an indexed root equality when one wins, the remaining WHERE
// conjuncts prune seed roots before expansion, and completed molecules
// stream out at a snapshot pinned for the whole closure. COUNT (and
// GROUP BY over the root attribute) folds off the stream's batches like
// the plain-select path; anything non-streaming returns an immediate
// Result cursor.
func (s *Session) recursiveCursor(ctx context.Context, sel *SelectStmt, rt *recursive.Type, o queryOpts) (*Cursor, error) {
	if !sel.All && !sel.Count {
		return nil, fmt.Errorf("mql: recursive SELECT supports ALL only")
	}
	// Sessions always feed execution observations back into the cost
	// model (the non-recursive path opts in through plan.CacheFor).
	plan.FeedbackFor(s.db)
	p, err := plan.CompileFixpoint(s.db, rt.AtomType, rt.Link, rt.Up, rt.Depth, sel.Where)
	if err != nil {
		return nil, err
	}
	p.Workers = s.workers
	if o.workersSet {
		p.Workers = o.workers
	}
	p.Limit = sel.Limit
	if o.limitSet {
		p.Limit = o.limit
	}
	if sel.Count {
		r, err := s.recursiveCount(ctx, sel, rt, p)
		if err != nil {
			return nil, err
		}
		return &Cursor{db: s.db, res: r}, nil
	}
	st, err := p.StreamAt(ctx, s.readSnapshot())
	if err != nil {
		return nil, err
	}
	return &Cursor{db: s.db, rec: st, recType: rt}, nil
}

// recursiveCount folds SELECT COUNT [GROUP BY attr] over the streaming
// fixpoint: molecules are counted (or bucketed by their root's attribute
// value, read at the stream's snapshot) batch by batch and never
// materialized. For the grouped form LIMIT caps the buckets reported,
// not the molecules folded into them.
func (s *Session) recursiveCount(ctx context.Context, sel *SelectStmt, rt *recursive.Type, p *plan.FixpointPlan) (*Result, error) {
	var groupPos int
	var rootC *storage.Container
	if sel.GroupBy != nil {
		g := sel.GroupBy
		if g.Type != "" && g.Type != rt.AtomType {
			return nil, fmt.Errorf("mql: GROUP BY %s.%s: recursive molecules group by their root type %q",
				g.Type, g.Attr, rt.AtomType)
		}
		var ok bool
		rootC, ok = s.db.Container(rt.AtomType)
		if !ok {
			return nil, fmt.Errorf("mql: atom type %q has no container", rt.AtomType)
		}
		if groupPos, ok = rootC.Desc().Lookup(g.Attr); !ok {
			return nil, fmt.Errorf("mql: root type %q has no attribute %q", rt.AtomType, g.Attr)
		}
	}
	limit := p.Limit
	if sel.GroupBy != nil {
		p.Limit = 0 // LIMIT caps groups, not the molecules folded into them
	}
	st, err := p.StreamAt(ctx, s.readSnapshot())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ts := st.SnapshotTS()
	n := 0
	counts := make(map[model.Key]*GroupCount)
	for {
		m, err := st.Next()
		if err != nil {
			return nil, err
		}
		if m == nil {
			break
		}
		if sel.GroupBy == nil {
			n++
			continue
		}
		a, ok := rootC.GetAt(m.Root, ts)
		if !ok {
			continue
		}
		v := a.Get(groupPos)
		k := v.Key()
		gc := counts[k]
		if gc == nil {
			gc = &GroupCount{Value: v}
			counts[k] = gc
		}
		gc.Count++
	}
	if sel.GroupBy == nil {
		return &Result{Kind: RCount, Count: n}, nil
	}
	groups := make([]GroupCount, 0, len(counts))
	for _, gc := range counts {
		groups = append(groups, *gc)
	}
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].Value.Compare(groups[j].Value) < 0
	})
	if limit > 0 && len(groups) > limit {
		groups = groups[:limit]
	}
	return &Result{Kind: RCount, GroupAttr: sel.GroupBy.Attr, Groups: groups}, nil
}

// Streaming reports whether the cursor delivers molecules incrementally
// (a planned SELECT, recursive or not) or carries an immediate Result.
func (c *Cursor) Streaming() bool { return c.stream != nil || c.rec != nil }

// RecStreaming reports whether the cursor streams recursive molecules
// (consume them with NextRec; Next always reports exhaustion).
func (c *Cursor) RecStreaming() bool { return c.rec != nil }

// RecAtomType returns the component atom type of a recursive cursor's
// molecules ("" otherwise) — what RenderRecMoleculeAt renders them as.
func (c *Cursor) RecAtomType() string {
	if c.recType == nil {
		return ""
	}
	return c.recType.AtomType
}

// NextRec returns the next molecule of a streaming recursive SELECT. A
// nil molecule with a nil error means exhaustion (immediately so for
// non-recursive cursors); errors are terminal.
func (c *Cursor) NextRec() (*recursive.Molecule, error) {
	if c.rec == nil {
		return nil, nil
	}
	m, err := c.rec.Next()
	if m == nil || err != nil {
		return nil, err
	}
	c.n++
	return m, nil
}

// Desc returns the description of the delivered molecules (after
// projection); nil for non-streaming statements.
func (c *Cursor) Desc() *core.Desc { return c.desc }

// Attrs returns the SELECT list's per-type attribute narrowing (nil
// when every attribute is delivered).
func (c *Cursor) Attrs() map[string][]string { return c.attrs }

// Next returns the next molecule of a streaming SELECT, with the
// statement's projection applied. A nil molecule with a nil error means
// the cursor is exhausted (immediately so for non-streaming
// statements); errors are terminal.
func (c *Cursor) Next() (*core.Molecule, error) {
	if c.stream == nil {
		return nil, nil
	}
	m, err := c.stream.Next()
	if m == nil || err != nil {
		return nil, err
	}
	if c.sub != nil {
		m = m.PruneTo(c.sub)
	}
	c.n++
	return m, nil
}

// Seq adapts the cursor to a Go 1.23 range-over-func iterator; after
// the loop, Err reports whether iteration ended by exhaustion or error,
// and breaking out early leaves the cursor open (Close it).
func (c *Cursor) Seq() iter.Seq[*core.Molecule] {
	return func(yield func(*core.Molecule) bool) {
		for {
			m, err := c.Next()
			if m == nil || err != nil {
				return
			}
			if !yield(m) {
				return
			}
		}
	}
}

// Err returns the cursor's terminal error, nil while molecules are
// still flowing and after clean exhaustion.
func (c *Cursor) Err() error {
	switch {
	case c.stream != nil:
		return c.stream.Err()
	case c.rec != nil:
		return c.rec.Err()
	}
	return nil
}

// Delivered counts the molecules handed out so far.
func (c *Cursor) Delivered() int { return c.n }

// SnapshotTS returns the commit timestamp a streaming SELECT's cursor is
// pinned to (0 for non-streaming statements). Rendering molecules with
// RenderMoleculeAt at this timestamp keeps attribute values consistent
// with the structure the cursor derived.
func (c *Cursor) SnapshotTS() uint64 {
	switch {
	case c.stream != nil:
		return c.stream.SnapshotTS()
	case c.rec != nil:
		return c.rec.SnapshotTS()
	}
	return 0
}

// Result drains the cursor and materializes the remaining molecules
// into a classic Result — the collect-all bridge Exec is built on. For
// non-streaming statements it returns the immediate result.
//
// Attribute values are resolved molecule by molecule DURING the drain,
// while the stream's snapshot is still pinned: exhausting the stream
// releases its pin, and a commit-plus-vacuum between drain and a later
// Render could otherwise reclaim the versions at the cursor's timestamp
// and silently degrade rendered atoms to bare ids.
func (c *Cursor) Result() (*Result, error) {
	if c.rec != nil {
		return c.recResult()
	}
	if c.stream == nil {
		return c.res, nil
	}
	ts := c.SnapshotTS()
	atoms := make(map[model.AtomID]model.Atom)
	containers := make(map[string]*storage.Container)
	set := core.MoleculeSet{}
	for {
		m, err := c.Next()
		if err != nil {
			return nil, err
		}
		if m == nil {
			break
		}
		for _, typeName := range m.Desc().Types() {
			cont, ok := containers[typeName]
			if !ok {
				cont, _ = c.db.Container(typeName)
				containers[typeName] = cont
			}
			if cont == nil {
				continue
			}
			for _, id := range m.AtomsOf(typeName) {
				if _, done := atoms[id]; done {
					continue
				}
				if a, ok := cont.GetAt(id, ts); ok {
					atoms[id] = a
				}
			}
		}
		set = append(set, m)
	}
	return &Result{Kind: RMolecules, Set: set, Desc: c.desc, Attrs: c.attrs, TS: ts, atoms: atoms}, nil
}

// recResult drains a recursive cursor, resolving each molecule's atom
// values while the fixpoint's snapshot is still pinned — the same
// drain-then-render hazard the molecule path guards against.
func (c *Cursor) recResult() (*Result, error) {
	ts := c.SnapshotTS()
	cont, _ := c.db.Container(c.recType.AtomType)
	atoms := make(map[model.AtomID]model.Atom)
	var set []*recursive.Molecule
	for {
		m, err := c.NextRec()
		if err != nil {
			return nil, err
		}
		if m == nil {
			break
		}
		if cont != nil {
			for _, id := range m.Atoms() {
				if _, done := atoms[id]; done {
					continue
				}
				if a, ok := cont.GetAt(id, ts); ok {
					atoms[id] = a
				}
			}
		}
		set = append(set, m)
	}
	return &Result{Kind: RRecursive, RecSet: set, RecType: c.recType, TS: ts, atoms: atoms}, nil
}

// Close cancels an in-flight SELECT, waits for its workers to wind down
// and releases the cursor; it is idempotent and a no-op for
// non-streaming statements.
func (c *Cursor) Close() error {
	switch {
	case c.stream != nil:
		return c.stream.Close()
	case c.rec != nil:
		return c.rec.Close()
	}
	return nil
}
