package mql

import (
	"context"
	"iter"

	"mad/internal/core"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/storage"
)

// Cursor is the streaming result of one statement. For a SELECT — over a
// plain structure or a recursive one — it wraps a plan.Stream: molecules
// arrive incrementally, in the deterministic root-aligned execution
// order, with the projection of the SELECT list applied molecule by
// molecule — the first result is available while the bulk of the root
// batch is still deriving, and cancelling the query's context stops the
// worker pool mid-derivation. Every other statement (DDL, DML, SHOW,
// EXPLAIN, SELECT COUNT, a SELECT inside a transaction holding buffered
// writes) executes eagerly and carries its Result immediately; Next then
// yields the eager SELECT's molecules, and nothing for the others.
//
// A Cursor must be drained (Next returning nil, nil) or Closed; like its
// Session it is not safe for concurrent use.
type Cursor struct {
	db     *storage.Database
	stream *plan.Stream
	// view is what the stream reads through; drained values resolve
	// through it too.
	view storage.View
	// desc is the delivered structure (the projected sub-description
	// when the SELECT list narrows); sub is non-nil when each molecule
	// must be pruned to it before delivery.
	desc  *core.Desc
	sub   *core.Desc
	attrs map[string][]string
	res   *Result // immediate result of a non-streaming statement
	n     int
	rd    *core.Renderer // made by the first AppendMolecule
}

// QueryContext parses and executes a single statement under ctx,
// returning a streaming Cursor. Cancelling ctx (or reaching its
// deadline) stops an in-flight SELECT mid-derivation; the session's SET
// WORKERS default and the statement's LIMIT parameterize it.
func (s *Session) QueryContext(ctx context.Context, src string) (*Cursor, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.ExecuteStream(ctx, st)
}

// ExecuteStream is QueryContext over an already-parsed statement — the
// entry point for callers that manage their own parsing (the TCP server
// runs each statement of a request script through it).
func (s *Session) ExecuteStream(ctx context.Context, st Stmt) (*Cursor, error) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		r, err := s.Execute(st)
		if err != nil {
			return nil, err
		}
		return &Cursor{db: s.db, res: r}, nil
	}
	mt, err := s.resolveFrom(sel.From)
	if err != nil {
		return nil, err
	}
	return s.selectCursor(ctx, sel, mt.Desc())
}

// selectCursor runs one SELECT over desc through the planner and returns
// its cursor: the session's read view (latest commit, the transaction's
// begin snapshot, or its effective view) is what the plan's stream opens
// against, so every form — plain, recursive, ordered, counted, prepared —
// takes this one path.
func (s *Session) selectCursor(ctx context.Context, sel *SelectStmt, desc *core.Desc) (*Cursor, error) {
	if sel.Count {
		// COUNT aggregates eagerly — a count (grouped or not) has no
		// molecules to stream; the fold itself still consumes the plan's
		// stream batch by batch without materializing the result set.
		r, err := s.execCount(ctx, sel, desc)
		if err != nil {
			return nil, err
		}
		return &Cursor{db: s.db, res: r}, nil
	}
	p, err := s.planSelect(sel, desc)
	if err != nil {
		return nil, err
	}
	// Validate the SELECT list before execution starts.
	sub, attrs, err := s.projectionSpec(sel, desc)
	if err != nil {
		return nil, err
	}
	stream, err := p.StreamIn(ctx, s.txn)
	if err != nil {
		return nil, err
	}
	c := &Cursor{db: s.db, stream: stream, view: s.view(stream.SnapshotTS()), desc: desc, sub: sub, attrs: attrs}
	if sub != nil {
		c.desc = sub
	}
	if !s.dirty() {
		return c, nil
	}
	// A storage.Txn is not safe for use concurrent with the session's next
	// DML, so a cursor over its effective view never outlives the call.
	defer c.Close()
	r, err := c.Result()
	if err != nil {
		return nil, err
	}
	return &Cursor{db: s.db, res: r}, nil
}

// Streaming reports whether the cursor delivers molecules incrementally
// (a planned SELECT) or carries an immediate Result.
func (c *Cursor) Streaming() bool { return c.stream != nil }

// Desc returns the description of the delivered molecules (after
// projection); nil for non-streaming statements.
func (c *Cursor) Desc() *core.Desc { return c.desc }

// Attrs returns the SELECT list's per-type attribute narrowing (nil
// when every attribute is delivered).
func (c *Cursor) Attrs() map[string][]string { return c.attrs }

// Next returns the next molecule of a SELECT, with the statement's
// projection applied. A nil molecule with a nil error means the cursor is
// exhausted (immediately so for statements that are not SELECTs); errors
// are terminal.
func (c *Cursor) Next() (*core.Molecule, error) {
	if c.stream == nil {
		if c.res == nil || c.n == len(c.res.Set) {
			return nil, nil
		}
		c.n++
		return c.res.Set[c.n-1], nil
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

// AppendMolecule appends m — the molecule Next last returned — to dst,
// numbered as delivered and rendered exactly as Result.Render renders it:
// at the snapshot a streaming SELECT is pinned to, from the values a
// materialized result resolved while its view was valid. The cursor's
// renderer is made once, so a reused dst costs no allocation per molecule.
func (c *Cursor) AppendMolecule(dst []byte, m *core.Molecule) []byte {
	if c.rd == nil {
		if c.res != nil {
			c.rd = core.NewRenderer(c.db, c.db.View(c.res.TS), c.res.Attrs, c.res.atoms)
		} else {
			c.rd = core.NewRenderer(c.db, c.db.View(c.SnapshotTS()), c.attrs, nil)
		}
	}
	return c.rd.Append(dst, c.n, m)
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
	if c.stream == nil {
		return nil
	}
	return c.stream.Err()
}

// Delivered counts the molecules handed out so far.
func (c *Cursor) Delivered() int { return c.n }

// SnapshotTS returns the commit timestamp a streaming SELECT's cursor is
// pinned to (0 for non-streaming statements). Rendering molecules with
// RenderMoleculeAt at this timestamp keeps attribute values consistent
// with the structure the cursor derived.
func (c *Cursor) SnapshotTS() uint64 {
	if c.stream == nil {
		return 0
	}
	return c.stream.SnapshotTS()
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
				if a, ok := c.view.Atom(cont, id); ok {
					atoms[id] = a
				}
			}
		}
		set = append(set, m)
	}
	return &Result{Kind: RMolecules, Set: set, Desc: c.desc, Attrs: c.attrs, TS: ts, atoms: atoms}, nil
}

// Close cancels an in-flight SELECT, waits for its workers to wind down
// and releases the cursor; it is idempotent and a no-op for
// non-streaming statements.
func (c *Cursor) Close() error {
	if c.stream == nil {
		return nil
	}
	return c.stream.Close()
}
