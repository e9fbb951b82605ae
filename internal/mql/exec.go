package mql

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/storage"
)

// Session executes MQL statements against a database. It tracks the named
// molecule types created by DEFINE MOLECULE TYPE and by named FROM
// clauses, plus the per-session execution option installed by SET
// (workers). A Session is not safe for concurrent use;
// open one per client, and finish (drain or Close) a streaming Cursor
// before issuing the next statement.
type Session struct {
	db    *storage.Database
	named map[string]*core.MoleculeType
	// pending holds the molecule types DEFINEd inside the open transaction:
	// usable by its later statements, registered in named at COMMIT,
	// forgotten at ROLLBACK.
	pending map[string]*core.MoleculeType
	// prepared holds the session's PREPARE'd statements by name.
	prepared map[string]*preparedStmt

	// workers is the SET WORKERS session default threaded into every
	// plan (0 = GOMAXPROCS).
	workers int

	// txn is the open BEGIN transaction, nil in auto-commit mode. While
	// set, DML buffers into it and SELECTs are read-your-writes: the plan's
	// stream opens against the transaction — its begin snapshot while
	// clean, its effective view once it holds buffered writes — so the
	// session queries its own uncommitted inserts, updates and connects
	// (still invisible to every other session until COMMIT).
	txn *storage.Txn
}

// NewSession opens a session over the database.
func NewSession(db *storage.Database) *Session {
	return &Session{
		db:       db,
		named:    make(map[string]*core.MoleculeType),
		prepared: make(map[string]*preparedStmt),
	}
}

// DB returns the session's database.
func (s *Session) DB() *storage.Database { return s.db }

// InTxn reports whether a BEGIN transaction is open on the session.
func (s *Session) InTxn() bool { return s.txn != nil }

// dirty reports whether the session's reads resolve through an open
// transaction's buffered writes, which only a full scan can enter.
func (s *Session) dirty() bool { return s.txn != nil && s.txn.Dirty() }

// view is what the session's reads resolve through: the open
// transaction's effective view, else the committed state at ts — zero for
// the latest commit, a stream's SnapshotTS for the snapshot it pinned.
func (s *Session) view(ts uint64) storage.View {
	if s.txn != nil {
		return s.txn.View()
	}
	return s.db.View(ts)
}

// Close releases the session's resources: an open transaction is rolled
// back (its buffered writes are discarded and its snapshot pin on the
// vacuum horizon released). Servers call it on connection teardown so an
// abandoned BEGIN cannot hold old versions alive forever.
func (s *Session) Close() error {
	if s.txn == nil {
		return nil
	}
	err := s.txn.Rollback()
	s.txn, s.pending = nil, nil
	return err
}

// NamedType returns a molecule type registered by DEFINE (once
// committed), a named FROM or Register.
func (s *Session) NamedType(name string) (*core.MoleculeType, bool) {
	mt, ok := s.named[name]
	return mt, ok
}

// Register binds name to a molecule type built through the core API — α
// over a structure the FROM syntax cannot spell, such as one with a
// multi-parent type — so statements use it as they use a DEFINEd type.
func (s *Session) Register(name string, mt *core.MoleculeType) error {
	if _, dup := s.lookup(name); dup {
		return fmt.Errorf("mql: molecule type %q already defined", name)
	}
	s.named[name] = mt
	return nil
}

// lookup resolves a molecule-type name: the open transaction's own
// DEFINEs, then the session's registered types.
func (s *Session) lookup(name string) (*core.MoleculeType, bool) {
	if mt, ok := s.pending[name]; ok {
		return mt, true
	}
	mt, ok := s.named[name]
	return mt, ok
}

// ResultKind discriminates Result payloads.
type ResultKind uint8

// Result kinds.
const (
	RMessage ResultKind = iota
	RMolecules
	RInserted
	RAffected
	RPlan
	RCount
)

// GroupCount is one GROUP BY bucket: a distinct root-attribute value and
// how many qualifying molecules carry it.
type GroupCount struct {
	Value model.Value
	Count int
}

// Result is the outcome of one statement.
type Result struct {
	Kind ResultKind
	// Message carries DDL/SHOW/EXPLAIN output.
	Message string
	// Set and Desc carry SELECT results (Desc is a closure description for
	// a recursive SELECT); Attrs optionally narrows the attributes rendered
	// per type (projection).
	Set   core.MoleculeSet
	Desc  *core.Desc
	Attrs map[string][]string
	// Inserted lists identifiers created by INSERT.
	Inserted []model.AtomID
	// Count carries a SELECT COUNT result; GroupAttr and Groups carry the
	// per-bucket counts of SELECT COUNT ... GROUP BY (GroupAttr empty =
	// ungrouped count).
	Count     int
	GroupAttr string
	Groups    []GroupCount
	// Affected counts atoms/links touched by UPDATE/DELETE/(DIS)CONNECT.
	Affected int
	// TS is the commit timestamp a streamed SELECT was pinned to; Render
	// resolves attribute values at it so output matches the molecules'
	// structure even if writers committed since. Zero renders the latest
	// view (eager statements).
	TS uint64
	// atoms holds the attribute values of Set's atoms, resolved at TS
	// while the cursor's snapshot was still pinned. Render prefers it over
	// re-reading the database, so rendering stays correct even after
	// vacuum reclaims the versions at TS.
	atoms map[model.AtomID]model.Atom
}

// Exec parses and executes a single statement, materializing the whole
// result. It delegates to QueryContext with a background context — new
// code that wants incremental delivery, cancellation or a deadline
// should call QueryContext directly and iterate the returned Cursor.
func (s *Session) Exec(src string) (*Result, error) {
	cur, err := s.QueryContext(context.Background(), src)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	return cur.Result()
}

// ExecScript parses and executes a ';'-separated script, stopping at the
// first error.
func (s *Session) ExecScript(src string) ([]*Result, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for _, st := range stmts {
		r, err := s.Execute(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Execute runs one parsed statement.
func (s *Session) Execute(st Stmt) (*Result, error) {
	switch st := st.(type) {
	case *SelectStmt:
		return s.execSelect(st)
	case *DefineStmt:
		return s.write(func() (*Result, error) { return s.execDefine(st) })
	case *CreateAtomTypeStmt:
		return s.write(func() (*Result, error) {
			desc, err := model.NewDesc(st.Attrs...)
			if err == nil {
				err = s.txn.DefineAtomType(st.Name, desc)
			}
			if err != nil {
				return nil, err
			}
			return &Result{Kind: RMessage, Message: fmt.Sprintf("atom type %q defined", st.Name)}, nil
		})
	case *CreateLinkTypeStmt:
		return s.write(func() (*Result, error) {
			if err := s.txn.DefineLinkType(st.Name, st.Desc); err != nil {
				return nil, err
			}
			return &Result{Kind: RMessage, Message: fmt.Sprintf("link type %q defined", st.Name)}, nil
		})
	case *CreateIndexStmt:
		if s.txn != nil {
			// The backfill would index committed state only: an index holds
			// committed versions and has no view of buffered writes.
			return nil, fmt.Errorf("mql: CREATE INDEX inside a transaction (COMMIT or ROLLBACK first)")
		}
		if err := s.db.CreateIndex(st.Type, st.Attr); err != nil {
			return nil, err
		}
		return &Result{Kind: RMessage, Message: fmt.Sprintf("index on %s.%s created", st.Type, st.Attr)}, nil
	case *InsertStmt:
		return s.write(func() (*Result, error) { return s.execInsert(st) })
	case *UpdateStmt:
		return s.write(func() (*Result, error) { return s.execUpdate(st) })
	case *DeleteStmt:
		return s.write(func() (*Result, error) { return s.execDelete(st) })
	case *ConnectStmt:
		return s.write(func() (*Result, error) { return s.execConnect(st) })
	case *ShowStmt:
		return s.execShow(st)
	case *ExplainStmt:
		return s.execExplain(st)
	case *AnalyzeStmt:
		return s.execAnalyze(st)
	case *CheckpointStmt:
		return s.execCheckpoint()
	case *SetStmt:
		return s.execSet(st)
	case *PrepareStmt:
		return s.execPrepare(st)
	case *ExecuteStmt:
		return s.execExecute(st)
	case *BeginStmt:
		return s.execBegin()
	case *CommitStmt:
		return s.execCommit()
	case *RollbackStmt:
		return s.execRollback()
	}
	return nil, fmt.Errorf("mql: unsupported statement %T", st)
}

// write runs a write statement inside the session's open transaction,
// or — in auto-commit mode — inside one it opens and commits itself, so
// the statement is exactly one commit: a statement that fails part-way
// leaves nothing behind.
func (s *Session) write(exec func() (*Result, error)) (*Result, error) {
	if s.txn != nil {
		return exec()
	}
	s.execBegin()
	defer s.execRollback() // refused once COMMIT has closed the transaction
	r, err := exec()
	if err != nil {
		return nil, err
	}
	if _, err := s.execCommit(); err != nil {
		return nil, err
	}
	return r, nil
}

// execBegin opens a buffered-write transaction on the session.
func (s *Session) execBegin() (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("mql: a transaction is already open (COMMIT or ROLLBACK it first)")
	}
	s.txn, s.pending = s.db.Begin(), make(map[string]*core.MoleculeType)
	return &Result{Kind: RMessage, Message: fmt.Sprintf(
		"transaction started (snapshot at commit %d)", s.txn.View().TS())}, nil
}

// execCommit installs the open transaction's buffered mutations — type
// definitions and DEFINEs included — atomically, and registers its
// DEFINEd names. The transaction ends either way: a failed commit leaves
// nothing visible and the session back in auto-commit mode.
func (s *Session) execCommit() (*Result, error) {
	if s.txn == nil {
		return nil, fmt.Errorf("mql: no transaction is open")
	}
	n := s.txn.Mutations()
	err := s.txn.Commit()
	defined := s.pending
	s.txn, s.pending = nil, nil
	if err != nil {
		return nil, err
	}
	maps.Copy(s.named, defined)
	return &Result{Kind: RMessage, Message: fmt.Sprintf("committed %d mutation(s)", n)}, nil
}

// execRollback discards the open transaction's buffered mutations and
// DEFINEs.
func (s *Session) execRollback() (*Result, error) {
	if s.txn == nil {
		return nil, fmt.Errorf("mql: no transaction is open")
	}
	n := s.txn.Mutations()
	err := s.txn.Rollback()
	s.txn, s.pending = nil, nil
	if err != nil {
		return nil, err
	}
	return &Result{Kind: RMessage, Message: fmt.Sprintf("rolled back %d mutation(s)", n)}, nil
}

// execSet installs a per-session execution option. The options thread
// into every subsequent plan — both the materialized Execute path and
// streaming cursors.
func (s *Session) execSet(st *SetStmt) (*Result, error) {
	switch strings.ToUpper(st.Name) {
	case "WORKERS":
		n, ok := st.Value.AsInt()
		if !ok || n < 0 {
			return nil, fmt.Errorf("mql: SET WORKERS needs a non-negative integer, got %s", st.Value)
		}
		s.workers = int(n)
		return &Result{Kind: RMessage, Message: fmt.Sprintf("workers set to %d (0 = all cores)", n)}, nil
	}
	return nil, fmt.Errorf("mql: unknown session option %q (supported: WORKERS)", st.Name)
}

// execAnalyze rebuilds the per-attribute histograms of one atom type (or
// all of them); every statement compiled afterwards is costed on them.
func (s *Session) execAnalyze(st *AnalyzeStmt) (*Result, error) {
	var (
		built int
		err   error
	)
	if st.Type == "" {
		built, err = s.db.Analyze()
	} else {
		built, err = s.db.Analyze(st.Type)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Kind: RMessage, Message: fmt.Sprintf(
		"analyzed %d attribute histogram(s)", built)}, nil
}

// execCheckpoint writes a durable snapshot and truncates the log below
// it. Inside a transaction it is rejected: the checkpoint captures
// committed state, and a session mid-transaction asking for one is
// almost certainly confused about what would be saved.
func (s *Session) execCheckpoint() (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("mql: CHECKPOINT inside a transaction (COMMIT or ROLLBACK first)")
	}
	cs, err := s.db.Checkpoint()
	if err != nil {
		return nil, err
	}
	return &Result{Kind: RMessage, Message: fmt.Sprintf(
		"checkpoint at commit %d; %d log segment(s) truncated", cs.TS, cs.SegmentsRemoved)}, nil
}

// BuildDesc translates a parsed structure into a validated molecule-type
// description, resolving '-' shorthands to unique link types.
func BuildDesc(db *storage.Database, node *StructNode) (*core.Desc, error) {
	var types []string
	var edges []core.DirectedLink
	seen := make(map[string]bool)
	var walk func(n *StructNode) error
	walk = func(n *StructNode) error {
		if seen[n.Type] {
			return fmt.Errorf("mql: atom type %q appears twice in the structure (C is a set)", n.Type)
		}
		seen[n.Type] = true
		types = append(types, n.Type)
		for _, e := range n.Children {
			link := e.Link
			if link == "" {
				lt, err := db.Schema().UniqueLinkBetween(n.Type, e.Node.Type)
				if err != nil {
					return err
				}
				link = lt.Name
			}
			edges = append(edges, core.DirectedLink{Link: link, From: n.Type, To: e.Node.Type})
			if err := walk(e.Node); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(node); err != nil {
		return nil, err
	}
	return core.NewDesc(db, types, edges)
}

// resolveFrom turns a FROM clause into a molecule type, registering named
// on-the-fly definitions. A recursive FROM yields a type over a closure
// description.
func (s *Session) resolveFrom(fc FromClause) (*core.MoleculeType, error) {
	if rc := fc.Recursive; rc != nil {
		desc, err := core.NewClosureDesc(s.db, rc.Type, rc.Link, rc.Up, rc.Depth)
		if err != nil {
			return nil, err
		}
		return core.DefineDesc(s.db, "", desc)
	}
	if fc.Name != "" && fc.Struct != nil && fc.Struct.Children == nil {
		// Bare identifier: named molecule type, or single-type structure.
		if mt, ok := s.lookup(fc.Name); ok {
			return mt, nil
		}
		if _, ok := s.db.Container(fc.Name); !ok {
			return nil, fmt.Errorf("mql: %q is neither a molecule type nor an atom type", fc.Name)
		}
		desc, err := BuildDesc(s.db, fc.Struct)
		if err != nil {
			return nil, err
		}
		return core.DefineDesc(s.db, "", desc)
	}
	if fc.Struct == nil {
		mt, ok := s.lookup(fc.Name)
		if !ok {
			return nil, fmt.Errorf("mql: unknown molecule type %q", fc.Name)
		}
		return mt, nil
	}
	desc, err := BuildDesc(s.db, fc.Struct)
	if err != nil {
		return nil, err
	}
	mt, err := core.DefineDesc(s.db, fc.Name, desc)
	if err != nil {
		return nil, err
	}
	if fc.Name != "" {
		if _, dup := s.lookup(fc.Name); dup {
			return nil, fmt.Errorf("mql: molecule type %q already defined", fc.Name)
		}
		s.named[fc.Name] = mt
	}
	return mt, nil
}

// planSelect compiles a SELECT body into a query plan, costed on the
// indexes and statistics of the moment — every statement compiles.
// Inside a transaction holding buffered writes the plan is forced onto
// the full scan — index postings hold committed versions only. The
// session's SET options and the statement's LIMIT parameterize the
// returned plan.
func (s *Session) planSelect(st *SelectStmt, desc *core.Desc) (*plan.Plan, error) {
	if st.Where != nil {
		if err := expr.Check(st.Where, core.Scope{DB: s.db, Desc: desc}); err != nil {
			return nil, err
		}
	}
	order, err := orderBy(st, desc)
	if err != nil {
		return nil, err
	}
	var p *plan.Plan
	if s.dirty() {
		p, err = plan.CompileForced(s.db, desc, st.Where, order, "full scan of "+desc.Root())
	} else {
		p, err = plan.CompileOrdered(s.db, desc, st.Where, order)
	}
	if err != nil {
		return nil, err
	}
	p.Workers, p.Limit = s.workers, st.Limit
	return p, nil
}

// orderBy resolves a SELECT's ORDER BY clause against the structure it
// orders (nil without one): molecules order by a root attribute only.
func orderBy(st *SelectStmt, desc *core.Desc) (*plan.OrderBy, error) {
	if st.OrderBy == nil {
		return nil, nil
	}
	if st.OrderBy.Type != "" && st.OrderBy.Type != desc.Root() {
		return nil, fmt.Errorf("mql: ORDER BY %s.%s: molecules order by their root type %q",
			st.OrderBy.Type, st.OrderBy.Attr, desc.Root())
	}
	return &plan.OrderBy{Attr: st.OrderBy.Attr, Desc: st.OrderBy.Desc}, nil
}

// execSelect runs a query-mode SELECT through the planner: access path
// (root index, filtered root scan, or an interior-index entry climbed
// upward through the symmetric links), derivation with predicate
// pushdown over the worker pool, residual restriction, projection —
// without enlarging the database. It is the collect-all form of
// ExecuteStream, so the materialized surfaces (Execute, ExecScript)
// and the streaming Cursor run exactly one pipeline. The algebra-mode
// equivalent (with propagation) is DEFINE MOLECULE TYPE ... AS SELECT.
func (s *Session) execSelect(st *SelectStmt) (*Result, error) {
	cur, err := s.ExecuteStream(context.Background(), st)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	return cur.Result()
}

// execCount runs SELECT COUNT [GROUP BY attr]. The ungrouped form takes
// the plan's counting path: when no pushdown or residual applies, the
// count is the filtered root-batch size and no molecule is derived at
// all; otherwise the stream is counted, with LIMIT cancelling the
// derivation mid-flight once the cap is reached. The grouped form folds
// the stream's molecules into per-value buckets as they arrive — the
// result set is never materialized — and LIMIT caps the buckets
// reported, not the molecules counted.
func (s *Session) execCount(ctx context.Context, st *SelectStmt, desc *core.Desc) (*Result, error) {
	p, err := s.planSelect(st, desc)
	if err != nil {
		return nil, err
	}
	if st.GroupBy == nil {
		n, err := p.ExecuteCountIn(ctx, s.txn)
		if err != nil {
			return nil, err
		}
		return &Result{Kind: RCount, Count: n}, nil
	}
	g := st.GroupBy
	if g.Type != "" && g.Type != desc.Root() {
		return nil, fmt.Errorf("mql: GROUP BY %s.%s: molecules group by their root type %q",
			g.Type, g.Attr, desc.Root())
	}
	c, ok := s.db.Container(desc.Root())
	if !ok {
		return nil, fmt.Errorf("mql: root type %q has no container", desc.Root())
	}
	pos, ok := c.Desc().Lookup(g.Attr)
	if !ok {
		return nil, fmt.Errorf("mql: root type %q has no attribute %q", desc.Root(), g.Attr)
	}
	limit := p.Limit
	p.Limit = 0 // LIMIT caps groups, not the molecules folded into them
	stream, err := p.StreamIn(ctx, s.txn)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	view := s.view(stream.SnapshotTS())
	counts := make(map[model.Key]GroupCount)
	for m := range stream.Seq() {
		if a, ok := view.Atom(c, m.Root()); ok {
			v := a.Get(pos)
			k := v.Key()
			counts[k] = GroupCount{Value: v, Count: counts[k].Count + 1}
		}
	}
	if err := stream.Err(); err != nil {
		return nil, err
	}
	groups := slices.SortedFunc(maps.Values(counts), func(a, b GroupCount) int { return a.Value.Compare(b.Value) })
	if limit > 0 && len(groups) > limit {
		groups = groups[:limit]
	}
	return &Result{Kind: RCount, GroupAttr: g.Attr, Groups: groups}, nil
}

// projectionSpec validates the SELECT list against the structure and
// returns the induced sub-description plus the per-type attribute
// narrowing. A nil sub-description means SELECT ALL (no projection).
// Shared by the materialized path (project) and the streaming Cursor,
// which prunes molecule by molecule.
func (s *Session) projectionSpec(st *SelectStmt, desc *core.Desc) (*core.Desc, map[string][]string, error) {
	if st.All {
		return nil, nil, nil
	}
	if desc.Closure() != nil {
		return nil, nil, fmt.Errorf("mql: recursive SELECT supports ALL only")
	}
	keep := make([]string, 0, len(st.Items))
	attrs := make(map[string][]string)
	for _, it := range st.Items {
		if !desc.HasType(it.Type) {
			return nil, nil, fmt.Errorf("mql: SELECT item %q is not part of the structure %s", it.Type, desc)
		}
		keep = append(keep, it.Type)
		if it.Attrs != nil {
			c, ok := s.db.Container(it.Type)
			if !ok {
				return nil, nil, fmt.Errorf("mql: atom type %q has no container", it.Type)
			}
			for _, a := range it.Attrs {
				if _, ok := c.Desc().Lookup(a); !ok {
					return nil, nil, fmt.Errorf("mql: atom type %q has no attribute %q", it.Type, a)
				}
			}
			attrs[it.Type] = it.Attrs
		}
	}
	if !slices.Contains(keep, desc.Root()) {
		return nil, nil, fmt.Errorf("mql: the SELECT list must include the root type %q (molecule projection keeps the root)", desc.Root())
	}
	sub, err := desc.Sub(s.db, keep)
	return sub, attrs, err
}

// execDefine runs the algebra mode (Fig. 5). Every form is producers
// feeding the one propagation sink, core.Prop, inside the statement's
// transaction (see write) — so a DEFINE is exactly one commit: invisible
// until it lands, recovered whole or not at all, and discarded by
// ROLLBACK together with its name.
func (s *Session) execDefine(st *DefineStmt) (*Result, error) {
	if _, dup := s.lookup(st.Name); dup {
		return nil, fmt.Errorf("mql: molecule type %q already defined", st.Name)
	}
	if st.SetOp == "" && st.Select.Limit > 0 {
		// A capped definition would register a molecule type whose
		// occurrence depends on delivery order — algebra mode defines
		// whole occurrences (Definition 9), so reject rather than
		// silently ignore the clause.
		return nil, fmt.Errorf("mql: LIMIT is not supported in DEFINE ... AS SELECT")
	}
	mt, n, err := s.define(st)
	if err != nil {
		return nil, err
	}
	s.pending[st.Name], _ = core.DefineDesc(s.db, st.Name, mt.Desc()) // a named α cannot fail
	return &Result{Kind: RMessage, Message: fmt.Sprintf("molecule type %q defined (%d molecules)", st.Name, n)}, nil
}

// define runs one DEFINE's producers into the sink and returns the last
// propagated type with the number of molecules the sink installed — or,
// for a body that only names a structure (α alone: no WHERE, no SELECT
// list), that structure and its cardinality. A recursive closure can only
// be named: a WHERE or a SELECT list over one is refused.
//
//   - Σ is the session's own SELECT pipeline: planner, cancellation and
//     the session's view.
//   - Π keeps its normative semantics, re-derivation over the structure
//     it projects — the one Σ just propagated, reached through the
//     transaction's buffered writes by the forced full scan — not a prune
//     of Σ's molecules, which agrees with it on tree-shaped structures
//     only.
//   - Ω, Δ and Ψ combine the streams of two named types by molecule
//     identity (core.Combine).
func (s *Session) define(st *DefineStmt) (*core.MoleculeType, int, error) {
	all := &SelectStmt{All: true}
	if st.SetOp != "" {
		left, err := s.resolveFrom(FromClause{Name: st.Left})
		if err != nil {
			return nil, 0, err
		}
		right, err := s.resolveFrom(FromClause{Name: st.Right})
		if err != nil {
			return nil, 0, err
		}
		lc, err := s.selectCursor(context.Background(), all, left.Desc())
		if err != nil {
			return nil, 0, err
		}
		defer lc.Close()
		rc, err := s.selectCursor(context.Background(), all, right.Desc())
		if err != nil {
			return nil, 0, err
		}
		defer rc.Close()
		op := map[string]rune{"UNION": 'Ω', "DIFFERENCE": 'Δ', "INTERSECT": 'Ψ'}[st.SetOp]
		next, err := core.Combine(op, left, right, lc.Next, rc.Next)
		if err != nil {
			return nil, 0, err
		}
		return s.sink(left.Desc(), next, nil)
	}
	sel := st.Select
	cur, err := s.resolveFrom(sel.From)
	if err != nil {
		return nil, 0, err
	}
	desc := cur.Desc()
	if desc.Closure() != nil {
		// Σ and Π over a closure need propagation of a closure description,
		// which core.Prop refuses: reject the clause rather than drop it.
		if sel.Where != nil {
			return nil, 0, fmt.Errorf("mql: WHERE is not supported in DEFINE ... AS SELECT over a recursive structure")
		}
		if !sel.All {
			return nil, 0, fmt.Errorf("mql: a SELECT list is not supported in DEFINE ... AS SELECT over a recursive structure; use SELECT ALL")
		}
	}
	if sel.Where == nil && sel.All {
		n, err := cur.Cardinality()
		return cur, n, err
	}
	_, attrs, err := s.projectionSpec(sel, desc) // validates the SELECT list up front
	if err != nil {
		return nil, 0, err
	}
	if sel.Where != nil {
		mt, n, err := s.propagate(&SelectStmt{All: true, Where: sel.Where}, desc, nil)
		if err != nil || sel.All {
			return mt, n, err
		}
		cur = mt
	}
	// The SELECT list names the original types; Σ renamed them positionally.
	keep, narrow := make([]string, len(sel.Items)), make(map[string][]string)
	for i, it := range sel.Items {
		pos, _ := desc.Pos(it.Type)
		keep[i] = cur.Desc().Types()[pos]
		narrow[keep[i]] = attrs[it.Type]
	}
	sub, err := cur.Desc().Sub(s.db, keep)
	if err != nil {
		return nil, 0, err
	}
	return s.propagate(all, sub, narrow)
}

// propagate runs sel over desc through the session's SELECT pipeline into
// the sink.
func (s *Session) propagate(sel *SelectStmt, desc *core.Desc, attrs map[string][]string) (*core.MoleculeType, int, error) {
	c, err := s.selectCursor(context.Background(), sel, desc)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	return s.sink(desc, c.Next, attrs)
}

// sink propagates the molecules next yields over rsd inside the session's
// transaction, counting them. Producers run beside it safely: a cursor
// opened while the transaction was clean streams from a View of its begin
// snapshot that carries no pointer to the transaction, so the sink's
// buffered writes never race its reads; a cursor over a dirty transaction
// was drained eagerly by selectCursor before the sink's first write.
func (s *Session) sink(rsd *core.Desc, next func() (*core.Molecule, error), attrs map[string][]string) (*core.MoleculeType, int, error) {
	n := 0
	mt, err := core.Prop(s.txn, "", rsd, func() (*core.Molecule, error) {
		m, err := next()
		if m != nil {
			n++
		}
		return m, err
	}, attrs, nil)
	return mt, n, err
}

func (s *Session) execInsert(st *InsertStmt) (*Result, error) {
	c, ok := s.db.Container(st.Type)
	if !ok {
		return nil, fmt.Errorf("mql: unknown atom type %q", st.Type)
	}
	desc := c.Desc()
	res := &Result{Kind: RInserted}
	for _, row := range st.Rows {
		vals := row
		if st.Attrs != nil {
			if len(row) != len(st.Attrs) {
				return nil, fmt.Errorf("mql: %d values for %d attributes", len(row), len(st.Attrs))
			}
			vals = make([]model.Value, desc.Len())
			for i := range vals {
				vals[i] = model.Null()
			}
			for i, a := range st.Attrs {
				pos, ok := desc.Lookup(a)
				if !ok {
					return nil, fmt.Errorf("mql: atom type %q has no attribute %q", st.Type, a)
				}
				vals[pos] = row[i]
			}
		}
		id, err := s.txn.InsertAtom(st.Type, vals...)
		if err != nil {
			return nil, err
		}
		res.Inserted = append(res.Inserted, id)
	}
	return res, nil
}

// matchAtoms collects the atoms of a type satisfying a predicate. The
// scan reads the statement's transaction, so the selected set is
// consistent with every other read the transaction performs.
func (s *Session) matchAtoms(typeName string, pred expr.Expr) ([]model.Atom, error) {
	c, ok := s.db.Container(typeName)
	if !ok {
		return nil, fmt.Errorf("mql: unknown atom type %q", typeName)
	}
	if pred != nil {
		if err := expr.Check(pred, expr.AtomScope{TypeName: typeName, Desc: c.Desc()}); err != nil {
			return nil, err
		}
	}
	var out []model.Atom
	var evalErr error
	// DML predicates match the effective view — begin snapshot plus the
	// transaction's own buffered writes — so a statement can target atoms
	// the transaction just inserted.
	scanned := int64(0)
	s.txn.View().Scan(c, func(a model.Atom) bool {
		scanned++
		keep, err := expr.EvalPredicate(pred, expr.AtomBinding{TypeName: typeName, Desc: c.Desc(), Atom: a})
		if err != nil {
			evalErr = err
			return false
		}
		if keep {
			out = append(out, a)
		}
		return true
	})
	// Work accounting: a DML scan counts as atom fetches.
	s.db.Stats().AtomsFetched.Add(scanned)
	return out, evalErr
}

func (s *Session) execUpdate(st *UpdateStmt) (*Result, error) {
	c, ok := s.db.Container(st.Type)
	if !ok {
		return nil, fmt.Errorf("mql: unknown atom type %q", st.Type)
	}
	desc := c.Desc()
	for a := range st.Set {
		if _, ok := desc.Lookup(a); !ok {
			return nil, fmt.Errorf("mql: atom type %q has no attribute %q", st.Type, a)
		}
	}
	atoms, err := s.matchAtoms(st.Type, st.Where)
	if err != nil {
		return nil, err
	}
	for _, a := range atoms {
		vals := make([]model.Value, len(a.Vals))
		copy(vals, a.Vals)
		for name, v := range st.Set {
			pos, _ := desc.Lookup(name)
			vals[pos] = v
		}
		if err := s.txn.UpdateAtom(st.Type, a.ID, vals); err != nil {
			return nil, err
		}
	}
	return &Result{Kind: RAffected, Affected: len(atoms)}, nil
}

func (s *Session) execDelete(st *DeleteStmt) (*Result, error) {
	atoms, err := s.matchAtoms(st.Type, st.Where)
	if err != nil {
		return nil, err
	}
	for _, a := range atoms {
		if err := s.txn.DeleteAtom(st.Type, a.ID); err != nil {
			return nil, err
		}
	}
	return &Result{Kind: RAffected, Affected: len(atoms)}, nil
}

func (s *Session) execConnect(st *ConnectStmt) (*Result, error) {
	ls, ok := s.db.LinkStore(st.Link)
	if !ok {
		return nil, fmt.Errorf("mql: unknown link type %q", st.Link)
	}
	if ld := ls.Desc(); ld.SideA != st.FromType || ld.SideB != st.ToType {
		return nil, fmt.Errorf("mql: link type %q connects %s, not %q→%q",
			st.Link, ld, st.FromType, st.ToType)
	}
	froms, err := s.matchAtoms(st.FromType, st.FromWhere)
	if err != nil {
		return nil, err
	}
	tos, err := s.matchAtoms(st.ToType, st.ToWhere)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, fa := range froms {
		for _, ta := range tos {
			changed := true
			if st.Remove {
				changed, err = s.txn.Disconnect(st.Link, fa.ID, ta.ID)
			} else {
				err = s.txn.Connect(st.Link, fa.ID, ta.ID)
			}
			if err != nil {
				return nil, err
			}
			if changed {
				n++
			}
		}
	}
	return &Result{Kind: RAffected, Affected: n}, nil
}

func (s *Session) execShow(st *ShowStmt) (*Result, error) {
	var b strings.Builder
	switch st.What {
	case "SCHEMA", "TYPES":
		b.WriteString(s.db.Schema().Render())
	case "MOLECULES":
		for _, n := range slices.Sorted(maps.Keys(s.named)) {
			fmt.Fprintf(&b, "MOLECULE TYPE %s = %s;\n", n, s.named[n].Desc())
		}
	case "INDEXES":
		for _, ix := range s.db.Indexes() {
			fmt.Fprintf(&b, "INDEX ON %s;\n", ix)
		}
	case "HISTOGRAMS":
		for _, key := range s.db.Histograms() {
			dot := strings.LastIndex(key, ".")
			h, ok := s.db.Histogram(key[:dot], key[dot+1:])
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "HISTOGRAM ON %s: %s\n", key, h)
		}
	case "STATS":
		b.WriteString(s.db.Stats().Snapshot().String())
		b.WriteByte('\n')
	}
	return &Result{Kind: RMessage, Message: b.String()}, nil
}

func (s *Session) execExplain(st *ExplainStmt) (*Result, error) {
	sel := st.Select
	mt, err := s.resolveFrom(sel.From)
	if err != nil {
		return nil, err
	}
	desc := mt.Desc()
	p, err := s.planSelect(sel, desc)
	if err != nil {
		return nil, err
	}
	// Run the plan (query mode never enlarges the database) through the
	// session's read view — exactly what the SELECT itself would run — so
	// the rendering reports actual cardinalities next to the estimates,
	// including the chosen entry point and the access-path contest on the
	// `considered:` line — unless the statement asked for the compile-only
	// ESTIMATE form.
	if !st.EstimateOnly {
		if sel.Count {
			_, err = p.ExecuteCountIn(context.Background(), s.txn)
		} else {
			_, err = p.ExecuteIn(context.Background(), s.txn)
		}
		if err != nil {
			return nil, err
		}
	}
	var b strings.Builder
	b.WriteString(p.Render())
	if sel.Count {
		switch {
		case sel.GroupBy != nil:
			fmt.Fprintf(&b, "aggregate: COUNT GROUP BY %s (stream-folded, result never materialized)\n", sel.GroupBy.Attr)
		case p.CanCountFast():
			b.WriteString("aggregate: COUNT (root-batch fast path, no derivation)\n")
		default:
			b.WriteString("aggregate: COUNT (stream-counted)\n")
		}
	}
	if !sel.All && !sel.Count {
		var items []string
		for _, it := range sel.Items {
			if it.Attrs == nil {
				items = append(items, it.Type)
			} else {
				items = append(items, it.Type+"("+strings.Join(it.Attrs, ",")+")")
			}
		}
		fmt.Fprintf(&b, "project:   Π[%s]\n", strings.Join(items, ", "))
	}
	return &Result{Kind: RPlan, Message: b.String()}, nil
}
