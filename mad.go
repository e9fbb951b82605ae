// Package mad is the public API of the molecule-atom data model (MAD)
// library — a reproduction of "Extending the Relational Algebra to Capture
// Complex Objects" (Mitschang, VLDB 1989).
//
// The MAD model extends the relational model with atoms (identifiable,
// typed records) connected by bidirectional, symmetric links. Complex
// objects — molecules — are defined *dynamically* per query as directed
// acyclic structures laid over the atom networks, and may overlap: shared
// subobjects are first class. The molecule algebra (Σ, Π, X, Ω, Δ, Ψ over
// molecule types; π, σ, ×, ω, δ over atom types) is closed: every result
// is a molecule type over a correspondingly enlarged database, and the
// MQL query language is defined by translation into that algebra.
//
// Quick start:
//
//	db := mad.NewDatabase()
//	sess := mad.NewSession(db)
//	sess.ExecScript(`
//	    CREATE ATOM TYPE state (name STRING NOT NULL, hectare FLOAT);
//	    CREATE ATOM TYPE area  (tag STRING NOT NULL);
//	    CREATE LINK TYPE state-area BETWEEN state AND area;
//	    INSERT INTO state VALUES ('Minas Gerais', 900.0);
//	    INSERT INTO area VALUES ('a_MG');
//	    CONNECT state TO area VIA state-area;
//	`)
//	res, _ := sess.Exec(`SELECT ALL FROM state-area WHERE hectare > 500;`)
//	fmt.Print(res.Render(db))
//
// The facade re-exports the stable types of the internal packages; the
// full machinery (storage engine, atom-type algebra, molecule algebra,
// NF² and relational baselines, ER mappings, recursive molecules, binary
// snapshots, two-layer PRIMA-style engine) lives beneath it and is
// documented per package.
package mad

import (
	"mad/internal/atomalg"
	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/prima"
	"mad/internal/recursive"
	"mad/internal/storage"
	"mad/internal/storage/stats"
)

// Core data-model types.
type (
	// Database is a MAD database: schema plus atom and link occurrences.
	Database = storage.Database
	// Value is one attribute value (null/bool/int/float/string/atom-ID).
	Value = model.Value
	// Kind tags attribute values and attribute declarations.
	Kind = model.Kind
	// AttrDesc declares one attribute of an atom type.
	AttrDesc = model.AttrDesc
	// AtomDesc is an atom-type description (a set of attribute
	// descriptions, Definition 1).
	AtomDesc = model.Desc
	// LinkDesc is a link-type description (the two connected atom types
	// plus optional cardinality restrictions, Definition 2).
	LinkDesc = model.LinkDesc
	// Cardinality bounds one side of an extended link-type definition.
	Cardinality = model.Cardinality
	// AtomID is the unique identifier of an atom.
	AtomID = model.AtomID
	// Atom is one element of an atom-type occurrence.
	Atom = model.Atom
	// Link is one element of a link-type occurrence (an unsorted pair).
	Link = model.Link
)

// Molecule algebra types (the paper's primary contribution).
type (
	// MoleculeType is mt = <mname, md, mv> (Definition 7).
	MoleculeType = core.MoleculeType
	// MoleculeDesc is a molecule-type description md = <C, G>
	// (Definition 5).
	MoleculeDesc = core.Desc
	// DirectedLink is one edge of a molecule-type description.
	DirectedLink = core.DirectedLink
	// Molecule is one element of a molecule-type occurrence.
	Molecule = core.Molecule
	// MoleculeSet is a materialized molecule-type occurrence.
	MoleculeSet = core.MoleculeSet
	// Projection parameterizes the molecule-type projection Π.
	Projection = core.Projection
	// OpTrace records the op-specific/prop/α anatomy of an operation
	// (Fig. 5).
	OpTrace = core.OpTrace
	// RecursiveType is a recursive molecule type over a reflexive link
	// type (Chapter 5).
	RecursiveType = recursive.Type
)

// Concurrency types.
//
// Reads never block behind writes. Database.Snapshot() pins an immutable,
// transaction-consistent view of the latest commit; Close it when done — a
// live snapshot holds the vacuum horizon back. Plan.Stream pins its own
// snapshot for the life of the cursor, so a streaming SELECT observes one
// commit timestamp end to end; Plan.StreamIn reads inside a transaction
// instead. Database.Begin() opens a buffered-write Txn whose writes stay
// private until Commit installs them atomically under the next commit
// timestamp (MQL: BEGIN / COMMIT / ROLLBACK per session). Each direct
// mutator (Database.InsertAtom, Connect, …) is a single-statement
// transaction, and Database.Vacuum (or a StartVacuum background loop)
// reclaims the versions no live snapshot can reach.
//
// Which state a read looks at is one value, View: the committed state at
// a timestamp (Database.View(ts); 0 = the latest commit at each read), a
// Snapshot, or a transaction's effective view (Txn.View()). Its readers
// take the handles Database.Container and Database.LinkStore resolve; the
// timestamp-less Database readers (GetAtom, Partners, ScanAtoms,
// IndexLookup, …) read the latest commit.
type (
	// Txn is a buffered-write transaction over the database: writes
	// validate eagerly against its begin snapshot but install atomically
	// at Commit (see Database.Begin).
	Txn = storage.Txn
	// Snapshot is an immutable, transaction-consistent read view pinned
	// at one commit timestamp (see Database.Snapshot); Close releases it.
	Snapshot = storage.Snapshot
	// View is what a read looks at: the committed state at a timestamp, a
	// Snapshot, or a transaction's effective view (Txn.View).
	View = storage.View
	// VacuumStats reports one vacuum pass (versions reclaimed, horizon).
	VacuumStats = storage.VacuumStats
)

// Begin opens a buffered-write transaction (Database.Begin shorthand).
func Begin(db *Database) *Txn { return db.Begin() }

// TakeSnapshot pins an immutable consistent read view of the latest
// commit (Database.Snapshot shorthand); Close it when done.
func TakeSnapshot(db *Database) *Snapshot { return db.Snapshot() }

// Language and engine types.
//
// # Exec and QueryContext
//
// There is one execution pipeline and it streams: its consumer pulls
// molecules batch by batch, the first batches derived on the consumer's
// own goroutine and the rest by a worker pool that runs a bounded number
// of batches ahead. Session.QueryContext hands that stream to the caller
// as a Cursor; Session.Exec (and, at plan level, Plan.Execute over
// Plan.Stream) drains the same stream into a materialized result. Code
// that wants cancellation, deadlines, result caps or bounded memory uses
// the streaming surface:
//
//	sess.Exec(`SET WORKERS 4;`)
//	cur, err := sess.QueryContext(ctx, `SELECT ALL FROM mt_state LIMIT 100;`)
//	defer cur.Close()
//	for m := range cur.Seq() { ... }   // or cur.Next() in a loop
//	if err := cur.Err(); err != nil { ... }
//
// `SET WORKERS n;` installs the session's worker-pool default, and a
// SELECT may carry a trailing `LIMIT n`. Every statement compiles its plan afresh, costed on the
// indexes and statistics of the moment — compiling reads only counts
// the storage layer keeps, so it costs the same on any database. A SELECT may also order its stream
// (`ORDER BY attr [ASC|DESC]` on a root attribute — served off an
// ordered index ride when one covers the attribute, otherwise a heap —
// bounded to the top K under LIMIT) or aggregate instead of
// materialize (`SELECT COUNT ... [GROUP BY attr]`, folded batch by
// batch off the stream).
type (
	// Session executes MQL statements.
	Session = mql.Session
	// Result is the outcome of one MQL statement.
	Result = mql.Result
	// Cursor is the streaming result of one MQL statement: molecules
	// arrive incrementally in deterministic order, with the SELECT
	// list's projection applied per molecule (see Session.QueryContext).
	Cursor = mql.Cursor
	// Stream is a plan's incremental result cursor: each Next pulls
	// from the fused parallel executor, so first results arrive before
	// the batch materializes and cancelling its context stops the
	// workers mid-derivation (see Plan.Stream).
	Stream = plan.Stream
	// Engine is the two-layer PRIMA-style engine with per-layer work
	// accounting.
	Engine = prima.Engine
	// Expr is a qualification-formula node (restriction predicates).
	Expr = expr.Expr
	// Plan is a compiled query plan: access path (root scan, root index
	// or interior-index entry climbed upward through the symmetric
	// links), derivation with per-atom-type predicate pushdown fanned
	// over the worker pool, cost-ordered residual restriction.
	Plan = plan.Plan
	// PlanAlternative is one access path the planner considered, with
	// its estimated cost — the EXPLAIN "considered" provenance.
	PlanAlternative = plan.Alternative
	// Histogram is a per-attribute equi-depth histogram — the statistics
	// ANALYZE builds and the planner estimates selectivities from.
	Histogram = stats.Histogram
)

// Value kinds.
const (
	KNull   = model.KNull
	KBool   = model.KBool
	KInt    = model.KInt
	KFloat  = model.KFloat
	KString = model.KString
	KID     = model.KID
)

// NewDatabase returns an empty MAD database.
func NewDatabase() *Database { return storage.NewDatabase() }

// NewSession opens an MQL session over a database.
func NewSession(db *Database) *Session { return mql.NewSession(db) }

// NewEngine opens a two-layer engine over a database.
func NewEngine(db *Database) *Engine { return prima.New(db) }

// NewAtomDesc builds an atom-type description.
func NewAtomDesc(attrs ...AttrDesc) (*AtomDesc, error) { return model.NewDesc(attrs...) }

// Values.
var (
	// Null is the null value.
	Null = model.Null
	// Bool wraps a boolean.
	Bool = model.Bool
	// Int wraps an integer.
	Int = model.Int
	// Float wraps a float.
	Float = model.Float
	// Str wraps a string.
	Str = model.Str
)

// Define is the molecule-type definition α[mname, G](C) (Definition 8).
func Define(db *Database, name string, types []string, edges []DirectedLink) (*MoleculeType, error) {
	return core.Define(db, name, types, edges)
}

// Restrict is the molecule-type restriction Σ (Definition 10); it enlarges
// the database with the propagated result (Definition 9) and returns the
// result type. A nil trace disables tracing. Σ through the planner is the
// MQL statement DEFINE MOLECULE TYPE … AS SELECT …; both propagate the same
// occurrence in one commit.
func Restrict(mt *MoleculeType, pred Expr, resultName string, tr *OpTrace) (*MoleculeType, error) {
	return core.Restrict(mt, pred, resultName, tr)
}

// CompilePlan compiles a plan for deriving desc under pred (nil = no
// restriction): the access path is chosen by costing every entry point —
// root scan, root index, or an interior-index entry that climbs the
// symmetric links upward from a selective mid-structure match — against
// histogram statistics (falling back to index cardinalities and link
// fan-outs); pushdown conjuncts cut subtrees during derivation, and the
// residual conjuncts run per molecule in selectivity × cost order.
// Execute it for the qualifying set; Render it for EXPLAIN.
//
// The plan depends only on the data and its statistics: the same
// predicate over the same data compiles to the same plan, however often
// it has run.
func CompilePlan(db *Database, desc *MoleculeDesc, pred Expr) (*Plan, error) {
	return plan.Compile(db, desc, pred)
}

// NewClosureDesc describes a recursive molecule type for the planner:
// atomType closed over one direction of the reflexive link type,
// optionally depth-bounded (0 = full transitive closure). CompilePlan over
// it is the planned part explosion: the access-path contest weighs a full
// scan against index entries on the root, pred judges the root atom and
// prunes roots before a single link is traversed, and Plan.Stream
// delivers each molecule — Molecule.Levels groups its atoms by the round
// that first reached them — as its own closure finishes, at one pinned
// snapshot.
func NewClosureDesc(db *Database, atomType, link string, up bool, depth int) (*MoleculeDesc, error) {
	return core.NewClosureDesc(db, atomType, link, up, depth)
}

// Analyze builds equi-depth histograms over every attribute of the named
// atom types (all types when none are given) — the MQL ANALYZE
// statement. It returns the number of histograms built.
func Analyze(db *Database, typeNames ...string) (int, error) {
	return db.Analyze(typeNames...)
}

// Project is the molecule-type projection Π.
func Project(mt *MoleculeType, p Projection, resultName string, tr *OpTrace) (*MoleculeType, error) {
	return core.Project(mt, p, resultName, tr)
}

// Product is the molecule-type cartesian product X.
func Product(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	return core.Product(mt1, mt2, resultName, tr)
}

// Union is the molecule-type union Ω.
func Union(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	return core.Union(mt1, mt2, resultName, tr)
}

// Difference is the molecule-type difference Δ.
func Difference(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	return core.Difference(mt1, mt2, resultName, tr)
}

// Intersect is the derived intersection Ψ(a, b) = Δ(a, Δ(a, b)), run as one
// membership pass and one propagation.
func Intersect(mt1, mt2 *MoleculeType, resultName string, tr *OpTrace) (*MoleculeType, error) {
	return core.Intersect(mt1, mt2, resultName, tr)
}

// DefineRecursive defines a recursive molecule type over a reflexive link
// type (Chapter 5 / [Schö89]): the eager, latest-state definition, one
// full closure per root. Queries plan and stream the same closures
// through NewClosureDesc.
func DefineRecursive(db *Database, name, atomType, link string, up bool, depth int) (*RecursiveType, error) {
	return recursive.Define(db, name, atomType, link, up, depth)
}

// Atom-type algebra (Definition 4, Theorem 1). Each operation installs a
// new atom type — with inherited link types — in the database and returns
// its name and inheritance record.
var (
	// AtomProject is the atom-type projection π.
	AtomProject = atomalg.Project
	// AtomRestrict is the atom-type restriction σ.
	AtomRestrict = atomalg.Restrict
	// AtomProduct is the atom-type cartesian product ×.
	AtomProduct = atomalg.Product
	// AtomUnion is the atom-type union ω.
	AtomUnion = atomalg.Union
	// AtomDifference is the atom-type difference δ.
	AtomDifference = atomalg.Difference
)

// Save writes the database — data, indexes and histograms, as of its
// latest commit — to a file atomically, in the state-file format a
// checkpoint uses.
func Save(db *Database, path string) error { return storage.Save(db, path) }

// Load reads a file Save (or a checkpoint) wrote into a new in-memory
// database.
func Load(path string) (*Database, error) { return storage.Load(path) }

// Open opens (or creates) a durable database in dir: the newest
// checkpoint is loaded (data, indexes and histograms), the write-ahead
// log tail replayed, and a group-commit WAL attached so every subsequent
// commit is fsynced before it acknowledges. Call Close when done.
func Open(dir string) (*Database, error) { return storage.Open(dir) }

// Recover rebuilds the database persisted in dir without attaching a
// write-ahead log — the read-only inspection half of Open.
func Recover(dir string) (*Database, error) { return storage.Recover(dir) }

// Checkpoint writes a consistent snapshot of a durable database and
// truncates its log below it. CheckpointStats reports what was captured.
func Checkpoint(db *Database) (storage.CheckpointStats, error) { return db.Checkpoint() }

// Parse parses one MQL statement without executing it.
func Parse(src string) (mql.Stmt, error) { return mql.Parse(src) }
