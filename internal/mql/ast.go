package mql

import (
	"strings"

	"mad/internal/expr"
	"mad/internal/model"
)

// Stmt is any parsed MQL statement.
type Stmt interface{ stmt() }

// StructNode is one node of a parsed molecule structure: an atom type and
// its outgoing branches.
type StructNode struct {
	Type     string
	Children []StructEdge
}

// StructEdge is one outgoing branch: an optional explicit link-type name
// (empty = resolve the unique link between the adjacent types) and the
// child subtree.
type StructEdge struct {
	Link string
	Node *StructNode
}

// String renders the structure in the paper's chain syntax.
func (n *StructNode) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *StructNode) render(b *strings.Builder) {
	b.WriteString(n.Type)
	switch len(n.Children) {
	case 0:
	case 1:
		e := n.Children[0]
		b.WriteByte('-')
		if e.Link != "" {
			b.WriteString("[" + e.Link + "]-")
		}
		e.Node.render(b)
	default:
		b.WriteString("-(")
		for i, e := range n.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			if e.Link != "" {
				b.WriteString("[" + e.Link + "]-")
			}
			e.Node.render(b)
		}
		b.WriteByte(')')
	}
}

// ProjItem is one SELECT-list entry: an atom type, optionally narrowed to
// specific attributes (state, state.name, state(name, hectare)).
type ProjItem struct {
	Type  string
	Attrs []string // nil = all attributes
}

// FromClause is the FROM part of a SELECT: either a structure (optionally
// named, defining a molecule type on the fly, as in
// mt_state(state-area-edge-point)), a reference to a previously defined
// named molecule type, or a recursive structure over a reflexive link.
type FromClause struct {
	// Name is the optional molecule-type name.
	Name string
	// Struct is the parsed structure; nil when referencing a named type
	// or using RECURSIVE.
	Struct *StructNode
	// Recursive describes FROM RECURSIVE <type> VIA <link> [UP|DOWN]
	// [DEPTH n].
	Recursive *RecursiveClause
}

// RecursiveClause is the recursive molecule structure of Chapter 5 /
// [Schö89]: a root atom type closed transitively over a reflexive link
// type.
type RecursiveClause struct {
	Type  string
	Link  string
	Up    bool // super-component view instead of sub-component view
	Depth int  // 0 = unbounded
}

// OrderClause is ORDER BY [type.]attr [ASC|DESC]. The attribute must
// belong to the structure's root type: molecules order by their root
// atom's value, ties broken by root atom ID ascending. An empty Type
// defaults to the root.
type OrderClause struct {
	Type string
	Attr string
	Desc bool
}

// GroupClause is GROUP BY [type.]attr, valid only with SELECT COUNT:
// the stream's molecules fold into one count per distinct root-attribute
// value without ever materializing the result set.
type GroupClause struct {
	Type string
	Attr string
}

// SelectStmt is
//
//	SELECT <list|ALL|COUNT> FROM <from> [WHERE <pred>]
//	    [GROUP BY attr] [ORDER BY attr [ASC|DESC]] [LIMIT n].
type SelectStmt struct {
	All   bool
	Items []ProjItem
	// Count marks SELECT COUNT — the statement returns how many
	// molecules qualify (per group when GroupBy is set) instead of the
	// molecules themselves.
	Count bool
	From  FromClause
	Where expr.Expr
	// GroupBy folds SELECT COUNT into per-group counts.
	GroupBy *GroupClause
	// OrderBy delivers molecules sorted by a root attribute; the planner
	// rides an ordered index when one covers the attribute and otherwise
	// reorders the stream through a heap (bounded to the top K under
	// LIMIT).
	OrderBy *OrderClause
	// Limit caps the molecules delivered (0 = no limit); execution
	// cancels the in-flight derivation once the cap is reached.
	Limit int
}

func (*SelectStmt) stmt() {}

// DefineStmt is DEFINE MOLECULE TYPE <name> AS <body> — the algebra mode:
// operators run with propagation and the result registers under the name.
// The body is either a SELECT (α, Σ, Π) or a set operation over two
// previously defined molecule types (Ω, Δ, Ψ):
//
//	DEFINE MOLECULE TYPE u AS UNION OF a AND b;
//	DEFINE MOLECULE TYPE d AS DIFFERENCE OF a AND b;
//	DEFINE MOLECULE TYPE i AS INTERSECT OF a AND b;
type DefineStmt struct {
	Name   string
	Select *SelectStmt
	// SetOp is "UNION", "DIFFERENCE" or "INTERSECT" when the body is a
	// set operation; Left and Right name the operand molecule types.
	SetOp       string
	Left, Right string
}

func (*DefineStmt) stmt() {}

// CreateAtomTypeStmt is CREATE ATOM TYPE name (attr KIND [NOT NULL], ...).
type CreateAtomTypeStmt struct {
	Name  string
	Attrs []model.AttrDesc
}

func (*CreateAtomTypeStmt) stmt() {}

// CreateLinkTypeStmt is CREATE LINK TYPE name BETWEEN a AND b
// [CARD x:y, x:y].
type CreateLinkTypeStmt struct {
	Name string
	Desc model.LinkDesc
}

func (*CreateLinkTypeStmt) stmt() {}

// CreateIndexStmt is CREATE INDEX ON type(attr).
type CreateIndexStmt struct {
	Type string
	Attr string
}

func (*CreateIndexStmt) stmt() {}

// InsertStmt is INSERT INTO type [(attrs)] VALUES (lits) [, (lits)]*.
type InsertStmt struct {
	Type  string
	Attrs []string // nil = declaration order
	Rows  [][]model.Value
}

func (*InsertStmt) stmt() {}

// UpdateStmt is UPDATE type SET attr = lit [, ...] [WHERE pred].
type UpdateStmt struct {
	Type  string
	Set   map[string]model.Value
	Order []string // SET clause order, for deterministic reporting
	Where expr.Expr
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is DELETE FROM type [WHERE pred].
type DeleteStmt struct {
	Type  string
	Where expr.Expr
}

func (*DeleteStmt) stmt() {}

// ConnectStmt is CONNECT a [WHERE p] TO b [WHERE q] VIA link — it links
// every selected a-atom with every selected b-atom. DisconnectStmt is the
// inverse.
type ConnectStmt struct {
	FromType  string
	FromWhere expr.Expr
	ToType    string
	ToWhere   expr.Expr
	Link      string
	Remove    bool // DISCONNECT
}

func (*ConnectStmt) stmt() {}

// ShowStmt is SHOW SCHEMA | TYPES | MOLECULE TYPES | INDEXES | STATS |
// HISTOGRAMS.
type ShowStmt struct {
	What string // "SCHEMA", "TYPES", "MOLECULES", "INDEXES", "STATS", "HISTOGRAMS"
}

func (*ShowStmt) stmt() {}

// ExplainStmt is EXPLAIN [(ESTIMATE)] SELECT ... — it reports the plan
// instead of returning molecules. The plain form executes the plan so
// the rendering carries actual cardinalities next to the estimates; the
// ESTIMATE form only compiles, for planning against expensive queries.
type ExplainStmt struct {
	Select *SelectStmt
	// EstimateOnly suppresses execution (EXPLAIN (ESTIMATE)).
	EstimateOnly bool
}

func (*ExplainStmt) stmt() {}

// PrepareStmt is PREPARE name AS SELECT ... — it parses and resolves a
// parameterized SELECT whose WHERE clause may contain '?' placeholders.
// Later EXECUTEs bind literals to the placeholders and compile the bound
// statement.
type PrepareStmt struct {
	Name   string
	Select *SelectStmt
}

func (*PrepareStmt) stmt() {}

// ExecuteStmt is EXECUTE name [(lit, ...)] — it runs a PREPARE'd
// statement with the given literals bound to its placeholders in order.
type ExecuteStmt struct {
	Name string
	Args []model.Value
}

func (*ExecuteStmt) stmt() {}

// SetStmt is SET <option> [=] <literal> — per-session execution options
// threaded into subsequent query plans: SET WORKERS n bounds the worker
// pool (0 = all cores).
type SetStmt struct {
	Name  string
	Value model.Value
}

func (*SetStmt) stmt() {}

// AnalyzeStmt is ANALYZE [type] — it (re)builds the equi-depth
// histograms the planner estimates selectivities from, over one atom
// type or all of them.
type AnalyzeStmt struct {
	Type string // "" = every atom type
}

func (*AnalyzeStmt) stmt() {}

// CheckpointStmt is CHECKPOINT — it writes a consistent snapshot of the
// database (data, indexes, histograms) and truncates the
// write-ahead log below it. It errs on an in-memory database.
type CheckpointStmt struct{}

func (*CheckpointStmt) stmt() {}

// BeginStmt is BEGIN [TRANSACTION] — it opens a buffered-write
// transaction on the session, pinned to a snapshot of the latest commit:
// subsequent DML buffers into it and SELECTs read the begin snapshot
// until COMMIT or ROLLBACK ends it.
type BeginStmt struct{}

func (*BeginStmt) stmt() {}

// CommitStmt is COMMIT [TRANSACTION] — it installs every mutation
// buffered since BEGIN atomically, under one commit timestamp.
type CommitStmt struct{}

func (*CommitStmt) stmt() {}

// RollbackStmt is ROLLBACK [TRANSACTION] — it discards the buffered
// mutations; nothing ever becomes visible.
type RollbackStmt struct{}

func (*RollbackStmt) stmt() {}
