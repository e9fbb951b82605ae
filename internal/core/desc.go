// Package core implements the molecule algebra, the paper's primary
// contribution: molecule-type descriptions (Definition 5), molecule
// derivation m_dom (Definition 6), molecule types (Definition 7), the
// molecule-type-definition operator α (Definition 8), result-set
// propagation prop (Definition 9) and the molecule-type operations
// Σ, Π, X, Ω, Δ and the derived intersection Ψ (Definition 10,
// Theorems 2–3).
package core

import (
	"fmt"
	"strings"

	"mad/internal/storage"
)

// DirectedLink is one edge dl = <lname, from, to> of a molecule-type
// description: a link type given a traversal direction for this structure
// (Definition 5). The underlying link type is symmetric; the direction is
// chosen per query — the basis of the "symmetric use of the database"
// illustrated by Fig. 2.
type DirectedLink struct {
	Link string // link-type name
	From string // start atom-type name
	To   string // end atom-type name
}

// String renders the edge as "<link, from, to>".
func (d DirectedLink) String() string {
	return fmt.Sprintf("<%s, %s, %s>", d.Link, d.From, d.To)
}

// Desc is a molecule-type description md = <C, G>: a set of atom-type
// names C and directed link types G forming a directed, acyclic, coherent
// type graph with exactly one root — the md_graph predicate (Definition
// 5). A Desc is immutable after construction.
type Desc struct {
	types []string // C, in declaration order; types[0] need not be the root
	edges []DirectedLink
	str   string // rendering, memoized at construction (Desc is immutable)

	root     string
	topo     []string         // types in a topological order, root first
	incoming map[string][]int // type → indexes into edges arriving at it
	outgoing map[string][]int // type → indexes into edges leaving it
	pos      map[string]int   // type → position in types

	closure *Closure // non-nil for a closure description (NewClosureDesc)
}

// Closure is the recursion shape of a closure description: the direction
// its one reflexive edge is followed in, and how far.
type Closure struct {
	// Link is the reflexive link type closed over.
	Link string
	// Up selects the super-component view (the link traversed backward);
	// the default is the sub-component view.
	Up bool
	// Depth bounds the closure depth; 0 means the full transitive closure.
	Depth int
}

// NewDesc validates <C, G> against the database and computes the
// traversal structure. It enforces md_graph: every node and edge must
// exist in the database with compatible sides, and the graph must be
// directed, acyclic, coherent, and single-rooted.
func NewDesc(db *storage.Database, types []string, edges []DirectedLink) (*Desc, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("core: molecule description needs at least one atom type")
	}
	d := &Desc{
		types:    append([]string(nil), types...),
		edges:    append([]DirectedLink(nil), edges...),
		incoming: make(map[string][]int),
		outgoing: make(map[string][]int),
		pos:      make(map[string]int),
	}
	// Types resolve through their occurrences, not the catalog: a type a
	// transaction defined is part of its structures before it commits.
	for i, t := range d.types {
		if _, dup := d.pos[t]; dup {
			return nil, fmt.Errorf("core: atom type %q appears twice in C (C is a set)", t)
		}
		if _, ok := db.Container(t); !ok {
			return nil, fmt.Errorf("core: unknown atom type %q in molecule description", t)
		}
		d.pos[t] = i
	}
	for i, e := range d.edges {
		if _, ok := d.pos[e.From]; !ok {
			return nil, fmt.Errorf("core: edge %s starts outside C", e)
		}
		if _, ok := d.pos[e.To]; !ok {
			return nil, fmt.Errorf("core: edge %s ends outside C", e)
		}
		ls, ok := db.LinkStore(e.Link)
		if !ok {
			return nil, fmt.Errorf("core: unknown link type %q in molecule description", e.Link)
		}
		ld := ls.Desc()
		if !(ld.SideA == e.From && ld.SideB == e.To) && !(ld.SideA == e.To && ld.SideB == e.From) {
			return nil, fmt.Errorf("core: link type %q connects %s, not %q→%q", e.Link, ld, e.From, e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("core: edge %s is a self-loop; reflexive structures need recursive molecule types", e)
		}
		d.incoming[e.To] = append(d.incoming[e.To], i)
		d.outgoing[e.From] = append(d.outgoing[e.From], i)
	}
	if err := d.computeGraph(); err != nil {
		return nil, err
	}
	d.str = d.render()
	return d, nil
}

// NewClosureDesc builds the description of a recursive molecule type
// (Chapter 5): the single atom type closed over one direction of a
// reflexive link type, optionally depth-bounded — a root atom plus
// everything the one reflexive edge reaches when it is followed to a
// fixpoint. md_graph excludes self-loops, so NewDesc rejects the shape;
// a closure description is query-mode only — it derives and plans like
// any other description, while propagation (and with it Σ, Π, X, Ω, Δ in
// algebra mode) rejects it.
func NewClosureDesc(db *storage.Database, atomType, link string, up bool, depth int) (*Desc, error) {
	if _, ok := db.Container(atomType); !ok {
		return nil, fmt.Errorf("core: unknown atom type %q in recursive structure", atomType)
	}
	ls, ok := db.LinkStore(link)
	if !ok {
		return nil, fmt.Errorf("core: unknown link type %q in recursive structure", link)
	}
	if ld := ls.Desc(); !ld.Reflexive() || ld.SideA != atomType {
		return nil, fmt.Errorf("core: link type %q is not reflexive on %q", link, atomType)
	}
	if depth < 0 {
		return nil, fmt.Errorf("core: negative recursion depth")
	}
	d := &Desc{
		types:   []string{atomType},
		edges:   []DirectedLink{{Link: link, From: atomType, To: atomType}},
		root:    atomType,
		topo:    []string{atomType},
		pos:     map[string]int{atomType: 0},
		closure: &Closure{Link: link, Up: up, Depth: depth},
	}
	d.str = d.render()
	return d, nil
}

// Closure returns the recursion shape of a closure description, nil for
// a plain one.
func (d *Desc) Closure() *Closure { return d.closure }

// Sub returns the description induced by keep — the kept types in
// declaration order and every edge between two of them — the structure
// of a projection Π, which must keep the root and stay coherent.
func (d *Desc) Sub(db *storage.Database, keep []string) (*Desc, error) {
	in := make(map[string]bool, len(keep))
	for _, t := range keep {
		if !d.HasType(t) {
			return nil, fmt.Errorf("core: Π: type %q is not part of %s", t, d)
		}
		in[t] = true
	}
	if !in[d.root] {
		return nil, fmt.Errorf("core: Π: projection must keep the root type %q", d.root)
	}
	var types []string
	for _, t := range d.types {
		if in[t] {
			types = append(types, t)
		}
	}
	var edges []DirectedLink
	for _, e := range d.edges {
		if in[e.From] && in[e.To] {
			edges = append(edges, e)
		}
	}
	sub, err := NewDesc(db, types, edges)
	if err != nil {
		return nil, fmt.Errorf("core: Π: induced structure invalid: %w", err)
	}
	return sub, nil
}

// computeGraph checks acyclicity, coherence and single-rootedness, and
// fixes a topological order (root first, then by Kahn's algorithm with
// declaration-order tie-breaking for determinism).
func (d *Desc) computeGraph() error {
	var roots []string
	for _, t := range d.types {
		if len(d.incoming[t]) == 0 {
			roots = append(roots, t)
		}
	}
	switch len(roots) {
	case 0:
		return fmt.Errorf("core: molecule description has no root (cyclic)")
	case 1:
		d.root = roots[0]
	default:
		return fmt.Errorf("core: molecule description has several roots: %s", strings.Join(roots, ", "))
	}
	// Kahn's algorithm; deterministic because the frontier is scanned in
	// declaration order.
	indeg := make(map[string]int, len(d.types))
	for _, t := range d.types {
		indeg[t] = len(d.incoming[t])
	}
	done := make(map[string]bool, len(d.types))
	for len(d.topo) < len(d.types) {
		advanced := false
		for _, t := range d.types {
			if done[t] || indeg[t] != 0 {
				continue
			}
			done[t] = true
			d.topo = append(d.topo, t)
			for _, ei := range d.outgoing[t] {
				indeg[d.edges[ei].To]--
			}
			advanced = true
		}
		if !advanced {
			return fmt.Errorf("core: molecule description contains a cycle")
		}
	}
	// Coherence: every node reachable from the root along directed edges.
	// In a DAG with a unique in-degree-0 node every node is reachable from
	// it, but verify explicitly so the invariant survives refactoring.
	reach := map[string]bool{d.root: true}
	for _, t := range d.topo {
		if !reach[t] {
			continue
		}
		for _, ei := range d.outgoing[t] {
			reach[d.edges[ei].To] = true
		}
	}
	for _, t := range d.types {
		if !reach[t] {
			return fmt.Errorf("core: molecule description is not coherent: %q unreachable from root %q", t, d.root)
		}
	}
	return nil
}

// Root returns the root atom-type name.
func (d *Desc) Root() string { return d.root }

// Types returns C in declaration order.
func (d *Desc) Types() []string { return append([]string(nil), d.types...) }

// Edges returns G in declaration order.
func (d *Desc) Edges() []DirectedLink { return append([]DirectedLink(nil), d.edges...) }

// NumTypes returns |C|.
func (d *Desc) NumTypes() int { return len(d.types) }

// NumEdges returns |G|.
func (d *Desc) NumEdges() int { return len(d.edges) }

// Topo returns the fixed topological order, root first.
func (d *Desc) Topo() []string { return append([]string(nil), d.topo...) }

// Pos returns the declaration position of an atom type in C.
func (d *Desc) Pos(typeName string) (int, bool) {
	p, ok := d.pos[typeName]
	return p, ok
}

// HasType reports whether the named atom type belongs to C.
func (d *Desc) HasType(typeName string) bool {
	_, ok := d.pos[typeName]
	return ok
}

// Incoming returns the indexes (into Edges) of edges arriving at the type.
func (d *Desc) Incoming(typeName string) []int { return d.incoming[typeName] }

// Outgoing returns the indexes (into Edges) of edges leaving the type.
func (d *Desc) Outgoing(typeName string) []int { return d.outgoing[typeName] }

// Edge returns the i-th directed link.
func (d *Desc) Edge(i int) DirectedLink { return d.edges[i] }

// SameShape reports whether two descriptions are positionally isomorphic:
// equal node and edge counts, with every edge connecting the same node
// *positions* through possibly renamed types and link types. Propagated
// result descriptions keep their source's shape, so shape equality is the
// compatibility notion for Ω, Δ and molecule comparison across enlarged
// databases.
func (d *Desc) SameShape(o *Desc) bool {
	if len(d.types) != len(o.types) || len(d.edges) != len(o.edges) || !d.sameClosure(o) {
		return false
	}
	for i, e := range d.edges {
		oe := o.edges[i]
		if d.pos[e.From] != o.pos[oe.From] || d.pos[e.To] != o.pos[oe.To] {
			return false
		}
	}
	return d.pos[d.root] == o.pos[o.root]
}

// sameClosure reports that both descriptions are plain, or both are
// closures of the same direction and depth.
func (d *Desc) sameClosure(o *Desc) bool {
	if d.closure == nil || o.closure == nil {
		return d.closure == o.closure
	}
	return d.closure.Up == o.closure.Up && d.closure.Depth == o.closure.Depth
}

// Equal reports full equality: same types in the same order and the same
// edges (including link-type names).
func (d *Desc) Equal(o *Desc) bool {
	if len(d.types) != len(o.types) || len(d.edges) != len(o.edges) || !d.sameClosure(o) {
		return false
	}
	for i := range d.types {
		if d.types[i] != o.types[i] {
			return false
		}
	}
	for i := range d.edges {
		if d.edges[i] != o.edges[i] {
			return false
		}
	}
	return true
}

// String returns the description in the paper's notation: "<{C}, {G}>"
// with the root marked. The rendering is memoized at construction, so it
// does not allocate.
func (d *Desc) String() string { return d.str }

// render builds the String rendering once, at construction.
func (d *Desc) render() string {
	var b strings.Builder
	b.WriteString("<{")
	for i, t := range d.types {
		if i > 0 {
			b.WriteString(", ")
		}
		if t == d.root {
			b.WriteString(t + "*")
		} else {
			b.WriteString(t)
		}
	}
	b.WriteString("}, {")
	for i, e := range d.edges {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	if c := d.closure; c != nil {
		// All four fields of the recursion shape: two closures render
		// alike only if they derive alike.
		if c.Up {
			b.WriteString(" ⟲ up")
		} else {
			b.WriteString(" ⟲ down")
		}
		if c.Depth > 0 {
			fmt.Fprintf(&b, ", depth ≤ %d", c.Depth)
		}
	}
	b.WriteString("}>")
	return b.String()
}
