package core

import (
	"fmt"

	"mad/internal/model"
	"mad/internal/storage"
)

// Deriver synthesizes molecules: it implements the function m_dom
// (Definition 6) operationally, "using the molecule structure as a kind of
// template, which is laid over the atom networks. Thus, for each atom of
// the root atom type one molecule is derived following all links
// determined by the link types of the molecule structure to the children,
// grandchildren atoms etc. till the leaves are reached" (Section 2).
//
// The derivation realizes the recursive predicate contained: an atom
// belongs to the molecule iff it is the root, or, for *every* directed
// link type arriving at its atom type, some already-contained parent atom
// links to it. Nodes with a single incoming edge therefore follow plain
// hierarchical-join semantics; nodes with several incoming edges take the
// intersection of their parents' partner sets.
type Deriver struct {
	db   *storage.Database
	desc *Desc

	stores []*storage.LinkStore // per edge
	fromA  []bool               // per edge: true when edge.From is the link type's side A
	roots  *storage.Container

	// view is the database every read — root occurrence and link
	// traversals, downward and upward — looks at: the latest published
	// commit unless At attached a pinned snapshot or a transaction's
	// effective view. One view makes a whole derivation run consistent
	// with exactly one state, no matter how many writers commit while it
	// streams.
	view storage.View
}

// NewDeriver prepares a derivation plan for the description: it resolves
// every edge's link store and traversal orientation once.
func NewDeriver(db *storage.Database, desc *Desc) (*Deriver, error) {
	dv := &Deriver{
		db:     db,
		desc:   desc,
		stores: make([]*storage.LinkStore, desc.NumEdges()),
		fromA:  make([]bool, desc.NumEdges()),
		view:   db.View(0),
	}
	for i, e := range desc.edges {
		ls, ok := db.LinkStore(e.Link)
		if !ok {
			return nil, fmt.Errorf("core: link type %q has no store", e.Link)
		}
		dv.stores[i] = ls
		dv.fromA[i] = ls.Desc().SideA == e.From
	}
	if cl := desc.Closure(); cl != nil {
		// Both sides of a reflexive link type are the one atom type; the
		// closure's direction picks the side expansion starts from.
		dv.fromA[0] = !cl.Up
	}
	c, ok := db.Container(desc.Root())
	if !ok {
		return nil, fmt.Errorf("core: root atom type %q has no container", desc.Root())
	}
	dv.roots = c
	return dv, nil
}

// At returns a copy of the deriver reading through the view: a pinned
// snapshot makes the derivation immune to torn molecules under concurrent
// commits, a transaction's effective view derives molecules that include
// its own uncommitted inserts, updates and connects (read-your-writes).
// The copy shares the resolved stores and containers — attaching is free.
// Whatever keeps the view valid (the snapshot open, the transaction
// unfinished and not written to) must outlive the returned deriver.
func (dv *Deriver) At(v storage.View) *Deriver {
	cp := *dv
	cp.view = v
	return &cp
}

// View reports the view the deriver reads through.
func (dv *Deriver) View() storage.View { return dv.view }

func (dv *Deriver) rootHas(id model.AtomID) bool { return dv.view.Has(dv.roots, id) }

// partners returns the children of atom a along edge ei, honouring the
// edge's traversal orientation, and accounts the logical work: into the
// scratch tally when sc is non-nil (flushed to the shared stats once per
// batch), directly into the shared atomic counters otherwise.
func (dv *Deriver) partners(ei int, a model.AtomID, sc *deriveScratch) []model.AtomID {
	out := dv.view.Partners(dv.stores[ei], a, dv.fromA[ei])
	if sc != nil {
		sc.work.LinksTraversed += int64(len(out)) + 1
	} else {
		dv.db.Stats().LinksTraversed.Add(int64(len(out)) + 1)
	}
	return out
}

// deriveScratch is per-worker scratch for derivation-heavy loops: a free
// list of recycled molecules (pruned or rejected ones never escape the
// worker, so their slices and maps are reusable), reusable candidate
// sets for the per-type intersection, and a local work tally flushed to
// the shared stats once per batch — the derive hot path then performs no
// atomic operation per atom or link.
type deriveScratch struct {
	free []*Molecule
	cand map[model.AtomID]bool
	tmp  map[model.AtomID]bool
	work storage.WorkTally
	// run is the executor run the scratch serves; the closure loop polls
	// it per round, so a stopped run does not finish a deep closure it
	// will never deliver.
	run *executor
}

func newDeriveScratch(run *executor) *deriveScratch {
	return &deriveScratch{
		cand: make(map[model.AtomID]bool),
		tmp:  make(map[model.AtomID]bool),
		run:  run,
	}
}

// take returns a molecule for the root, recycling a retired one when
// available.
func (sc *deriveScratch) take(d *Desc, root model.AtomID) *Molecule {
	if n := len(sc.free); n > 0 {
		m := sc.free[n-1]
		sc.free = sc.free[:n-1]
		m.reset(d, root)
		return m
	}
	return newMolecule(d, root)
}

// recycle retires a molecule that never left the worker.
func (sc *deriveScratch) recycle(m *Molecule) { sc.free = append(sc.free, m) }

// flush folds the scratch tally into the shared statistics.
func (sc *deriveScratch) flush(db *storage.Database) { sc.work.FlushTo(db.Stats()) }

// PruneCheck is a derivation-time pushdown hook: once the component set
// of the atom type at position Pos is complete (derivation fills types in
// topological order, so completion is well defined), Qualifies decides
// whether the molecule can still satisfy the query. When it returns false
// the molecule is discarded on the spot and the subtree below that type
// is never traversed — restriction conjuncts referencing a single atom
// type cut work during m_dom instead of post-filtering whole molecules.
// Surviving molecules are derived in full, so a pruned derivation returns
// exactly the molecules of the unpruned one that pass every check.
type PruneCheck struct {
	Pos       int
	Qualifies func(atoms []model.AtomID) bool
}

// PreparedChecks is the per-position layout of prune hooks, computed
// once and reused across every root of a derivation.
type PreparedChecks []func([]model.AtomID) bool

// PrepareChecks lays the hooks out per type position for O(1) access
// during derivation. Several checks on the same position conjoin: each
// keeps its own aggregation over the completed component set (two
// existential conjuncts on one type are NOT one existential conjunct
// over their AND).
func (dv *Deriver) PrepareChecks(checks []PruneCheck) PreparedChecks {
	if len(checks) == 0 {
		return nil
	}
	out := make(PreparedChecks, dv.desc.NumTypes())
	for _, c := range checks {
		if c.Pos < 0 || c.Pos >= len(out) {
			continue
		}
		if prev := out[c.Pos]; prev != nil {
			q := c.Qualifies
			out[c.Pos] = func(atoms []model.AtomID) bool {
				return prev(atoms) && q(atoms)
			}
		} else {
			out[c.Pos] = c.Qualifies
		}
	}
	return out
}

// DeriveFor synthesizes the single molecule rooted at the given atom,
// which must belong to the root type's occurrence.
func (dv *Deriver) DeriveFor(root model.AtomID) (*Molecule, error) {
	if !dv.rootHas(root) {
		return nil, dv.errNotRoot(root)
	}
	return dv.derive(root), nil
}

func (dv *Deriver) errNotRoot(root model.AtomID) error {
	return fmt.Errorf("core: atom %v is not in root type %q", root, dv.desc.Root())
}

// derive runs the template over the atom network below one root atom.
func (dv *Deriver) derive(root model.AtomID) *Molecule {
	return dv.deriveScratched(root, nil, nil)
}

// deriveScratched runs the template below one root atom, aborting as
// soon as a prune hook disqualifies the molecule (it returns nil then).
// With sc non-nil, pruned molecules are recycled, the candidate sets are
// reused across types and roots, and the logical-work accounting stays in
// the scratch tally instead of hitting the shared atomic counters per
// atom. A nil sc reproduces the plain allocation behaviour.
func (dv *Deriver) deriveScratched(root model.AtomID, byPos PreparedChecks, sc *deriveScratch) *Molecule {
	d := dv.desc
	var m *Molecule
	if sc != nil {
		m = sc.take(d, root)
	} else {
		m = newMolecule(d, root)
	}
	rootPos, _ := d.Pos(d.Root())
	m.addAtom(rootPos, root)
	if sc != nil {
		sc.work.AtomsFetched++
	} else {
		dv.db.Stats().AtomsFetched.Add(1)
	}
	if byPos != nil && byPos[rootPos] != nil && !byPos[rootPos](m.atoms[rootPos]) {
		if sc != nil {
			sc.recycle(m)
		}
		return nil
	}
	if cl := d.Closure(); cl != nil {
		return dv.closeOver(m, cl.Depth, sc)
	}

	for _, t := range d.topo {
		if t == d.Root() {
			continue
		}
		pos, _ := d.Pos(t)
		inc := d.Incoming(t)

		// Candidate component atoms: the intersection over all incoming
		// directed link types of the parents' partner sets (contained).
		var cand map[model.AtomID]bool
		for k, ei := range inc {
			e := d.Edge(ei)
			fromPos, _ := d.Pos(e.From)
			var s map[model.AtomID]bool
			switch {
			case sc != nil && k == 0:
				clear(sc.cand)
				s = sc.cand
			case sc != nil:
				clear(sc.tmp)
				s = sc.tmp
			default:
				s = make(map[model.AtomID]bool)
			}
			for _, pa := range m.atoms[fromPos] {
				for _, p := range dv.partners(ei, pa, sc) {
					s[p] = true
				}
			}
			if k == 0 {
				cand = s
				continue
			}
			for id := range cand {
				if !s[id] {
					delete(cand, id)
				}
			}
		}

		// Record atoms in deterministic first-reached order and all
		// component links between contained parents and contained children
		// (g is maximal for the atoms selected).
		for _, ei := range inc {
			e := d.Edge(ei)
			fromPos, _ := d.Pos(e.From)
			for _, pa := range m.atoms[fromPos] {
				for _, p := range dv.partners(ei, pa, sc) {
					if !cand[p] {
						continue
					}
					m.addAtom(pos, p)
					m.addLink(ei, model.Link{A: pa, B: p})
				}
			}
		}
		if sc != nil {
			sc.work.AtomsFetched += int64(len(m.atoms[pos]))
		} else {
			dv.db.Stats().AtomsFetched.Add(int64(len(m.atoms[pos])))
		}
		if byPos != nil && byPos[pos] != nil && !byPos[pos](m.atoms[pos]) {
			if sc != nil {
				sc.recycle(m)
			}
			return nil
		}
	}
	return m
}

// closeOver completes the molecule of a closure description: starting
// from the root already in m, the one reflexive edge is followed to a
// fixpoint by semi-naive iteration — the frontier of round r is exactly
// the atoms first reached in round r−1. The molecule's membership set
// breaks cycles; a link into an already-reached atom is still recorded,
// so diamonds and back-edges appear in the molecule; a positive depth
// bounds the rounds. It returns nil (recycling m) when the executor's
// stop flag interrupts it between rounds.
func (dv *Deriver) closeOver(m *Molecule, depth int, sc *deriveScratch) *Molecule {
	m.levels = append(m.levels, 1)
	for lo, round := 0, 1; lo < len(m.atoms[0]) && (depth == 0 || round <= depth); round++ {
		if sc != nil && sc.run.stopped() {
			sc.recycle(m)
			return nil
		}
		hi := len(m.atoms[0])
		for _, a := range m.atoms[0][lo:hi] {
			for _, q := range dv.partners(0, a, sc) {
				m.addLink(0, model.Link{A: a, B: q})
				m.addAtom(0, q)
			}
		}
		if len(m.atoms[0]) > hi {
			m.levels = append(m.levels, len(m.atoms[0]))
		}
		lo = hi
	}
	// The root was accounted when it entered the molecule.
	if fetched := int64(len(m.atoms[0]) - 1); sc != nil {
		sc.work.AtomsFetched += fetched
	} else {
		dv.db.Stats().AtomsFetched.Add(fetched)
	}
	return m
}

// RootIDs returns the root-type occurrence's identifiers in insertion
// order — the full root batch of a scan-based derivation.
func (dv *Deriver) RootIDs() []model.AtomID { return dv.view.IDs(dv.roots) }

// Derive materializes the full molecule-type occurrence: one molecule per
// atom of the root type, in the root container's insertion order.
func (dv *Deriver) Derive() MoleculeSet {
	roots := dv.RootIDs()
	out := make(MoleculeSet, len(roots))
	for i, r := range roots {
		out[i] = dv.derive(r)
	}
	return out
}

// DeriveRoots materializes the molecules for the given root atoms only —
// the entry point for index-assisted restriction pushdown.
func (dv *Deriver) DeriveRoots(roots []model.AtomID) (MoleculeSet, error) {
	out := make(MoleculeSet, 0, len(roots))
	for _, r := range roots {
		m, err := dv.DeriveFor(r)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Walk streams molecules one root at a time without materializing the
// whole occurrence; fn returning false stops the walk.
func (dv *Deriver) Walk(fn func(*Molecule) bool) {
	for _, r := range dv.RootIDs() {
		if !fn(dv.derive(r)) {
			return
		}
	}
}
