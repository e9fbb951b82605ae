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
//
// There is one derivation loop, the executor DeriveStream starts: a
// planned query runs it with prune hooks, a filter sink and a worker
// pool; Derive, DeriveRoots, DeriveFor and Walk — behind the algebra
// operators, prima and the naive reference — run it on the calling
// goroutine with neither, and only collect what it derives. Every
// derivation therefore checks its roots against the root type's
// occurrence, books its work in a per-worker tally that closing the run
// folds into the database's statistics, and reuses its worker's scratch
// across roots.
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

// partners returns the children of atom a along edge ei, honouring the
// edge's traversal orientation, and accounts the logical work into the
// worker's scratch tally.
func (dv *Deriver) partners(ei int, a model.AtomID, sc *deriveScratch) []model.AtomID {
	out := dv.view.Partners(dv.stores[ei], a, dv.fromA[ei])
	sc.work.LinksTraversed += int64(len(out)) + 1
	return out
}

// deriveScratch is one executor worker's harness and scratch: its prune
// hooks laid out per type position and its filter sink, the builder the
// worker lays each molecule out in — taken from the pool of builders for
// the run, its dedup sets emptied per type and its buffers reused across
// roots, so a molecule that a hook or the sink rejects costs nothing, and
// a kept one is copied, at exact size, into its batch's slabs — and a
// local work tally flushed to the shared stats when the worker finishes,
// so the derive hot path performs no atomic operation per atom or link.
type deriveScratch struct {
	checks preparedChecks
	keep   func(m *Molecule) bool
	*builder
	work storage.WorkTally
	// run is the executor run the scratch serves; the closure loop polls
	// it per round, so a stopped run does not finish a deep closure it
	// will never deliver.
	run *Run
}

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

// preparedChecks is a worker's prune hooks laid out per type position,
// computed once and reused across every root the worker derives.
type preparedChecks []func([]model.AtomID) bool

// prepareChecks lays the hooks out per type position for O(1) access
// during derivation. Several checks on the same position conjoin: each
// keeps its own aggregation over the completed component set (two
// existential conjuncts on one type are NOT one existential conjunct
// over their AND).
func (dv *Deriver) prepareChecks(checks []PruneCheck) preparedChecks {
	if len(checks) == 0 {
		return nil
	}
	out := make(preparedChecks, dv.desc.NumTypes())
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

func (dv *Deriver) errNotRoot(root model.AtomID) error {
	return fmt.Errorf("core: atom %v is not in root type %q", root, dv.desc.Root())
}

// deriveScratched runs the template below one root atom in the worker's
// builder, leaving the logical work in the scratch tally. It aborts as
// soon as one of the worker's prune hooks disqualifies the molecule, and
// returns nil then; the molecule it returns is the builder's, valid until
// the next root.
func (dv *Deriver) deriveScratched(root model.AtomID, sc *deriveScratch) *Molecule {
	d := dv.desc
	m := sc.start(d, root)
	sc.work.AtomsFetched++
	if !sc.qualifies(d.pos[d.root], m) {
		return nil
	}
	if cl := d.Closure(); cl != nil {
		return dv.closeOver(m, cl.Depth, sc)
	}

	for _, t := range d.topo[1:] {
		pos, inc := d.pos[t], d.incoming[t]

		// Candidate component atoms: the intersection over all incoming
		// directed link types of the parents' partner sets (contained).
		for k, ei := range inc {
			sc.tmp.clear()
			for _, pa := range m.AtomsAt(d.pos[d.edges[ei].From]) {
				for _, p := range dv.partners(ei, pa, sc) {
					if k == 0 || sc.cand.has(p) {
						sc.tmp.add(p)
					}
				}
			}
			sc.cand, sc.tmp = sc.tmp, sc.cand
		}

		// Record atoms in deterministic first-reached order and all
		// component links between contained parents and contained children
		// (g is maximal for the atoms selected).
		lo := len(m.atoms)
		sc.seen.clear()
		for _, ei := range inc {
			at := len(m.links)
			for _, pa := range m.AtomsAt(d.pos[d.edges[ei].From]) {
				for _, p := range dv.partners(ei, pa, sc) {
					if !sc.cand.has(p) {
						continue
					}
					if sc.seen.add(p) {
						m.atoms = append(m.atoms, p)
					}
					m.links = append(m.links, model.Link{A: pa, B: p})
				}
			}
			m.setSpan(len(d.types)+ei, at, len(m.links))
		}
		m.setSpan(pos, lo, len(m.atoms))
		sc.work.AtomsFetched += int64(len(m.atoms) - lo)
		if !sc.qualifies(pos, m) {
			return nil
		}
	}
	return m
}

// qualifies runs the worker's prune hook for the completed component set
// at pos.
func (sc *deriveScratch) qualifies(pos int, m *Molecule) bool {
	return sc.checks == nil || sc.checks[pos] == nil || sc.checks[pos](m.AtomsAt(pos))
}

// closeOver completes the molecule of a closure description: starting
// from the root already in m, the one reflexive edge is followed to a
// fixpoint by semi-naive iteration — the frontier of round r is exactly
// the atoms first reached in round r−1. The scratch's seen set breaks
// cycles; a link into an already-reached atom is still recorded, so
// diamonds and back-edges appear in the molecule; a positive depth bounds
// the rounds. It returns nil when the executor's stop flag interrupts it
// between rounds.
func (dv *Deriver) closeOver(m *Molecule, depth int, sc *deriveScratch) *Molecule {
	sc.seen.clear()
	sc.seen.add(m.root)
	m.levels = append(m.levels, 1)
	for lo, round := 0, 1; lo < len(m.atoms) && (depth == 0 || round <= depth); round++ {
		if sc.run.stopped() {
			return nil
		}
		hi := len(m.atoms)
		for _, a := range m.atoms[lo:hi] {
			for _, q := range dv.partners(0, a, sc) {
				m.links = append(m.links, model.Link{A: a, B: q})
				if sc.seen.add(q) {
					m.atoms = append(m.atoms, q)
				}
			}
		}
		if len(m.atoms) > hi {
			m.levels = append(m.levels, int32(len(m.atoms)))
		}
		lo = hi
	}
	m.setSpan(0, 0, len(m.atoms))
	m.setSpan(1, 0, len(m.links))
	// The root was accounted when it entered the molecule.
	sc.work.AtomsFetched += int64(len(m.atoms) - 1)
	return m
}

// RootIDs returns the root-type occurrence's identifiers in insertion
// order — the full root batch of a scan-based derivation.
func (dv *Deriver) RootIDs() []model.AtomID { return dv.view.IDs(dv.roots) }

// walkRoots derives the molecules of roots on the executor — batches of
// size roots, derived on the calling goroutine with no hooks and no
// filter sink — and hands them to fn in root order until it returns
// false. A root outside the root type's occurrence fails its batch, so
// fn sees nothing of it.
func (dv *Deriver) walkRoots(roots []model.AtomID, size int, fn func(*Molecule) bool) error {
	run := dv.DeriveStream(nil, RootSlice(roots), 1, size, func(int) FusedWorker { return FusedWorker{} })
	defer run.Close()
	for {
		batch, err := run.Next()
		if err != nil || len(batch) == 0 {
			return err
		}
		for _, m := range batch {
			if !fn(m) {
				return nil
			}
		}
	}
}

// Derive materializes the full molecule-type occurrence: one molecule per
// atom of the root type, in the root container's insertion order. On the
// latest view, a root deleted by a commit after RootIDs read it fails the
// derivation, which then returns no molecule; attach a snapshot with At
// for a stable occurrence.
func (dv *Deriver) Derive() MoleculeSet {
	out, _ := dv.DeriveRoots(dv.RootIDs())
	return out
}

// DeriveRoots materializes the molecules for the given root atoms only —
// the entry point for index-assisted restriction pushdown. Every root
// must belong to the root type's occurrence.
func (dv *Deriver) DeriveRoots(roots []model.AtomID) (MoleculeSet, error) {
	out := make(MoleculeSet, 0, len(roots))
	err := dv.walkRoots(roots, len(roots), func(m *Molecule) bool {
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeriveFor synthesizes the single molecule rooted at the given atom,
// which must belong to the root type's occurrence.
func (dv *Deriver) DeriveFor(root model.AtomID) (*Molecule, error) {
	set, err := dv.DeriveRoots([]model.AtomID{root})
	if err != nil {
		return nil, err
	}
	return set[0], nil
}

// Walk streams molecules one root at a time without materializing the
// whole occurrence; fn returning false stops the walk, and nothing past
// that molecule is derived. On the latest view, a root deleted by a
// commit after the walk started ends it there.
func (dv *Deriver) Walk(fn func(*Molecule) bool) {
	dv.walkRoots(dv.RootIDs(), 1, fn)
}
