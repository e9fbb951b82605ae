package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mad/internal/model"
)

// LinkStore holds the occurrence of one link type as a pair of adjacency
// maps, one per declared side, so that both traversal directions are O(1)
// per step. The two maps always mirror each other: links are symmetric
// ("the direct representation and the consideration of bidirectional, i.e.
// symmetric links establish the basis of the model's flexibility",
// Section 2). Each adjacency entry is a version chain of copy-on-write
// partner lists — connect and disconnect push a fresh list, never edit
// one — so snapshot readers traverse the lists a past commit installed
// while writers push new heads.
//
// For reflexive link types the sides remain distinct roles — the paper's
// bill-of-material example evaluates either the super-component or the
// sub-component view by traversing the same link type in one direction or
// the other.
//
// The exported readers serve the latest published commit; a View reads
// the same chains at its own timestamp.
type LinkStore struct {
	name  string
	desc  model.LinkDesc
	clock *atomic.Uint64 // the database's published commit timestamp

	latch sync.RWMutex
	fromA chains[model.AtomID, []model.AtomID] // side-A atom → side-B partners
	fromB chains[model.AtomID, []model.AtomID] // side-B atom → side-A partners
	live  int                                  // links present at the chain heads
	// epochBase is the occurrence size at the last plan-epoch bump this
	// store caused; the database compares live against it to decide when
	// link churn has drifted far enough to invalidate cached plans (plans
	// cost traversals from the store's fan statistics).
	epochBase int
}

// newLinkStore creates an empty occurrence for the given link type whose
// latest-view readers follow clock.
func newLinkStore(name string, desc model.LinkDesc, clock *atomic.Uint64) *LinkStore {
	return &LinkStore{
		name:  name,
		desc:  desc,
		clock: clock,
		fromA: make(chains[model.AtomID, []model.AtomID]),
		fromB: make(chains[model.AtomID, []model.AtomID]),
	}
}

// Name returns the link type's name.
func (ls *LinkStore) Name() string { return ls.name }

// Desc returns the link type's description.
func (ls *LinkStore) Desc() model.LinkDesc { return ls.desc }

// Len returns the number of links in the occurrence at the newest
// versions.
func (ls *LinkStore) Len() int {
	ls.latch.RLock()
	defer ls.latch.RUnlock()
	return ls.live
}

// side returns the adjacency map traversed from the given side.
func (ls *LinkStore) side(fromA bool) chains[model.AtomID, []model.AtomID] {
	if fromA {
		return ls.fromA
	}
	return ls.fromB
}

// partners returns the atoms linked to id at commit timestamp ts, in
// insertion order: the side-B partners of a side-A atom when fromA is
// set, the symmetric view otherwise. The returned slice is an immutable
// version; callers must not mutate it.
func (ls *LinkStore) partners(id model.AtomID, fromA bool, ts uint64) []model.AtomID {
	m := ls.side(fromA)
	ls.latch.RLock()
	out, _ := m[id].at(ts)
	ls.latch.RUnlock()
	return out
}

// Partners returns the atoms linked to id at the latest commit — the
// side-B partners of a side-A atom when fromA is set (for a reflexive
// link type the "forward" view, e.g. sub-components), the side-A partners
// of a side-B atom otherwise. The returned slice is an immutable version;
// callers must not mutate it.
func (ls *LinkStore) Partners(id model.AtomID, fromA bool) []model.AtomID {
	return ls.partners(id, fromA, ls.clock.Load())
}

// Has reports whether the link <a, b> (a on side A) is present at the
// latest commit. For reflexive link types the unsorted-pair reading
// applies: <a, b> and <b, a> denote the same link.
func (ls *LinkStore) Has(a, b model.AtomID) bool { return View{}.hasLink(ls, a, b) }

// pushPair installs the partner lists la (of a, side A) and lb (of b, side
// B) at ts, moves the live count by delta and returns the undo. Callers
// hold the write latch; the undo takes it itself.
func (ls *LinkStore) pushPair(a, b model.AtomID, la, lb []model.AtomID, ts uint64, delta int) (undo func()) {
	oldA := ls.fromA.push(a, la, ts, len(la) == 0)
	oldB := ls.fromB.push(b, lb, ts, len(lb) == 0)
	ls.live += delta
	return func() {
		ls.latch.Lock()
		defer ls.latch.Unlock()
		ls.fromB.pop(b, oldB)
		ls.fromA.pop(a, oldA)
		ls.live -= delta
	}
}

// connect installs the link <a, b> at commit timestamp ts. It is
// idempotent: inserting an existing link (including the mirrored form of
// a reflexive link) is a no-op with a nil undo. Cardinality restrictions
// are enforced here. Like every write primitive it reads the chain
// *heads*, not the published view — earlier operations of the same commit
// may have pushed lists at ts — and callers hold the commit mutex.
func (ls *LinkStore) connect(a, b model.AtomID, ts uint64) (undo func(), err error) {
	ls.latch.Lock()
	defer ls.latch.Unlock()
	la, _ := ls.fromA.head(a)
	lb, _ := ls.fromB.head(b)
	if slices.Contains(la, b) {
		return nil, nil
	}
	if mirrored, _ := ls.fromA.head(b); ls.desc.Reflexive() && slices.Contains(mirrored, a) {
		return nil, nil
	}
	if max := ls.desc.CardA.Max; max > 0 && len(la)+1 > max {
		return nil, fmt.Errorf("storage: link type %q: atom %v exceeds cardinality %s on side %s",
			ls.name, a, ls.desc.CardA, ls.desc.SideA)
	}
	if max := ls.desc.CardB.Max; max > 0 && len(lb)+1 > max {
		return nil, fmt.Errorf("storage: link type %q: atom %v exceeds cardinality %s on side %s",
			ls.name, b, ls.desc.CardB, ls.desc.SideB)
	}
	return ls.pushPair(a, b, append(slices.Clone(la), b), append(slices.Clone(lb), a), ts, +1), nil
}

// disconnect removes the link <a, b> at ts, handling the mirrored
// orientation of reflexive links; a nil undo means the link was absent.
func (ls *LinkStore) disconnect(a, b model.AtomID, ts uint64) (undo func()) {
	ls.latch.Lock()
	defer ls.latch.Unlock()
	la, _ := ls.fromA.head(a)
	if !slices.Contains(la, b) {
		la, _ = ls.fromA.head(b)
		if !ls.desc.Reflexive() || !slices.Contains(la, a) {
			return nil
		}
		a, b = b, a // stored mirrored
	}
	lb, _ := ls.fromB.head(b)
	return ls.pushPair(a, b, without(la, b), without(lb, a), ts, -1)
}

// without returns a copy of ids lacking the first occurrence of id.
func without(ids []model.AtomID, id model.AtomID) []model.AtomID {
	out := slices.Clone(ids)
	if i := slices.Index(out, id); i >= 0 {
		out = slices.Delete(out, i, i+1)
	}
	return out
}

// dropAtom removes every link incident to the atom on either side at ts
// and returns how many links were removed plus one undo covering all of
// them — the cascade that guarantees there are "no dangling references
// (i.e. links)" after atom deletion.
func (ls *LinkStore) dropAtom(id model.AtomID, ts uint64) (removed int, undo func()) {
	ls.latch.RLock()
	partnersA, _ := ls.fromA.head(id)
	partnersB, _ := ls.fromB.head(id)
	ls.latch.RUnlock()
	var undos []func()
	for _, b := range partnersA {
		if u := ls.disconnect(id, b, ts); u != nil {
			undos = append(undos, u)
		}
	}
	for _, a := range partnersB {
		if u := ls.disconnect(a, id, ts); u != nil {
			undos = append(undos, u)
		}
	}
	return len(undos), func() { undoAll(undos) }
}

// SideAtoms returns the number of distinct atoms with at least one
// partner on the given side at the latest commit — the denominator of the
// per-step fan-out statistic the planner uses to cost traversals in
// either direction.
func (ls *LinkStore) SideAtoms(sideA bool) int {
	ls.latch.RLock()
	defer ls.latch.RUnlock()
	ts := ls.clock.Load()
	n := 0
	for _, head := range ls.side(sideA) {
		if _, ok := head.at(ts); ok {
			n++
		}
	}
	return n
}

// AvgFan returns the average number of partners an atom on the given side
// reaches in one traversal step (occurrence size over distinct linked
// atoms on that side). Links are symmetric, so the statistic exists for
// both directions; the planner reads the child side's fan to cost the
// upward climb of an interior-index access path. Zero when the side has
// no linked atoms.
func (ls *LinkStore) AvgFan(fromSideA bool) float64 {
	n := ls.SideAtoms(fromSideA)
	if n == 0 {
		return 0
	}
	return float64(ls.Len()) / float64(n)
}

// Scan calls fn for every link at the latest commit, side-A endpoint
// first, in a deterministic order (side-A atoms ascending, partners in
// insertion order). fn returning false stops the scan.
func (ls *LinkStore) Scan(fn func(model.Link) bool) {
	for _, l := range ls.Links() {
		if !fn(l) {
			return
		}
	}
}

// Links returns all links at the latest commit in deterministic order.
func (ls *LinkStore) Links() []model.Link { return ls.links(ls.clock.Load()) }

// links returns the links visible at ts in the deterministic scan order.
// The visible lists are captured under the read latch, so callers iterate
// the result free to re-enter the storage layer.
func (ls *LinkStore) links(ts uint64) []model.Link {
	ls.latch.RLock()
	ids := make([]model.AtomID, 0, len(ls.fromA))
	lists := make(map[model.AtomID][]model.AtomID, len(ls.fromA))
	for a, head := range ls.fromA {
		if items, ok := head.at(ts); ok {
			ids = append(ids, a)
			lists[a] = items
		}
	}
	ls.latch.RUnlock()
	model.SortAtomIDs(ids)
	out := make([]model.Link, 0, len(ids))
	for _, a := range ids {
		for _, b := range lists[a] {
			out = append(out, model.Link{A: a, B: b})
		}
	}
	return out
}

// connectOrder returns the links visible at ts in an order that,
// connected one by one into an empty store, rebuilds both sides' partner
// lists as they are — the order a state file writes them in, so a loaded
// database traverses partners as the one that wrote it did. Each list
// holds its partners in the order their links were connected, so such an
// order exists: a link goes out once it heads what is left of both its
// lists. Only a list of two or more partners constrains the order.
func (ls *LinkStore) connectOrder(ts uint64) ([]model.Link, error) {
	links := ls.links(ts) // by side-A atom, each one's partners in order
	fromB := map[model.AtomID][]model.AtomID{}
	ls.latch.RLock()
	for b, head := range ls.fromB {
		if items, ok := head.at(ts); ok && len(items) > 1 {
			fromB[b] = items
		}
	}
	ls.latch.RUnlock()
	if len(fromB) == 0 {
		return links, nil
	}
	fromA := map[model.AtomID][]model.Link{} // what is left of each list
	var ready []model.Link
	heads := func(a, b model.AtomID) bool {
		la, okA := fromA[a]
		lb, okB := fromB[b]
		return (!okA || len(la) > 0 && la[0].B == b) && (!okB || len(lb) > 0 && lb[0] == a)
	}
	for i, j := 0, 0; i < len(links); i = j {
		for j = i + 1; j < len(links) && links[j].A == links[i].A; j++ {
		}
		if j-i > 1 {
			fromA[links[i].A] = links[i:j]
		}
		if heads(links[i].A, links[i].B) {
			ready = append(ready, links[i])
		}
	}
	out := make([]model.Link, 0, len(links))
	for len(ready) > 0 {
		l := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out = append(out, l)
		if la, ok := fromA[l.A]; ok {
			if fromA[l.A] = la[1:]; len(la) > 1 && heads(l.A, la[1].B) {
				ready = append(ready, la[1])
			}
		}
		if lb, ok := fromB[l.B]; ok {
			if fromB[l.B] = lb[1:]; len(lb) > 1 && heads(lb[1], l.B) {
				ready = append(ready, model.Link{A: lb[1], B: l.B})
			}
		}
	}
	if len(out) != len(links) {
		return nil, fmt.Errorf("storage: link type %q: the partner lists of its sides disagree", ls.name)
	}
	return out, nil
}

func (ls *LinkStore) chainSets() (*sync.RWMutex, []chainSet) {
	return &ls.latch, []chainSet{ls.fromA, ls.fromB}
}

func (ls *LinkStore) swept() {}
