package plan

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// accessPaths is the access-path table: one enumerating function per
// row, each adding its candidates to the contest. The links of the model
// are symmetric, so every atom type of the structure is a legal entry
// point and the rows are peers — compile enumerates every row's
// candidates and costs them in one contest. The order is the contest
// order: when costs tie the earlier candidate wins — the simpler
// machinery.
var accessPaths = []func(*contest){
	fullScan,
	rootEquality,
	rootRanges,
	interiorEqualities,
	interiorRanges,
	intersection,
	orderedScan,
}

// candidate is one enumerated access path with its cost terms. Its total
// cost is
//
//	access + entering × expected per-molecule derivation work
//
// plus, in an ordered plan, the ordering surcharge unsorted batches pay.
type candidate struct {
	// label is the name the contest (EXPLAIN's considered: line) and
	// CompileForced know the candidate by.
	label string
	// access is the atoms fetched plus links climbed producing the root
	// batch; entering the roots expected to enter derivation.
	access   float64
	entering int
	// presorted marks a batch that already carries the requested order.
	presorted bool
	// kind and entries are the access node the candidate installs;
	// produced estimates the batch it yields before the root filter, src
	// the statistic behind that ("" for the container itself).
	kind     AccessKind
	entries  []AccessEntry
	produced int
	src      string
}

// contest is the per-compile state the table's rows enumerate from.
type contest struct {
	p *Plan
	// n counts the atoms in the root container; rootPos is the root
	// type's position in the description.
	n, rootPos int
	rootConjs  []rootConjInfo
	// allSel is the selectivity of the whole root filter.
	allSel float64
	// eqs lists the interior entry equalities, in pushdown order; cands
	// collects what the rows enumerate.
	eqs   []AccessEntry
	cands []candidate
}

// indexedCmp recognizes conjunct c as "attr op const" (either
// orientation) that an index on typeName.attr serves: an equality lookup,
// or — ranged — one bound of a key-bounded walk. A NULL constant is never
// served: a comparison with NULL holds for no atom, while the index keys
// NULL values like any other.
func indexedCmp(db *storage.Database, typeName string, c expr.Expr, ranged bool) (string, expr.CmpOp, model.Value, bool) {
	a, op, v, ok := attrConstCmp(c)
	if !ok || v.IsNull() || (ranged && !isRangeOp(op)) || (!ranged && op != expr.EQ) || !db.HasIndex(typeName, a.Name) {
		return "", 0, model.Null(), false
	}
	return a.Name, op, v, true
}

// interiorEqs finds the interior entry equalities among the pushdowns
// and climbs each once: its single entry and the intersection read the
// same estimate.
func (cc *contest) interiorEqs() []AccessEntry {
	var eqs []AccessEntry
	db := cc.p.db
	for _, pd := range cc.p.Pushdowns {
		attr, _, val, ok := indexedCmp(db, pd.Type, pd.Conjunct, false)
		if !ok {
			continue
		}
		nT, err := db.CountAtoms(pd.Type)
		if err != nil {
			continue
		}
		e := AccessEntry{Type: pd.Type, Pos: pd.Pos, Attr: attr, Value: val}
		e.EstEntries, e.EntrySource = estimateEqCount(db, pd.Type, attr, val, nT)
		cc.climb(&e)
		eqs = append(eqs, e)
	}
	return eqs
}

// absorbed reports whether one of the entries absorbs root conjunct ord.
func absorbed(entries []AccessEntry, ord int) bool {
	for i := range entries {
		if slices.Contains(entries[i].ords, ord) {
			return true
		}
	}
	return false
}

// selWithout is the root filter's selectivity with the conjuncts the
// entries absorb taken out.
func (cc *contest) selWithout(entries []AccessEntry) float64 {
	sel := 1.0
	for _, rc := range cc.rootConjs {
		if !absorbed(entries, rc.ord) {
			sel *= rc.sel
		}
	}
	return sel
}

// installRootFilter conjoins every root conjunct the installed access
// node's entries do not absorb exactly (an index equality or a
// key-bounded range walk absorbs its own) into the root filter. EstRoots
// approximates the roots that *enter derivation*: the produced batch
// scaled by the filter's selectivity, its provenance src weakened by the
// filter's; a batch without a statistic of its own is the root container.
func (cc *contest) installRootFilter(produced int, src string) {
	a := &cc.p.Access
	a.EstRoots, a.EstSource = produced, src
	filterSel, filterSrc := 1.0, ""
	for _, rc := range cc.rootConjs {
		if absorbed(a.Entries, rc.ord) {
			continue
		}
		a.Filter = combine(a.Filter, rc.conj)
		filterSel *= rc.sel
		filterSrc = combineSource(filterSrc, rc.src)
	}
	if a.Filter != nil {
		a.EstRoots = scaleEst(produced, filterSel)
		a.EstSource = combineSource(src, filterSrc)
	}
	if a.EstSource == "" || a.EstSource == SrcConstant {
		a.EstSource = SrcContainer
	}
}

// fullScan reads the whole root container in insertion order. Every root
// atom is fetched; the root filter thins the batch.
func fullScan(cc *contest) {
	cc.cands = append(cc.cands, candidate{
		label:    "full scan of " + cc.p.Access.Root,
		access:   float64(cc.n),
		entering: scaleEst(cc.n, cc.allSel),
		kind:     FullScan,
		produced: cc.n,
	})
}

// orderedScan walks the root index on the ORDER BY attribute in key
// order, which produces the whole container pre-sorted at the same
// production cost and none of the ordering work.
func orderedScan(cc *contest) {
	p := cc.p
	if p.Order == nil || !p.db.HasIndex(p.Access.Root, p.Order.Attr) {
		return
	}
	cc.cands = append(cc.cands, candidate{
		label:     fmt.Sprintf("ordered index %s.%s", p.Access.Root, p.Order.Attr),
		access:    float64(cc.n),
		entering:  scaleEst(cc.n, cc.allSel),
		presorted: true,
		kind:      OrderedScan,
		produced:  cc.n,
		src:       SrcContainer,
	})
}

// rootEquality reads only the root atoms a secondary index on the root
// type maps the value of its best (fewest estimated roots) indexed
// equality conjunct to. The read is exact, so the conjunct leaves the
// root filter.
func rootEquality(cc *contest) {
	root, db := cc.p.Access.Root, cc.p.db
	best := AccessEntry{Type: root, Pos: cc.rootPos}
	ord := -1
	for _, rc := range cc.rootConjs {
		attr, _, val, ok := indexedCmp(db, root, rc.conj, false)
		if !ok {
			continue
		}
		est, src := estimateEqCount(db, root, attr, val, cc.n)
		if ord < 0 || est < best.EstEntries {
			best.Attr, best.Value, best.EstEntries, best.EntrySource = attr, val, est, src
			ord = rc.ord
		}
	}
	if ord >= 0 {
		best.ords = []int{ord}
		cc.addRoot([]AccessEntry{best}, "index "+root+"."+best.Attr)
	}
}

// rootRanges reads the root atoms inside the interval the range
// conjuncts on one indexed attribute merge into (a molecule has exactly
// one root atom, so their conjunction is an interval): one key-bounded
// walk per attribute, in first-appearance order. The walk is exact, so
// the merged conjuncts leave the root filter.
func rootRanges(cc *contest) {
	root, db := cc.p.Access.Root, cc.p.db
	var ents []AccessEntry
	for _, rc := range cc.rootConjs {
		attr, op, val, ok := indexedCmp(db, root, rc.conj, true)
		if !ok {
			continue
		}
		k := slices.IndexFunc(ents, func(e AccessEntry) bool { return e.Attr == attr })
		if k < 0 {
			k = len(ents)
			ents = append(ents, AccessEntry{Type: root, Pos: cc.rootPos, Attr: attr})
		}
		ents[k].addBound(op, val)
		ents[k].ords = append(ents[k].ords, rc.ord)
	}
	for i := range ents {
		e := &ents[i]
		e.EstEntries, e.EntrySource = estimateRangeCount(db, e, cc.n)
		cc.addRoot(ents[i:i+1:i+1], "index range "+root+"."+e.Attr+" "+rangeString(e.KeyRange))
	}
}

// addRoot costs a root entry: the index returns EstEntries roots, and the
// rest of the root filter — the conjuncts the entry absorbs taken out —
// thins them. An entry on the ORDER BY attribute doubles as an
// index-order ride (one key with ties by atom ID, or a key-ordered walk).
func (cc *contest) addRoot(ents []AccessEntry, label string) {
	e := &ents[0]
	cc.cands = append(cc.cands, candidate{
		label:     label,
		access:    float64(e.EstEntries),
		entering:  scaleEst(e.EstEntries, cc.selWithout(ents)),
		presorted: cc.p.Order != nil && e.Attr == cc.p.Order.Attr,
		kind:      IndexScan,
		entries:   ents,
		produced:  e.EstEntries,
		src:       e.EntrySource,
	})
}

// interiorEqualities enters the structure at a non-root atom type
// through an indexed equality pushed down there: the index maps the value
// to interior atoms, and the candidate roots are recovered by climbing
// the structure's links upward (the symmetric-use property makes the
// reverse traversal legal). Recovery over-approximates at multi-parent
// types, so the entry conjunct additionally stays on as a pushdown prune
// hook: exactness comes from the hook, not the entry.
func interiorEqualities(cc *contest) {
	for i := range cc.eqs {
		e := &cc.eqs[i]
		cc.addInterior(cc.eqs[i:i+1:i+1], "interior-index "+e.Type+"."+e.Attr)
	}
}

// interiorRanges is interiorEqualities through the half-open interval of
// one range conjunct pushed down at an indexed attribute. Unlike at the
// root, range conjuncts on one interior attribute do not merge: a
// pushdown conjunct is existential over the molecule's atoms of its
// type, so "x > 5 AND x < 3" holds through two different atoms and no
// atom of the intersected interval need exist. Each conjunct is its own
// entry.
func interiorRanges(cc *contest) {
	db := cc.p.db
	for _, pd := range cc.p.Pushdowns {
		attr, op, val, ok := indexedCmp(db, pd.Type, pd.Conjunct, true)
		if !ok {
			continue
		}
		nT, err := db.CountAtoms(pd.Type)
		if err != nil {
			continue
		}
		e := AccessEntry{Type: pd.Type, Pos: pd.Pos, Attr: attr}
		e.addBound(op, val)
		e.EstEntries, e.EntrySource = estimateRangeCount(db, &e, nT)
		cc.climb(&e)
		cc.addInterior([]AccessEntry{e}, "interior-range "+pd.Type+"."+attr+" "+rangeString(e.KeyRange))
	}
}

// climb estimates an interior entry's upward walk into the entry and
// the access cost of entering there: the entry atoms, the climb and the
// recovered roots.
func (cc *contest) climb(e *AccessEntry) {
	var climbCost float64
	e.EstRoots, climbCost, e.UpPath = climbEstimate(cc.p.db, cc.p.desc, e.Type, e.EstEntries)
	e.access = float64(e.EstEntries) + climbCost + float64(e.EstRoots)
}

// addInterior costs a single climbed interior entry: its atoms, the
// climb and the recovered roots, which the whole root filter then thins
// — an interior entry absorbs no root conjunct.
func (cc *contest) addInterior(ents []AccessEntry, label string) {
	e := &ents[0]
	cc.cands = append(cc.cands, candidate{
		label:    label,
		access:   e.access,
		entering: scaleEst(e.EstRoots, cc.allSel),
		kind:     InteriorIndex,
		entries:  ents,
		produced: e.EstRoots,
		src:      combineSource(SrcLinkFan, e.EntrySource),
	})
}

// intersection composes several interior entries — a molecule-level
// index AND: the best indexed equality per distinct interior type each
// runs its own entry lookup and upward climb, and when two or more types
// qualify the sorted candidate-root sets intersect before a single
// molecule is derived. Every entry conjunct additionally stays on as a
// pushdown prune hook, which restores exactness exactly as for a single
// interior entry. It costs Σ(entry atoms + climb + recovered roots) over
// the entries plus derivation of the expected survivors (independence
// assumption: survivors ≈ n × Π(recoveredᵢ/n)).
func intersection(cc *contest) {
	if cc.n == 0 {
		return
	}
	var ents []AccessEntry // per distinct type, first-appearance order
	for _, eq := range cc.eqs {
		i := slices.IndexFunc(ents, func(e AccessEntry) bool { return e.Type == eq.Type })
		switch {
		case i < 0:
			ents = append(ents, eq)
		case eq.EstEntries < ents[i].EstEntries:
			ents[i] = eq
		}
	}
	if len(ents) < 2 {
		return
	}
	labels := make([]string, 0, len(ents))
	access, frac := 0.0, 1.0
	estSrc := SrcLinkFan
	for i := range ents {
		e := &ents[i]
		access += e.access
		labels = append(labels, e.Type+"."+e.Attr)
		frac *= float64(e.EstRoots) / float64(cc.n)
		estSrc = combineSource(estSrc, e.EntrySource)
	}
	survivors := scaleEst(cc.n, frac)
	cc.cands = append(cc.cands, candidate{
		label:    "intersect[" + strings.Join(labels, " ∧ ") + "]",
		access:   access,
		entering: scaleEst(survivors, cc.allSel),
		kind:     IndexIntersect,
		entries:  ents,
		produced: survivors,
		src:      estSrc,
	})
}

// chooseAccess runs the contest: every row of the table enumerates its
// candidates, each is costed, and the cheapest is installed (earlier
// candidates win ties) — or, when force names a candidate's label, that
// one regardless of cost. Every candidate is recorded for EXPLAIN.
// derivCost, the expected atoms fetched deriving one molecule, weights
// every candidate's entering roots; the climb weights of interior entries
// come from the same fan statistics (climbEstimate).
func (p *Plan) chooseAccess(n int, rootConjs []rootConjInfo, derivCost float64, force string) error {
	p.derivCost = derivCost
	cc := &contest{p: p, n: n, rootConjs: rootConjs}
	cc.rootPos, _ = p.desc.Pos(p.Access.Root)
	cc.allSel, cc.eqs = cc.selWithout(nil), cc.interiorEqs()

	cc.cands = make([]candidate, 0, 4) // most contests have two or three entrants
	for _, enumerate := range accessPaths {
		enumerate(cc)
	}
	cands := cc.cands

	// Ordering surcharge: alternatives whose batch arrives unsorted pay
	// the heap/sort comparison work over the molecules entering
	// derivation. The top-K bound prune is not credited: K is set on the
	// plan after the compile.
	alts := make([]Alternative, len(cands))
	best := -1
	for i, c := range cands {
		e := float64(c.entering)
		cost := c.access + e*derivCost
		if p.Order != nil && !c.presorted {
			cost += orderCost(e)
		}
		alts[i] = Alternative{Label: c.label, Cost: cost}
		switch {
		case force != "":
			if best < 0 && c.label == force {
				best = i
			}
		case best < 0 || cost < alts[best].Cost:
			best = i
		}
	}
	if best < 0 {
		return fmt.Errorf("plan: no access path %q among the candidates", force)
	}
	alts[best].Chosen = true
	slices.SortStableFunc(alts, func(a, b Alternative) int { return cmp.Compare(a.Cost, b.Cost) })
	p.Alternatives = alts

	c := &cands[best]
	p.Access = Access{Kind: c.kind, Root: p.Access.Root, Entries: c.entries}
	p.presorted = c.presorted
	cc.installRootFilter(c.produced, c.src)
	return nil
}

// roots returns the pull over the plan's roots, before the root filter,
// read at the deriver's pinned timestamp so they agree with the
// occurrence view derivation will traverse; it records the entries'
// actuals in p.Access. The full scan reads the root container. The ORDER
// BY ride — an ordered scan, or a root range on the ORDER BY attribute —
// pulls postings key by key, descending when the ORDER BY asks for it, so
// the roots arrive in the requested order: the index walk advances only
// as derivation takes roots and stops with it. Every other plan runs one
// loop over its entries: each is looked up, by equality or a walk of its
// range, a non-root entry's atoms are climbed to candidate roots
// (core.Deriver.RecoverRoots), and the sorted root sets intersect,
// stopping the moment the running set is empty.
func (p *Plan) roots(dv *core.Deriver) (core.Roots, error) {
	a := &p.Access
	switch {
	case a.Kind == FullScan:
		return core.RootSlice(dv.RootIDs()), nil
	case p.presorted && (a.Kind == OrderedScan || a.Entries[0].Ranged):
		var r storage.KeyRange // an ordered scan walks every key
		if a.Kind == IndexScan {
			r = a.Entries[0].KeyRange
		}
		keys, ok := dv.View().IndexOrdered(a.Root, p.Order.Attr, r, p.Order.Desc)
		if !ok {
			return nil, errIndexVanished(a.Root, p.Order.Attr)
		}
		var ids []model.AtomID // the rest of the current key's posting
		return func(dst []model.AtomID) []model.AtomID {
			for len(dst) < cap(dst) {
				if len(ids) == 0 {
					if _, ids, ok = keys.Next(); !ok {
						break
					}
				}
				n := min(len(ids), cap(dst)-len(dst))
				dst, ids = append(dst, ids[:n]...), ids[n:]
			}
			return dst
		}, nil
	}
	var inter []model.AtomID
	for i := range a.Entries {
		en := &a.Entries[i]
		ids, err := lookup(dv, en)
		if err != nil {
			return nil, err
		}
		roots := ids
		if en.Type != a.Root {
			if roots, err = dv.RecoverRoots(en.Pos, ids); err != nil {
				return nil, err
			}
		}
		en.ActEntries, en.ActRoots = len(ids), len(roots)
		if i == 0 {
			inter = roots
		} else {
			inter = intersectSorted(inter, roots)
		}
		if len(inter) == 0 {
			break
		}
	}
	a.ActSurvivors = len(inter)
	return core.RootSlice(inter), nil
}

// lookup reads the entry's index through the deriver's view: the posting
// list of its value, or for a ranged entry the atoms of every key inside
// its bounds. Either way the atoms come sorted by ID, so every entry
// yields the same deterministic root order.
func lookup(dv *core.Deriver, en *AccessEntry) ([]model.AtomID, error) {
	if !en.Ranged {
		ids, ok := dv.View().IndexLookup(en.Type, en.Attr, en.Value)
		if !ok {
			return nil, errIndexVanished(en.Type, en.Attr)
		}
		return ids, nil
	}
	keys, ok := dv.View().IndexOrdered(en.Type, en.Attr, en.KeyRange, false)
	if !ok {
		return nil, errIndexVanished(en.Type, en.Attr)
	}
	var out []model.AtomID
	for _, ids, ok := keys.Next(); ok; _, ids, ok = keys.Next() {
		out = append(out, ids...)
	}
	return model.SortAtomIDs(out), nil
}

func errIndexVanished(typeName, attr string) error {
	return fmt.Errorf("plan: index on %s.%s vanished between compile and execute", typeName, attr)
}

// intersectSorted merges two ascending, deduplicated root-ID slices into
// their intersection.
func intersectSorted(a, b []model.AtomID) []model.AtomID {
	out := make([]model.AtomID, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// explain writes the EXPLAIN access lines.
func (p *Plan) explain(b *strings.Builder) {
	a := &p.Access
	roots := fmt.Sprintf("est %s roots [%s]%s", approx(a.EstRoots), a.EstSource, p.actual(a.ActRoots))
	switch a.Kind {
	case FullScan:
		fmt.Fprintf(b, "access:    full scan of %s (%s)\n", a.Root, roots)
	case OrderedScan:
		fmt.Fprintf(b, "access:    ordered index walk of %s.%s (%s)\n", a.Root, p.Order.Attr, roots)
	case IndexScan:
		en := &a.Entries[0]
		what := "index lookup"
		if en.Ranged {
			what = "index range walk"
		}
		fmt.Fprintf(b, "access:    %s %s.%s %s (%s)\n", what, a.Root, en.Attr, en.condition(), roots)
	case InteriorIndex:
		en := &a.Entries[0]
		what := "entry"
		if en.Ranged {
			what = "range entry"
		}
		fmt.Fprintf(b, "access:    [interior-index] %s at %s.%s %s (%s)\n", what, en.Type, en.Attr, en.condition(), p.entryAtoms(en))
		fmt.Fprintf(b, "           recover roots upward %s (%s)\n", strings.Join(en.UpPath, " ⇡ "), roots)
	case IndexIntersect:
		fmt.Fprintf(b, "access:    [intersect] %d-entry index intersection (%s)\n", len(a.Entries), roots)
		for i := range a.Entries {
			en := &a.Entries[i]
			fmt.Fprintf(b, "           entry %s.%s %s (%s) ⇡ %s (est %s roots%s)\n", en.Type, en.Attr, en.condition(),
				p.entryAtoms(en), strings.Join(en.UpPath, " ⇡ "), approx(en.EstRoots), p.actual(en.ActRoots))
		}
		if p.Executed {
			fmt.Fprintf(b, "           sorted-merge intersection → %d surviving root(s)\n", a.ActSurvivors)
		}
	}
}

// condition renders an entry's condition: "= v" or the interval.
func (e *AccessEntry) condition() string {
	if e.Ranged {
		return rangeString(e.KeyRange)
	}
	return "= " + e.Value.String()
}

// entryAtoms renders the atoms an entry's lookup returns, estimated and
// (when the plan ran) actual.
func (p *Plan) entryAtoms(e *AccessEntry) string {
	return fmt.Sprintf("est %s atoms [%s]%s", approx(e.EstEntries), e.EntrySource, p.actual(e.ActEntries))
}
