package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
)

// accessPath is one row of the access-path table: a way of producing the
// roots that enter derivation. The links of the model are
// symmetric, so every atom type of the structure is a legal entry point
// and the rows are peers — compile enumerates every row's candidates and
// costs them in one contest, and the chosen row then serves execution
// and EXPLAIN of the plan it was installed in. Rows are stateless:
// everything a chosen path needs at run time lives in the plan's Access
// node.
type accessPath interface {
	// enumerate adds the row's candidates for the compile to cc.
	enumerate(cc *contest)
	// roots returns the pull over the roots, before the root filter,
	// read at the deriver's pinned timestamp so they agree with the
	// occurrence view derivation will traverse; it records the access
	// actuals in p.Access. The ORDER BY ride pulls postings key by key —
	// the index walk advances only as derivation takes roots and stops
	// with it; the other rows need their whole set (an ID sort, a climb,
	// an intersection) and wrap the collected slice.
	roots(p *Plan, dv *core.Deriver) (core.Roots, error)
	// explain writes the EXPLAIN access lines.
	explain(b *strings.Builder, p *Plan)
}

// accessPaths is the table, in contest order: when costs tie the earlier
// row wins — the simpler machinery.
var accessPaths = []accessPath{
	scan{},
	rootIndex{},
	rootIndex{ranged: true},
	interiorIndex{},
	interiorIndex{ranged: true},
	intersect{},
	scan{ordered: true},
}

// candidate is one enumerated access path with its cost terms. Its total
// cost is
//
//	access + entering × expected per-molecule derivation work
//
// plus, in an ordered plan, the ordering surcharge unsorted batches pay.
type candidate struct {
	path accessPath
	// label is the name the contest (EXPLAIN's considered: line) and
	// CompileForced know the candidate by.
	label string
	// access is the atoms fetched plus links climbed producing the root
	// batch; entering the roots expected to enter derivation.
	access   float64
	entering int
	// presorted marks a batch that already carries the requested order.
	presorted bool
	// install writes the chosen path into the plan's access node.
	install func(a *Access)
}

// contest is the per-compile state the table's rows enumerate from.
type contest struct {
	p         *Plan
	n         int // atoms in the root container
	rootConjs []rootConjInfo
	// allSel is the selectivity of the whole root filter.
	allSel float64
	// eqs lists the interior entry equalities, in pushdown order.
	eqs []pushdownEq
	// cands collects what the rows enumerate; path is the row at work.
	cands []candidate
	path  accessPath
}

// add enters a candidate of the row at work into the contest.
func (cc *contest) add(c candidate) {
	c.path = cc.path
	cc.cands = append(cc.cands, c)
}

// pushdownEq is one pushdown conjunct that is an indexed equality on its
// (non-root) type: a possible interior entry.
type pushdownEq struct {
	pi      int // index into Plan.Pushdowns
	attr    string
	val     model.Value
	entries int
	src     string
}

// pushdownEqs finds the interior entry equalities among the pushdowns.
func (cc *contest) pushdownEqs() []pushdownEq {
	var eqs []pushdownEq
	db := cc.p.db
	for pi := range cc.p.Pushdowns {
		pd := &cc.p.Pushdowns[pi]
		attr, val, ok := indexableEq(pd.Conjunct, db, pd.Type)
		if !ok {
			continue
		}
		nT, err := db.CountAtoms(pd.Type)
		if err != nil {
			continue
		}
		entries, src := estimateEqCount(db, pd.Type, attr, val, nT)
		eqs = append(eqs, pushdownEq{pi: pi, attr: attr, val: val, entries: entries, src: src})
	}
	return eqs
}

// indexEntry is one single-index entry point before costing: an equality
// or a merged range on the indexed attribute of one atom type.
type indexEntry struct {
	// id names the entry without its literals; lits is the literal
	// suffix of its label.
	id, lits string
	typeName string
	pos      int
	attr     string
	// est estimates the atoms the index returns; src is its provenance.
	est int
	src string
	// The entry's literals: the equality value, or (rng non-nil) the
	// interval; at the root, ords are the conjunct ordinals they came
	// from, which leave the root filter.
	val  model.Value
	rng  *rangeSpec
	ords []int
}

// fill writes the entry's attribute and literals into the access node.
func (e *indexEntry) fill(a *Access) {
	a.Attr, a.Value = e.attr, e.val
	if e.rng != nil {
		a.Ranged, a.KeyRange = true, e.rng.KeyRange
	}
}

// selWithout is the root filter's selectivity with the conjuncts of the
// given ordinals (the ones an access path absorbs) taken out.
func (cc *contest) selWithout(skip []int) float64 {
	sel := 1.0
	for _, rc := range cc.rootConjs {
		if !slices.Contains(skip, rc.ord) {
			sel *= rc.sel
		}
	}
	return sel
}

// installRootFilter conjoins every root conjunct except the skipped
// ordinals (those the access path absorbs exactly — an index equality or
// a key-bounded range walk) into the root filter. EstRoots
// approximates the roots that *enter derivation*: the produced batch
// scaled by the filter's selectivity, its provenance src weakened by the
// filter's.
func (cc *contest) installRootFilter(skip []int, produced int, src string) {
	p := cc.p
	a := &p.Access
	a.EstRoots, a.EstSource = produced, src
	filterSel, filterSrc := 1.0, ""
	for _, rc := range cc.rootConjs {
		if slices.Contains(skip, rc.ord) {
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
}

// lookup reads the index on typeName.attr through the deriver's view:
// the posting list of key, or with walk set the atoms of every key inside
// the access node's range bounds. Either way the atoms come sorted by ID,
// so every collecting access path yields the same deterministic root
// order.
func (p *Plan) lookup(dv *core.Deriver, typeName, attr string, key model.Value, walk bool) ([]model.AtomID, error) {
	if !walk {
		ids, ok := dv.View().IndexLookup(typeName, attr, key)
		if !ok {
			return nil, errIndexVanished(typeName, attr)
		}
		return ids, nil
	}
	keys, ok := dv.View().IndexOrdered(typeName, attr, p.Access.KeyRange, false)
	if !ok {
		return nil, errIndexVanished(typeName, attr)
	}
	var out []model.AtomID
	for _, ids, ok := keys.Next(); ok; _, ids, ok = keys.Next() {
		out = append(out, ids...)
	}
	return model.SortAtomIDs(out), nil
}

// ride pulls the root index on attr inside the access node's range bounds
// in key order — descending when the ORDER BY asks for it — so the roots
// arrive in the requested order: the ORDER BY ride.
func (p *Plan) ride(dv *core.Deriver, attr string) (core.Roots, error) {
	keys, ok := dv.View().IndexOrdered(p.Access.Root, attr, p.Access.KeyRange, p.Order.Desc)
	if !ok {
		return nil, errIndexVanished(p.Access.Root, attr)
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

func errIndexVanished(typeName, attr string) error {
	return fmt.Errorf("plan: index on %s.%s vanished between compile and execute", typeName, attr)
}

// entryDetail renders an index entry's condition: "= v" or the interval.
func entryDetail(a *Access, ranged bool) string {
	if ranged {
		return rangeString(a.KeyRange)
	}
	return "= " + a.Value.String()
}

// scan reads the whole root container: in insertion order, or — ordered,
// when the ORDER BY attribute carries a root index — by walking that
// index in key order, which produces the batch pre-sorted at the same
// production cost and none of the ordering work. Every root atom is
// fetched; the root filter thins the batch.
type scan struct{ ordered bool }

func (s scan) enumerate(cc *contest) {
	p, root := cc.p, cc.p.desc.Root()
	c := candidate{access: float64(cc.n), entering: scaleEst(cc.n, cc.allSel)}
	switch {
	case !s.ordered:
		c.label = "full scan of " + root
		c.install = func(a *Access) {
			a.Kind = FullScan
			cc.installRootFilter(nil, cc.n, "")
			if a.Filter == nil {
				// Otherwise the filter's statistic supersedes the bare
				// container size.
				a.EstSource = SrcContainer
			}
		}
	case p.Order != nil && p.db.HasIndex(root, p.Order.Attr):
		c.label = fmt.Sprintf("ordered index %s.%s", root, p.Order.Attr)
		c.presorted = true
		c.install = func(a *Access) {
			a.Kind = OrderedScan
			a.Attr = p.Order.Attr
			cc.installRootFilter(nil, cc.n, SrcContainer)
		}
	default:
		return
	}
	cc.add(c)
}

func (s scan) roots(p *Plan, dv *core.Deriver) (core.Roots, error) {
	if !s.ordered {
		return core.RootSlice(dv.RootIDs()), nil
	}
	return p.ride(dv, p.Access.Attr)
}

func (s scan) explain(b *strings.Builder, p *Plan) {
	a := &p.Access
	what := "full scan of " + a.Root
	if s.ordered {
		what = fmt.Sprintf("ordered index walk of %s.%s", a.Root, a.Attr)
	}
	fmt.Fprintf(b, "access:    %s (est %s roots [%s]%s)\n", what, approx(a.EstRoots), a.EstSource, p.actual(a.ActRoots))
}

// rootIndex reads only the root atoms a secondary index on the root type
// maps an equality conjunct's value to, or — ranged — the root atoms
// inside the interval its range conjuncts on one indexed attribute merge
// into. Both reads are exact, so the covered conjuncts leave the root
// filter; an entry on the ORDER BY attribute doubles as an index-order
// ride (one key with ties by atom ID, or a key-ordered walk).
type rootIndex struct{ ranged bool }

func (ri rootIndex) enumerate(cc *contest) {
	root := cc.p.desc.Root()
	if !ri.ranged {
		// The best (fewest estimated roots) indexed equality.
		best := -1
		for i, rc := range cc.rootConjs {
			if rc.attr != "" && rc.op == expr.EQ && (best < 0 || rc.est < cc.rootConjs[best].est) {
				best = i
			}
		}
		if best >= 0 {
			rc := &cc.rootConjs[best]
			ri.add(cc, indexEntry{
				id: "index " + root + "." + rc.attr, attr: rc.attr, est: rc.est, src: rc.estSrc,
				val: rc.val, ords: []int{rc.ord},
			})
		}
		return
	}
	// Range conjuncts on one attribute merge into a single key-bounded
	// walk (a molecule has exactly one root atom, so their conjunction is
	// an interval); one spec per attribute, in first-appearance order.
	var specs []*rangeSpec
	for _, rc := range cc.rootConjs {
		if rc.attr == "" || !isRangeOp(rc.op) {
			continue
		}
		k := slices.IndexFunc(specs, func(s *rangeSpec) bool { return s.attr == rc.attr })
		if k < 0 {
			k = len(specs)
			specs = append(specs, &rangeSpec{attr: rc.attr})
		}
		specs[k].addBound(rc.op, rc.val)
		specs[k].ords = append(specs[k].ords, rc.ord)
	}
	for _, spec := range specs {
		est, src := estimateRangeCount(cc.p.db, root, spec, cc.n)
		ri.add(cc, indexEntry{
			id: "index range " + root + "." + spec.attr, lits: " " + rangeString(spec.KeyRange), attr: spec.attr, est: est, src: src,
			rng: spec, ords: spec.ords,
		})
	}
}

// add costs one root index entry: the index returns e.est roots, and the
// rest of the root filter — the conjuncts the entry absorbs taken out —
// thins them.
func (ri rootIndex) add(cc *contest, e indexEntry) {
	cc.add(candidate{
		label:     e.id + e.lits,
		access:    float64(e.est),
		entering:  scaleEst(e.est, cc.selWithout(e.ords)),
		presorted: cc.p.Order != nil && e.attr == cc.p.Order.Attr,
		install: func(a *Access) {
			a.Kind = IndexScan
			e.fill(a)
			cc.installRootFilter(e.ords, e.est, e.src)
		},
	})
}

func (ri rootIndex) roots(p *Plan, dv *core.Deriver) (core.Roots, error) {
	a := &p.Access
	if ri.ranged && p.presorted {
		return p.ride(dv, a.Attr)
	}
	roots, err := p.lookup(dv, a.Root, a.Attr, a.Value, ri.ranged)
	return core.RootSlice(roots), err
}

func (ri rootIndex) explain(b *strings.Builder, p *Plan) {
	a := &p.Access
	what := "index lookup"
	if ri.ranged {
		what = "index range walk"
	}
	fmt.Fprintf(b, "access:    %s %s.%s %s (est %s roots [%s]%s)\n", what, a.Root, a.Attr, entryDetail(a, ri.ranged),
		approx(a.EstRoots), a.EstSource, p.actual(a.ActRoots))
}

// interiorIndex enters the structure at a non-root atom type: an index
// maps an equality conjunct's value — or, ranged, the half-open interval
// of one range conjunct pushed down at an indexed attribute — to interior
// atoms, and the candidate roots are recovered by climbing the
// structure's links upward (the symmetric-use property makes the reverse
// traversal legal). Recovery over-approximates at multi-parent types, so
// the entry conjuncts additionally stay on as pushdown prune hooks:
// exactness comes from the hooks, not the entry.
type interiorIndex struct{ ranged bool }

func (ii interiorIndex) enumerate(cc *contest) {
	p := cc.p
	if !ii.ranged {
		for _, eq := range cc.eqs {
			pd := &p.Pushdowns[eq.pi]
			ii.add(cc, indexEntry{
				id: "interior-index " + pd.Type + "." + eq.attr, typeName: pd.Type, pos: pd.Pos, attr: eq.attr,
				est: eq.entries, src: eq.src, val: eq.val,
			})
		}
		return
	}
	// Unlike at the root, range conjuncts on one interior attribute do not
	// merge: a pushdown conjunct is existential over the molecule's atoms
	// of its type, so "x > 5 AND x < 3" holds through two different atoms
	// and no atom of the intersected interval need exist. Each conjunct is
	// its own entry.
	for pi := range p.Pushdowns {
		pd := &p.Pushdowns[pi]
		a, op, v, ok := attrConstCmp(pd.Conjunct)
		if !ok || !isRangeOp(op) || !p.db.HasIndex(pd.Type, a.Name) {
			continue
		}
		nT, err := p.db.CountAtoms(pd.Type)
		if err != nil {
			continue
		}
		spec := &rangeSpec{attr: a.Name}
		spec.addBound(op, v)
		entries, src := estimateRangeCount(p.db, pd.Type, spec, nT)
		ii.add(cc, indexEntry{
			id: "interior-range " + pd.Type + "." + a.Name, lits: " " + rangeString(spec.KeyRange),
			typeName: pd.Type, pos: pd.Pos, attr: a.Name,
			est: entries, src: src, rng: spec,
		})
	}
}

// add costs one interior entry: e.est atoms out of the index, the climb
// to candidate roots, and the recovered roots themselves.
func (ii interiorIndex) add(cc *contest, e indexEntry) {
	recovered, climbCost, upPath := climbEstimate(cc.p.db, cc.p.desc, e.typeName, e.est)
	cc.add(candidate{
		label:    e.id + e.lits,
		access:   float64(e.est) + climbCost + float64(recovered),
		entering: scaleEst(recovered, cc.allSel),
		install: func(a *Access) {
			a.Kind = InteriorIndex
			e.fill(a)
			a.EntryType, a.EntryPos, a.UpPath = e.typeName, e.pos, upPath
			a.EstEntries, a.EntrySource = e.est, e.src
			cc.installRootFilter(nil, recovered, combineSource(SrcLinkFan, e.src))
		},
	})
}

func (ii interiorIndex) roots(p *Plan, dv *core.Deriver) (core.Roots, error) {
	a := &p.Access
	entries, err := p.lookup(dv, a.EntryType, a.Attr, a.Value, ii.ranged)
	if err != nil {
		return nil, err
	}
	a.ActEntries = len(entries)
	roots, err := dv.RecoverRoots(a.EntryPos, entries)
	return core.RootSlice(roots), err
}

func (ii interiorIndex) explain(b *strings.Builder, p *Plan) {
	a := &p.Access
	what := "entry"
	if ii.ranged {
		what = "range entry"
	}
	fmt.Fprintf(b, "access:    [interior-index] %s at %s.%s %s (est %s atoms [%s]%s)\n", what, a.EntryType, a.Attr, entryDetail(a, ii.ranged),
		approx(a.EstEntries), a.EntrySource, p.actual(a.ActEntries))
	fmt.Fprintf(b, "           recover roots upward %s (est %s roots [%s]%s)\n", strings.Join(a.UpPath, " ⇡ "),
		approx(a.EstRoots), a.EstSource, p.actual(a.ActRoots))
}

// intersect composes several interior entries — a molecule-level index
// AND: the best indexed equality per distinct interior type each runs its
// own entry lookup and upward climb, and when two or more types qualify
// the sorted candidate-root sets intersect before a single molecule is
// derived. Every entry conjunct additionally stays on as a pushdown prune
// hook, which restores exactness exactly as for a single interior entry.
type intersect struct{}

// enumerate costs Σ(entry atoms + climb + recovered roots) over the
// entries plus derivation of the expected survivors (independence
// assumption: survivors ≈ n × Π(recoveredᵢ/n)).
func (intersect) enumerate(cc *contest) {
	p := cc.p
	if cc.n == 0 {
		return
	}
	var best []pushdownEq // per distinct type, first-appearance order
	for _, eq := range cc.eqs {
		t := p.Pushdowns[eq.pi].Type
		i := slices.IndexFunc(best, func(b pushdownEq) bool { return p.Pushdowns[b.pi].Type == t })
		switch {
		case i < 0:
			best = append(best, eq)
		case eq.entries < best[i].entries:
			best[i] = eq
		}
	}
	if len(best) < 2 {
		return
	}
	ents := make([]AccessEntry, 0, len(best))
	labels := make([]string, 0, len(best))
	access, frac := 0.0, 1.0
	sumEntries := 0
	estSrc := SrcLinkFan
	for _, eq := range best {
		pd := &p.Pushdowns[eq.pi]
		recovered, climbCost, upPath := climbEstimate(p.db, p.desc, pd.Type, eq.entries)
		ents = append(ents, AccessEntry{
			Type: pd.Type, Pos: pd.Pos, Attr: eq.attr, Value: eq.val,
			UpPath: upPath, EstEntries: eq.entries, EntrySource: eq.src,
			EstRoots: recovered,
		})
		labels = append(labels, pd.Type+"."+eq.attr)
		access += float64(eq.entries) + climbCost + float64(recovered)
		frac *= float64(recovered) / float64(cc.n)
		sumEntries += eq.entries
		estSrc = combineSource(estSrc, eq.src)
	}
	survivors := scaleEst(cc.n, frac)
	cc.add(candidate{
		label:    "intersect[" + strings.Join(labels, " ∧ ") + "]",
		access:   access,
		entering: scaleEst(survivors, cc.allSel),
		install: func(a *Access) {
			a.Kind = IndexIntersect
			a.Entries = ents
			a.EstEntries = sumEntries
			cc.installRootFilter(nil, survivors, estSrc)
		},
	})
}

// roots runs every entry's lookup and climb; the sorted candidate-root
// sets (RecoverRoots returns ascending IDs) intersect progressively,
// short-circuiting the remaining entries the moment the running
// intersection empties.
func (intersect) roots(p *Plan, dv *core.Deriver) (core.Roots, error) {
	a := &p.Access
	var inter []model.AtomID
	for i := range a.Entries {
		en := &a.Entries[i]
		entries, err := p.lookup(dv, en.Type, en.Attr, en.Value, false)
		if err != nil {
			return nil, err
		}
		roots, err := dv.RecoverRoots(en.Pos, entries)
		if err != nil {
			return nil, err
		}
		en.ActEntries, en.ActRoots = len(entries), len(roots)
		a.ActEntries += len(entries)
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

func (intersect) explain(b *strings.Builder, p *Plan) {
	a := &p.Access
	fmt.Fprintf(b, "access:    [intersect] %d-entry index intersection (est %s roots [%s]%s)\n",
		len(a.Entries), approx(a.EstRoots), a.EstSource, p.actual(a.ActRoots))
	for _, en := range a.Entries {
		fmt.Fprintf(b, "           entry %s.%s = %s (est %s atoms [%s]%s) ⇡ %s (est %s roots%s)\n",
			en.Type, en.Attr, en.Value,
			approx(en.EstEntries), en.EntrySource, p.actual(en.ActEntries),
			strings.Join(en.UpPath, " ⇡ "), approx(en.EstRoots), p.actual(en.ActRoots))
	}
	if p.Executed {
		fmt.Fprintf(b, "           sorted-merge intersection → %d surviving root(s)\n", a.ActSurvivors)
	}
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
	cc.allSel, cc.eqs = cc.selWithout(nil), cc.pushdownEqs()

	cc.cands = make([]candidate, 0, 4) // most contests have two or three entrants
	for _, path := range accessPaths {
		cc.path = path
		path.enumerate(cc)
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
	sort.SliceStable(alts, func(i, j int) bool { return alts[i].Cost < alts[j].Cost })
	p.Alternatives = alts

	c := cands[best]
	p.path, p.presorted = c.path, c.presorted
	c.install(&p.Access)
	return nil
}
