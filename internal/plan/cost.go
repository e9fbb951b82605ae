package plan

import (
	"fmt"
	"math"
	"strings"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// Estimate provenance: which statistic produced a cardinality or
// selectivity estimate. EXPLAIN renders the source next to the number so
// a reader can tell a histogram-backed estimate from a uniform guess.
const (
	// SrcHistogram marks estimates read from equi-depth histogram buckets
	// (built by ANALYZE, maintained incrementally).
	SrcHistogram = "histogram"
	// SrcUniform marks the PR-1 estimate occurrence/distinct-keys — used
	// when no histogram covers the attribute but an index does.
	SrcUniform = "uniform"
	// SrcDefault marks fixed magic-constant selectivities for shapes no
	// statistic covers (attribute-vs-attribute, quantifiers, …).
	SrcDefault = "default"
	// SrcContainer marks the container size itself (full scans without a
	// root filter).
	SrcContainer = "container"
	// SrcLinkFan marks estimates computed from link-occurrence fan
	// statistics (average partners per linked atom) — the upward-climb
	// estimates of interior-index access paths.
	SrcLinkFan = "link-fan"
	// SrcConstant marks a reference-free conjunct folded to its value. It
	// is exact, so it never weakens the source it is combined with.
	SrcConstant = "constant"
)

// Default selectivities for predicate shapes no statistic covers. The
// constants follow the classic System-R conventions.
const (
	defSelEq    = 0.10
	defSelRange = 1.0 / 3.0
	defSelOther = 0.50
)

// worseSource returns the weaker of two provenance labels, so a composite
// estimate is only advertised as histogram-backed when every leaf was.
func worseSource(a, b string) string {
	rank := func(s string) int {
		switch s {
		case SrcHistogram:
			return 0
		case SrcUniform, SrcLinkFan:
			return 1
		default:
			return 2
		}
	}
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

// attrConstCmp recognizes "attr op const" (either orientation, flipping
// the operator when the constant is on the left), the shape histograms
// can estimate directly.
func attrConstCmp(c expr.Expr) (expr.Attr, expr.CmpOp, model.Value, bool) {
	cmp, ok := c.(expr.Cmp)
	if !ok {
		return expr.Attr{}, 0, model.Null(), false
	}
	if a, aok := cmp.L.(expr.Attr); aok {
		if l, lok := cmp.R.(expr.Const); lok {
			return a, cmp.Op, l.V, true
		}
	}
	if a, aok := cmp.R.(expr.Attr); aok {
		if l, lok := cmp.L.(expr.Const); lok {
			return a, flipCmp(cmp.Op), l.V, true
		}
	}
	return expr.Attr{}, 0, model.Null(), false
}

// flipCmp mirrors an operator across the comparison ("5 < x" ≡ "x > 5").
func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	}
	return op
}

// isRangeOp reports whether op is one of the four range comparisons a
// key-bounded ordered index walk can serve.
func isRangeOp(op expr.CmpOp) bool {
	return op == expr.LT || op == expr.LE || op == expr.GT || op == expr.GE
}

// addBound tightens a ranged entry's interval with one more "attr op v"
// conjunct; the tighter of two bounds on the same side wins (equal
// bounds prefer the exclusive one, matching AND semantics).
func (e *AccessEntry) addBound(op expr.CmpOp, v model.Value) {
	e.Ranged = true
	switch op {
	case expr.GT, expr.GE:
		inc := op == expr.GE
		if c := v.Compare(e.Lo); !e.HasLo || c > 0 || (c == 0 && e.LoInc && !inc) {
			e.HasLo, e.Lo, e.LoInc = true, v, inc
		}
	case expr.LT, expr.LE:
		inc := op == expr.LE
		if c := v.Compare(e.Hi); !e.HasHi || c < 0 || (c == 0 && e.HiInc && !inc) {
			e.HasHi, e.Hi, e.HiInc = true, v, inc
		}
	}
}

// rangeString renders an interval for EXPLAIN and contest labels.
func rangeString(r storage.KeyRange) string {
	switch {
	case r.HasLo && r.HasHi:
		l, h := "(", ")"
		if r.LoInc {
			l = "["
		}
		if r.HiInc {
			h = "]"
		}
		return fmt.Sprintf("∈ %s%s, %s%s", l, r.Lo, r.Hi, h)
	case r.HasLo:
		if r.LoInc {
			return fmt.Sprintf("≥ %s", r.Lo)
		}
		return fmt.Sprintf("> %s", r.Lo)
	case r.HasHi:
		if r.HiInc {
			return fmt.Sprintf("≤ %s", r.Hi)
		}
		return fmt.Sprintf("< %s", r.Hi)
	}
	return ""
}

// estimateRangeCount estimates how many atoms of the entry's type fall
// inside its interval: two-sided histogram-bucket interpolation when
// ANALYZE has built one, the System-R range default per bound otherwise.
func estimateRangeCount(db *storage.Database, e *AccessEntry, n int) (int, string) {
	if h, ok := db.Histogram(e.Type, e.Attr); ok && h.Total() > 0 {
		var est int64
		switch {
		case e.HasLo && e.HasHi:
			est = h.EstimateLess(e.Hi, e.HiInc) - h.EstimateLess(e.Lo, !e.LoInc)
		case e.HasLo:
			est = h.Total() - h.EstimateLess(e.Lo, !e.LoInc)
		case e.HasHi:
			est = h.EstimateLess(e.Hi, e.HiInc)
		}
		est = min(est, int64(n))
		return int(max(est, 1)), SrcHistogram
	}
	sel := 1.0
	if e.HasLo {
		sel *= defSelRange
	}
	if e.HasHi {
		sel *= defSelRange
	}
	return scaleEst(n, sel), SrcDefault
}

// attrType resolves the atom type an attribute reference binds to within
// the structure (qualified directly, unqualified via the unique declaring
// component type).
func attrType(db *storage.Database, desc *core.Desc, a expr.Attr) (string, bool) {
	if a.Type != "" {
		return a.Type, desc.HasType(a.Type)
	}
	t, err := core.ResolveUnqualified(db, desc, a.Name)
	return t, err == nil
}

// cmpSelectivity estimates the fraction of typeName atoms satisfying
// "attr op v": histogram buckets when ANALYZE has run, the uniform
// index estimate for equality otherwise, a shape default as last resort.
func cmpSelectivity(db *storage.Database, typeName, attr string, op expr.CmpOp, v model.Value) (float64, string) {
	if h, ok := db.Histogram(typeName, attr); ok {
		total := h.Total() + h.Nulls()
		if total > 0 {
			est := h.EstimateCmp(op.String(), v)
			return clampSel(float64(est) / float64(total)), SrcHistogram
		}
	}
	if op == expr.EQ {
		if keys, ok := db.IndexCardinality(typeName, attr); ok && keys > 0 {
			return clampSel(1 / float64(keys)), SrcUniform
		}
		return defSelEq, SrcDefault
	}
	if op == expr.NE {
		return 1 - defSelEq, SrcDefault
	}
	return defSelRange, SrcDefault
}

// conjSelectivity estimates the fraction of candidates a conjunct keeps,
// recursing over the boolean structure with independence assumptions.
// The returned source is histogram only when every leaf estimate was
// histogram-backed.
//
// With sizes nil the estimate is per atom — what a root filter or a
// pushdown hook sees. Otherwise sizes holds the expected component-set
// size f of every type of the structure (componentSizes) and the estimate
// is per molecule, the fraction a residual conjunct keeps: a comparison of
// a type's attribute with a constant is existential over the molecule's
// atoms of that type, so it holds with 1 − (1 − s)^f where s is the atom
// fraction, and COUNT(T) op const is judged at COUNT(T) = f.
func conjSelectivity(db *storage.Database, desc *core.Desc, c expr.Expr, sizes []float64) (float64, string) {
	switch n := c.(type) {
	case expr.And:
		ls, lsrc := conjSelectivity(db, desc, n.L, sizes)
		rs, rsrc := conjSelectivity(db, desc, n.R, sizes)
		return clampSel(ls * rs), combineSource(lsrc, rsrc)
	case expr.Or:
		ls, lsrc := conjSelectivity(db, desc, n.L, sizes)
		rs, rsrc := conjSelectivity(db, desc, n.R, sizes)
		return clampSel(ls + rs - ls*rs), combineSource(lsrc, rsrc)
	case expr.Not:
		s, src := conjSelectivity(db, desc, n.E, sizes)
		return clampSel(1 - s), src
	case expr.Cmp:
		if a, op, v, ok := attrConstCmp(c); ok {
			if t, tok := attrType(db, desc, a); tok {
				s, src := cmpSelectivity(db, t, a.Name, op, v)
				if f := sizeOf(desc, sizes, t); f != 1 {
					s, src = clampSel(1-math.Pow(1-s, f)), worseSource(src, SrcLinkFan)
				}
				return s, src
			}
		}
		if s, ok := countAt(desc, sizes, n); ok {
			return s, SrcLinkFan
		}
	case expr.All:
		return defSelOther, SrcDefault
	case expr.Exists:
		return 0.9, SrcDefault
	}
	// A reference-free conjunct is a constant: it keeps every candidate or
	// none.
	if referenceFree(c) {
		if holds, err := expr.EvalPredicate(c, nil); err == nil && holds {
			return 1, SrcConstant
		} else if err == nil {
			return clampSel(0), SrcConstant
		}
	}
	return defSelOther, SrcDefault
}

// sizeOf is the expected number of typeName atoms per molecule: 1 when
// sizes is nil (an atom-level estimate) or the type is not in it.
func sizeOf(desc *core.Desc, sizes []float64, typeName string) float64 {
	if pos, ok := desc.Pos(typeName); ok && sizes != nil {
		return sizes[pos]
	}
	return 1
}

// countAt judges COUNT(T) op const (either orientation) at T's expected
// component-set size: 1 when the comparison holds there, the clamped
// floor when it does not. ok is false for any other shape and for
// atom-level estimates.
func countAt(desc *core.Desc, sizes []float64, cmp expr.Cmp) (float64, bool) {
	if sizes == nil {
		return 0, false
	}
	at := func(e expr.Expr) (expr.Expr, bool) {
		c, ok := e.(expr.CountOf)
		if !ok || !desc.HasType(c.Type) {
			return nil, false
		}
		return expr.Lit(model.Float(sizeOf(desc, sizes, c.Type))), true
	}
	if f, ok := at(cmp.L); ok && referenceFree(cmp.R) {
		cmp.L = f
	} else if f, ok := at(cmp.R); ok && referenceFree(cmp.L) {
		cmp.R = f
	} else {
		return 0, false
	}
	holds, err := expr.EvalPredicate(cmp, nil)
	if err != nil {
		return 0, false
	}
	if holds {
		return 1, true
	}
	return clampSel(0), true
}

// conjCost scores the relative per-molecule cost of evaluating a conjunct
// under molecule binding: attribute references dominate (each resolves to
// the values of every component atom of its type), quantifiers and
// aggregates add a full component sweep, scalar nodes are noise.
func conjCost(c expr.Expr) float64 {
	switch n := c.(type) {
	case nil:
		return 0
	case expr.Const:
		return 0.1
	case expr.Attr:
		return 2
	case expr.Cmp:
		return 0.5 + conjCost(n.L) + conjCost(n.R)
	case expr.And:
		return 0.25 + conjCost(n.L) + conjCost(n.R)
	case expr.Or:
		return 0.25 + conjCost(n.L) + conjCost(n.R)
	case expr.Not:
		return 0.25 + conjCost(n.E)
	case expr.Arith:
		return 0.5 + conjCost(n.L) + conjCost(n.R)
	case expr.Exists:
		return 1
	case expr.CountOf:
		return 1.5
	case expr.All:
		return 2 + conjCost(n.Attr) + conjCost(n.R)
	case expr.Func:
		cost := 1.0
		for _, a := range n.Args {
			cost += conjCost(a)
		}
		return cost
	}
	return 1
}

// componentSizes estimates, by type position, the expected size of every
// type's component set in one molecule of the structure: 1 for the root,
// then the parents' sizes grown along the forward fan of every edge, read
// from the link stores' average-partner statistics. Types with several
// incoming edges take their smallest incoming estimate (downward
// derivation intersects the parents' partner sets). A compile computes
// the sizes once: they weight the access-path contest (derivCostPerRoot)
// and turn residual estimates molecule-level (conjSelectivity). A closure
// description has none — its qualification judges the root alone.
func componentSizes(db *storage.Database, desc *core.Desc) []float64 {
	if desc.Closure() != nil {
		return nil
	}
	est := make([]float64, desc.NumTypes())
	rootPos, _ := desc.Pos(desc.Root())
	est[rootPos] = 1
	for _, t := range desc.Topo() {
		if t == desc.Root() {
			continue
		}
		pos, _ := desc.Pos(t)
		best := math.MaxFloat64
		for _, ei := range desc.Incoming(t) {
			e := desc.Edge(ei)
			fromPos, _ := desc.Pos(e.From)
			ls, ok := db.LinkStore(e.Link)
			if !ok {
				continue
			}
			fan := ls.AvgFan(ls.Desc().SideA == e.From)
			if v := est[fromPos] * fan; v < best {
				best = v
			}
		}
		if best == math.MaxFloat64 {
			best = 0
		}
		est[pos] = best
	}
	return est
}

// derivCostPerRoot estimates the atoms fetched deriving one molecule of
// the structure: the sum of the expected component-set sizes, or for a
// closure the expected closure size. The figure weights the access-path
// contest — a root batch is only as cheap as the derivations it triggers.
func derivCostPerRoot(db *storage.Database, desc *core.Desc, sizes []float64) float64 {
	if cl := desc.Closure(); cl != nil {
		// Traversal down expands A→B partners, so the per-atom fan is the
		// link occurrence over the A-side population.
		fan := 0.0
		if ls, ok := db.LinkStore(cl.Link); ok {
			fan = ls.AvgFan(!cl.Up)
		}
		n, _ := db.CountAtoms(desc.Root())
		return estimateClosure(fan, cl.Depth, n)
	}
	total := 0.0 // the root's size is 1
	for _, size := range sizes {
		total += size
	}
	return total
}

// maxEstRounds caps the rounds the closure-size estimate unrolls for an
// unbounded (DEPTH 0) recursion: past this the geometric series has
// either converged (fan < 1) or hit the container-size cap anyway.
const maxEstRounds = 8

// estimateClosure is the per-root derivation cost of a closure
// description: the frontier series 1 + fan + fan² + … unrolled for depth
// rounds (maxEstRounds when unbounded), the running total capped at the
// container size n — a closure cannot hold more atoms than exist.
func estimateClosure(fan float64, depth, n int) float64 {
	rounds := depth
	if rounds == 0 || rounds > maxEstRounds {
		rounds = maxEstRounds
	}
	total, level := 1.0, 1.0
	for d := 1; d <= rounds; d++ {
		level *= fan
		total += level
		if n > 0 && total >= float64(n) {
			return float64(n)
		}
		if level < 0.5 {
			// The frontier has died out; further rounds add nothing.
			break
		}
	}
	return total
}

// climbEstimate predicts the upward walk of an interior-index access
// path: starting from `entries` matching atoms of entryType, the expected
// frontier size at every type of the reverse-reachable slice up to the
// root, grown by the child side's average link fan and capped by the
// container sizes. It returns the estimated recovered roots, the
// link-traversal cost of the climb, and the climb path for EXPLAIN: one
// label per climb level (entry first, root last), with sibling parents
// reached at the same level grouped as "{a, b}" so a diamond does not
// read as a chain.
func climbEstimate(db *storage.Database, desc *core.Desc, entryType string, entries int) (estRoots int, climbCost float64, path []string) {
	est := make([]float64, desc.NumTypes())
	level := make([]int, desc.NumTypes()) // climb distance from the entry
	seen := make([]bool, desc.NumTypes())
	entryPos, _ := desc.Pos(entryType)
	est[entryPos] = float64(entries)
	seen[entryPos] = true
	topo := desc.Topo()
	levels := [][]string{{entryType}}
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		pos, _ := desc.Pos(t)
		if !seen[pos] {
			continue
		}
		for _, ei := range desc.Incoming(t) {
			e := desc.Edge(ei)
			fromPos, _ := desc.Pos(e.From)
			ls, ok := db.LinkStore(e.Link)
			if !ok {
				continue
			}
			upFan := ls.AvgFan(ls.Desc().SideA == e.To)
			climbCost += est[pos]
			grown := est[fromPos] + est[pos]*upFan
			if n, err := db.CountAtoms(e.From); err == nil && grown > float64(n) {
				grown = float64(n)
			}
			est[fromPos] = grown
			if !seen[fromPos] {
				// A type is labelled with the level it is first reached
				// at; later, longer paths into it do not move the label.
				seen[fromPos] = true
				level[fromPos] = level[pos] + 1
				for len(levels) <= level[fromPos] {
					levels = append(levels, nil)
				}
				levels[level[fromPos]] = append(levels[level[fromPos]], e.From)
			}
		}
	}
	for _, lv := range levels {
		switch len(lv) {
		case 0:
		case 1:
			path = append(path, lv[0])
		default:
			path = append(path, "{"+strings.Join(lv, ", ")+"}")
		}
	}
	rootPos, _ := desc.Pos(desc.Root())
	r := int(est[rootPos] + 0.5)
	if n, err := db.CountAtoms(desc.Root()); err == nil && r > n {
		r = n
	}
	if r < 1 {
		r = 1
	}
	return r, climbCost, path
}

// orderCost scores the comparison work of heap- or sort-ordering e
// molecules — the surcharge unsorted access paths pay in an ordered
// plan's contest. The e·log₂e shape covers both mechanisms (a bounded
// heap does less, but the bound is unknown at compile time); the 0.25
// weight keeps one comparison well below one atom fetch.
func orderCost(e float64) float64 {
	if e <= 0 {
		return 0
	}
	return 0.25 * e * math.Log2(e+1)
}

// residualRank orders residual conjuncts for short-circuit evaluation:
// the classic (selectivity − 1)/cost criterion, most negative first, puts
// cheap, highly selective conjuncts ahead so expected work per molecule
// is minimized.
func residualRank(sel, cost float64) float64 {
	if cost <= 0 {
		cost = 0.1
	}
	return (sel - 1) / cost
}

// clampSel bounds a selectivity estimate away from the degenerate 0 and
// above 1 (estimates are rankings, not proofs — an estimated-zero
// conjunct must still be evaluated).
func clampSel(s float64) float64 {
	if math.IsNaN(s) {
		return defSelOther
	}
	if s < 0.0005 {
		return 0.0005
	}
	if s > 1 {
		return 1
	}
	return s
}
