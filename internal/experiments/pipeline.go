package experiments

import (
	"fmt"
	"io"

	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/plan"
)

// ResidualHeavyPred is the residual-heavy workload predicate (P12): five
// conjuncts that all need the whole molecule (cross-type existential
// comparisons, a universal quantifier, a negated existential, a
// count-vs-count comparison), so none can push below derivation — the
// residual chain dominates execution time. Every conjunct passes on
// every molecule of the BuildAssembly workload, so the chain runs in
// full.
func ResidualHeavyPred() expr.Expr {
	slot := expr.Attr{Type: "unit", Name: "slot"}
	weight := expr.Attr{Type: "part", Name: "weight"}
	conj := []expr.Expr{
		// ∃ (slot, weight) pair with slot ≥ weight: slots reach 3,
		// weights stay below 1 — true everywhere, evaluated over every
		// slot × weight pair.
		expr.Cmp{Op: expr.GE, L: slot, R: weight},
		// ∃ pair with weight < slot — true everywhere, same sweep.
		expr.Cmp{Op: expr.LT, L: weight, R: slot},
		// Every part weighs at most 1 — a universal sweep.
		expr.All{Attr: weight, Op: expr.LE, R: expr.Lit(model.Float(1))},
		// No part carries the impossible serial — a negated existential
		// string sweep.
		expr.Not{E: expr.Cmp{Op: expr.EQ,
			L: expr.Attr{Type: "part", Name: "serial"}, R: expr.Lit(model.Str("no-such-serial"))}},
		// Every assembly holds more parts than units.
		expr.Cmp{Op: expr.GE, L: expr.CountOf{Type: "part"}, R: expr.CountOf{Type: "unit"}},
	}
	pred := conj[0]
	for _, c := range conj[1:] {
		pred = expr.And{L: pred, R: c}
	}
	return pred
}

// MisRankedPred is the P11 feedback predicate: two residual conjuncts
// whose estimate-based rank is wrong at the molecule level.
//
//   - R1 (∃ slot ≥ weight) gets the default 0.5 selectivity and the
//     cheaper cost, so the compile ranks it first — but a molecule holds
//     slots up to 3 and weights below 1, so it passes *every* molecule
//     and filters nothing;
//   - R2 (part.serial = 'S-42' OR COUNT(part) < 0) estimates weaker but
//     actually passes only the ~1/64 flagged assemblies. (The OR with an
//     always-false count comparison keeps the equality out of pushdown,
//     forcing it to stay residual.)
//
// The first execution observes the true molecule-level pass rates; the
// re-ranked chain runs the selective conjunct first, and the second
// execution evaluates far fewer conjuncts.
func MisRankedPred() expr.Expr {
	r1 := expr.Cmp{Op: expr.GE,
		L: expr.Attr{Type: "unit", Name: "slot"}, R: expr.Attr{Type: "part", Name: "weight"}}
	r2 := expr.Or{
		L: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "part", Name: "serial"}, R: expr.Lit(model.Str("S-42"))},
		R: expr.Cmp{Op: expr.LT, L: expr.CountOf{Type: "part"}, R: expr.Lit(model.Int(0))},
	}
	return expr.And{L: r1, R: r2}
}

// residualEvals sums the per-conjunct molecule evaluations of the last
// execution — the figure the feedback loop drives down.
func residualEvals(p *plan.Plan) int {
	n := 0
	for i := range p.Residuals {
		n += p.Residuals[i].Evals
	}
	return n
}

// residualOrder renders the executed chain compactly: conjuncts in
// evaluation order with their pass counts.
func residualOrder(p *plan.Plan) string {
	s := ""
	for i := range p.Residuals {
		r := &p.Residuals[i]
		if i > 0 {
			s += " → "
		}
		s += fmt.Sprintf("%s [%s] (passed %d/%d)", r.Conjunct, r.Source, r.Passed, r.Evals)
	}
	return s
}

// RunP11 measures the execution-feedback loop: a query whose residual
// chain the cost model mis-ranks is executed twice — the first execution
// records the observed molecule-level pass rates into the feedback store,
// the second re-ranks the chain around them ([observed] provenance) and
// evaluates far fewer conjuncts.
func RunP11(w io.Writer, scale int) error {
	if scale < 1 {
		scale = 1
	}
	header(w, "P11", "feedback-calibrated residual ordering")

	fmt.Fprintln(w, "feedback loop: mis-ranked residual chain, two executions")
	fdb, asmMT, err := BuildAssembly(256 * scale)
	if err != nil {
		return err
	}
	cache := plan.CacheFor(fdb)
	defer plan.Release(fdb)
	mis := MisRankedPred()
	p1, _, err := cache.Compile(asmMT.Desc(), mis)
	if err != nil {
		return err
	}
	if _, err := p1.Execute(); err != nil {
		return err
	}
	first := residualEvals(p1)
	fmt.Fprintf(w, "  execution 1 (estimate order): %s\n", residualOrder(p1))
	p2, cached, err := cache.Compile(asmMT.Desc(), mis)
	if err != nil {
		return err
	}
	if _, err := p2.Execute(); err != nil {
		return err
	}
	second := residualEvals(p2)
	fmt.Fprintf(w, "  execution 2 (observed order, cache hit %v): %s\n", cached, residualOrder(p2))
	fmt.Fprintf(w, "  conjunct evaluations: %d → %d (%.1f%% of the first run)\n",
		first, second, 100*float64(second)/float64(first))
	if second >= first {
		return fmt.Errorf("P11: feedback failed to reduce conjunct evaluations (%d → %d)", first, second)
	}
	fmt.Fprintf(w, "\nplan after feedback (EXPLAIN form):\n%s", p2.Render())
	return nil
}
