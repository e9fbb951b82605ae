package plan

import (
	"fmt"

	"mad/internal/core"
	"mad/internal/expr"
)

// Restrict is the molecule-type restriction Σ[restr(md)](mt) evaluated
// through the planner: it compiles the predicate into a plan (index or
// filtered-scan access path, per-atom-type pushdown, residual filter),
// executes it, and propagates the qualifying set into the enlarged
// database, closing with α — the planned generalization of
// core.Restrict. The result is always occurrence-equivalent to
// core.Restrict; only the work differs.
func Restrict(mt *core.MoleculeType, pred expr.Expr, resultName string, tr *core.OpTrace) (*core.MoleculeType, error) {
	if err := expr.Check(pred, core.Scope{DB: mt.DB(), Desc: mt.Desc()}); err != nil {
		return nil, err
	}
	p, err := Compile(mt.DB(), mt.Desc(), pred)
	if err != nil {
		return nil, err
	}
	if pred == nil {
		tr.SetOp(fmt.Sprintf("Σ[true](%s)", mt.Name()))
	} else {
		tr.SetOp(fmt.Sprintf("Σ[%s](%s) planned", pred, mt.Name()))
	}
	done := tr.Begin("restriction (planned)")
	set, err := p.Execute()
	if err != nil {
		return nil, err
	}
	done(p.Summary())
	res, err := core.Prop(mt.DB(), resultName, mt.Desc(), set, nil, tr)
	if err != nil {
		return nil, err
	}
	return res.Type, nil
}
