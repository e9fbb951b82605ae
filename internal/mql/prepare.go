package mql

import (
	"context"
	"fmt"
	"strconv"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
)

// preparedStmt is one PREPARE'd statement: the parsed SELECT with its
// placeholder sentinels still in place and the resolved structure.
type preparedStmt struct {
	sel     *SelectStmt
	desc    *core.Desc
	nparams int
}

// execPrepare resolves a PREPARE name AS SELECT. The structure and the
// ORDER BY resolve now (errors surface at PREPARE time); the predicate is
// only checked at EXECUTE, once the placeholders hold real literals.
func (s *Session) execPrepare(st *PrepareStmt) (*Result, error) {
	if _, dup := s.prepared[st.Name]; dup {
		return nil, fmt.Errorf("mql: statement %q already prepared", st.Name)
	}
	sel := st.Select
	mt, err := s.resolveFrom(sel.From)
	if err != nil {
		return nil, err
	}
	desc := mt.Desc()
	if _, err := orderBy(sel, desc); err != nil {
		return nil, err
	}
	ps := &preparedStmt{sel: sel, desc: desc, nparams: countParams(sel.Where)}
	s.prepared[st.Name] = ps
	return &Result{Kind: RMessage, Message: fmt.Sprintf(
		"statement %q prepared (%d parameter(s))", st.Name, ps.nparams)}, nil
}

// execExecute binds the EXECUTE literals into the prepared statement's
// placeholders and runs the SELECT, compiled like any other on the
// statistics of the moment.
func (s *Session) execExecute(st *ExecuteStmt) (*Result, error) {
	ps, ok := s.prepared[st.Name]
	if !ok {
		return nil, fmt.Errorf("mql: no prepared statement %q", st.Name)
	}
	if len(st.Args) != ps.nparams {
		return nil, fmt.Errorf("mql: statement %q takes %d parameter(s), got %d",
			st.Name, ps.nparams, len(st.Args))
	}
	bound := *ps.sel
	if ps.sel.Where != nil {
		bound.Where = bindParams(ps.sel.Where, st.Args)
	}
	cur, err := s.selectCursor(context.Background(), &bound, ps.desc)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	return cur.Result()
}

// countParams returns how many distinct placeholder ordinals pred binds
// (placeholders number densely from 0 in syntactic order, so the count is
// one past the highest ordinal).
func countParams(pred expr.Expr) int {
	n := 0
	for _, a := range expr.References(pred) {
		if a.Type != paramType {
			continue
		}
		if i, err := strconv.Atoi(a.Name); err == nil && i+1 > n {
			n = i + 1
		}
	}
	return n
}

// bindParams replaces every placeholder sentinel in the tree with the
// literal bound at its ordinal, leaving everything else untouched.
func bindParams(e expr.Expr, args []model.Value) expr.Expr {
	switch n := e.(type) {
	case expr.Attr:
		if n.Type == paramType {
			if i, err := strconv.Atoi(n.Name); err == nil && i >= 0 && i < len(args) {
				return expr.Lit(args[i])
			}
		}
		return n
	case expr.Cmp:
		return expr.Cmp{Op: n.Op, L: bindParams(n.L, args), R: bindParams(n.R, args)}
	case expr.And:
		return expr.And{L: bindParams(n.L, args), R: bindParams(n.R, args)}
	case expr.Or:
		return expr.Or{L: bindParams(n.L, args), R: bindParams(n.R, args)}
	case expr.Not:
		return expr.Not{E: bindParams(n.E, args)}
	case expr.Arith:
		return expr.Arith{Op: n.Op, L: bindParams(n.L, args), R: bindParams(n.R, args)}
	case expr.All:
		return expr.All{Attr: n.Attr, Op: n.Op, R: bindParams(n.R, args)}
	case expr.Func:
		out := expr.Func{Name: n.Name, Args: make([]expr.Expr, len(n.Args))}
		for i, a := range n.Args {
			out.Args[i] = bindParams(a, args)
		}
		return out
	default:
		return e
	}
}
