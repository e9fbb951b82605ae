package experiments

import (
	"bytes"
	"fmt"
	"io"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/mql"
)

// RunQ1 reproduces the paper's first Chapter-4 example — the molecule-type
// definition expressed in the FROM clause — and checks the MQL result
// against the hand-built algebra expression.
func RunQ1(w io.Writer, _ int) error {
	s, err := sampleOrErr()
	if err != nil {
		return err
	}
	header(w, "Q1", "SELECT ALL FROM mt_state(state-area-edge-point)")
	sess := mql.NewSession(s.DB)
	const q = "SELECT ALL FROM mt_state(state-area-edge-point);"
	res, err := sess.Exec(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "MQL:     %s\nalgebra: α[mt_state,{<state-area,state,area>,<area-edge,area,edge>,<edge-point,edge,point>}](state,area,edge,point)\n\n", q)

	mt, err := defineMtState(s.DB, "mt_state_algebra")
	if err != nil {
		return err
	}
	want, err := mt.Derive()
	if err != nil {
		return err
	}
	equal := len(res.Set) == len(want)
	for i := 0; equal && i < len(want); i++ {
		equal = bytes.Equal(res.Set[i].AppendKey(nil), want[i].AppendKey(nil))
	}
	fmt.Fprintf(w, "MQL result: %d molecules; algebra result: %d molecules; equal: %v\n\n",
		len(res.Set), len(want), equal)
	if !equal {
		return fmt.Errorf("Q1: MQL and algebra disagree")
	}
	// Show two molecules like the paper's m1 (MG) and m2 excerpt.
	for i, m := range res.Set[:2] {
		fmt.Fprintf(w, "molecule m%d:\n%s", i+1, m.Format(s.DB))
	}
	return nil
}

// RunQ2 reproduces the paper's second example: the symmetric
// point-neighborhood query restricted to point.name = 'pn'.
func RunQ2(w io.Writer, _ int) error {
	s, err := sampleOrErr()
	if err != nil {
		return err
	}
	header(w, "Q2", "SELECT ALL FROM point-edge-(area-state, net-river) WHERE point.name = 'pn'")
	sess := mql.NewSession(s.DB)
	const q = "SELECT ALL FROM point-edge-(area-state, net-river) WHERE point.name = 'pn';"
	res, err := sess.Exec(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "MQL:     %s\nalgebra: Σ[restr(point.name='pn')](α[point-neighborhood, …](point,edge,area,state,net,river))\n\n", q)

	types, edges := pointNeighborhoodDesc()
	pn, err := core.Define(s.DB, "pn_algebra", types, edges)
	if err != nil {
		return err
	}
	sigma, err := core.Restrict(pn, expr.Cmp{Op: expr.EQ,
		L: expr.Attr{Type: "point", Name: "name"},
		R: expr.Lit(model.Str("pn"))}, "", nil)
	if err != nil {
		return err
	}
	want, err := sigma.Derive()
	if err != nil {
		return err
	}
	equal := len(res.Set) == len(want) && len(want) == 1 &&
		res.Set[0].Root() == want[0].Root() && res.Set[0].Size() == want[0].Size()
	fmt.Fprintf(w, "MQL result: %d molecule(s); algebra result: %d; equivalent: %v\n",
		len(res.Set), len(want), equal)
	if !equal {
		return fmt.Errorf("Q2: MQL and algebra disagree")
	}
	m := res.Set[0]
	fmt.Fprintf(w, "\nthe pn neighborhood (paper: SP MS MG GO and Parana):\n%s", m.Format(s.DB))
	return nil
}
