package plan_test

import (
	"testing"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/geo"
	"mad/internal/model"
	"mad/internal/plan"
)

// BenchmarkCompileOnly isolates the planner-compile cost per statement.
func BenchmarkCompileOnly(b *testing.B) {
	s, err := geo.BuildSample()
	if err != nil {
		b.Fatal(err)
	}
	if err := s.DB.CreateIndex("point", "name"); err != nil {
		b.Fatal(err)
	}
	mt, err := core.Define(s.DB, "", []string{"point", "edge", "area", "state", "net", "river"},
		[]core.DirectedLink{
			{Link: "edge-point", From: "point", To: "edge"},
			{Link: "area-edge", From: "edge", To: "area"},
			{Link: "state-area", From: "area", To: "state"},
			{Link: "net-edge", From: "edge", To: "net"},
			{Link: "river-net", From: "net", To: "river"},
		})
	if err != nil {
		b.Fatal(err)
	}
	pred := expr.And{
		L: expr.Cmp{Op: expr.EQ, L: expr.Attr{Type: "point", Name: "name"}, R: expr.Lit(model.Str("pn"))},
		R: expr.And{
			L: expr.Cmp{Op: expr.GT, L: expr.Attr{Type: "state", Name: "hectare"}, R: expr.Lit(model.Float(10))},
			R: expr.Cmp{Op: expr.LE, L: expr.Attr{Type: "area", Name: "tag"}, R: expr.Attr{Type: "river", Name: "name"}},
		},
	}
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Compile(s.DB, mt.Desc(), pred); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile_execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := plan.Compile(s.DB, mt.Desc(), pred)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResidual times the residual-filter statements end to end on
// one worker: the chain, and the GROUP BY over its head.
func BenchmarkResidual(b *testing.B) {
	s := residualSession(b)
	for _, tc := range []struct{ name, stmt string }{{"chain", residualChain}, {"group", residualGroup}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := s.Exec(tc.stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
