package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/storage"
)

// randomLayeredDB generates a random database with a layered schema
// t0 → t1 → … → t_{depth} (one link type per layer) plus one cross link
// type t0 → t2 when depth permits, and random atoms/links.
func randomLayeredDB(rng *rand.Rand, depth, atomsPerType int) (*storage.Database, []string, []core.DirectedLink, error) {
	db := storage.NewDatabase()
	types := make([]string, depth+1)
	for i := range types {
		types[i] = fmt.Sprintf("t%d", i)
		desc := model.MustDesc(
			model.AttrDesc{Name: "v", Kind: model.KInt},
			model.AttrDesc{Name: "w", Kind: model.KFloat},
		)
		if _, err := db.DefineAtomType(types[i], desc); err != nil {
			return nil, nil, nil, err
		}
	}
	var edges []core.DirectedLink
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("l%d", i)
		if _, err := db.DefineLinkType(name, model.LinkDesc{SideA: types[i], SideB: types[i+1]}); err != nil {
			return nil, nil, nil, err
		}
		edges = append(edges, core.DirectedLink{Link: name, From: types[i], To: types[i+1]})
	}
	if depth >= 2 {
		// A second path to layer 2: makes t2 a multi-parent node and
		// exercises the AND (contained) semantics.
		if _, err := db.DefineLinkType("skip", model.LinkDesc{SideA: types[0], SideB: types[2]}); err != nil {
			return nil, nil, nil, err
		}
		edges = append(edges, core.DirectedLink{Link: "skip", From: types[0], To: types[2]})
	}
	ids := make([][]model.AtomID, len(types))
	for i, t := range types {
		for j := 0; j < atomsPerType; j++ {
			id, err := db.InsertAtom(t, model.Int(int64(j)), model.Float(rng.Float64()*100))
			if err != nil {
				return nil, nil, nil, err
			}
			ids[i] = append(ids[i], id)
		}
	}
	// Random links, density ~2 per atom per layer.
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("l%d", i)
		for _, a := range ids[i] {
			for k := 0; k < 2; k++ {
				b := ids[i+1][rng.Intn(len(ids[i+1]))]
				if err := db.Connect(name, a, b); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	if depth >= 2 {
		for _, a := range ids[0] {
			if rng.Intn(2) == 0 {
				b := ids[2][rng.Intn(len(ids[2]))]
				if err := db.Connect("skip", a, b); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	return db, types, edges, nil
}

// TestDerivationMatchesSpecOnRandomDBs checks DESIGN.md properties 4–6:
// over random layered databases (including a multi-parent node), every
// derived molecule passes the independent mv_graph/totality checker and
// derivation is deterministic.
func TestDerivationMatchesSpecOnRandomDBs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 2 + rng.Intn(2) // 2..3
		db, types, edges, err := randomLayeredDB(rng, depth, 4+rng.Intn(5))
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		mt, err := core.Define(db, "random", types, edges)
		if err != nil {
			t.Logf("define: %v", err)
			return false
		}
		set, err := mt.Derive()
		if err != nil {
			t.Logf("derive: %v", err)
			return false
		}
		if err := core.VerifySet(db, set); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		set2, err := mt.Derive()
		if err != nil {
			return false
		}
		for i := range set {
			if set[i].Key() != set2[i].Key() {
				t.Logf("nondeterministic at %d", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestClosurePropertyRandomPipelines checks DESIGN.md property 7: random
// Σ/Π pipelines of depth 3 over random databases always yield valid,
// re-derivable, verifiable molecule types. Its MQL arm runs the same
// pipeline as DEFINE statements, each of which must propagate an
// occurrence equivalent to the core reference's; the structure has a
// multi-parent type, and one Π keeps it without one of its parents —
// where Π's re-derivation and a prune of the molecules differ.
func TestClosurePropertyRandomPipelines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, types, edges, err := randomLayeredDB(rng, 2, 5)
		if err != nil {
			return false
		}
		cur, err := core.Define(db, "p0", types, edges)
		if err != nil {
			return false
		}
		sess := mql.NewSession(db)
		if err := sess.Register("p0", cur); err != nil {
			return false
		}
		for step := 1; step <= 3; step++ {
			prev, _ := sess.NamedType(fmt.Sprintf("p%d", step-1))
			name := fmt.Sprintf("p%d", step)
			var next *core.MoleculeType
			var define *mql.DefineStmt
			if choice := rng.Intn(3); choice == 0 {
				threshold := rng.Float64() * 100
				pred := func(root string) expr.Expr {
					return expr.Cmp{Op: expr.LE, L: expr.Attr{Type: root, Name: "w"}, R: expr.Lit(model.Float(threshold))}
				}
				next, err = core.Restrict(cur, pred(cur.Desc().Root()), "", nil)
				define = &mql.DefineStmt{Name: name, Select: &mql.SelectStmt{All: true,
					From: mql.FromClause{Name: prev.Name()}, Where: pred(prev.Desc().Root())}}
			} else {
				// Keep the root and either the chain below it minus the
				// deepest layer, or the deepest layer alone — the
				// multi-parent type without its chain parent.
				keep := []int{0, 1}
				if n := cur.Desc().NumTypes(); n < 3 {
					keep = keep[:n]
				} else if choice == 2 {
					keep = []int{0, 2}
				}
				coreKeep, items := make([]string, len(keep)), make([]mql.ProjItem, len(keep))
				for i, pos := range keep {
					coreKeep[i], items[i].Type = cur.Desc().Types()[pos], prev.Desc().Types()[pos]
				}
				next, err = core.Project(cur, core.Projection{Keep: coreKeep}, "", nil)
				define = &mql.DefineStmt{Name: name, Select: &mql.SelectStmt{Items: items, From: mql.FromClause{Name: prev.Name()}}}
			}
			if err != nil {
				t.Logf("step %d: %v", step, err)
				return false
			}
			cur = next
			set, err := cur.Derive()
			if err != nil {
				t.Logf("derive step %d: %v", step, err)
				return false
			}
			if err := core.VerifySet(db, set); err != nil {
				t.Logf("verify step %d: %v", step, err)
				return false
			}
			if !mqlAgrees(t, sess, define, set) {
				return false
			}
		}
		return db.CheckIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// mqlAgrees runs a DEFINE — the MQL arm of the closure properties — and
// reports whether the type it registers re-derives to the reference set.
func mqlAgrees(t *testing.T, sess *mql.Session, define *mql.DefineStmt, want core.MoleculeSet) bool {
	t.Helper()
	if _, err := sess.Execute(define); err != nil {
		t.Logf("DEFINE %s: %v", define.Name, err)
		return false
	}
	mt, _ := sess.NamedType(define.Name)
	ok, err := core.EquivalentOccurrence(mt, want)
	if !ok || err != nil {
		t.Logf("DEFINE %s: occurrence differs from the core reference (%v)", define.Name, err)
	}
	return ok && err == nil
}

// TestUnionDifferenceLawsRandom checks DESIGN.md property 8 over random
// partitions: Ω(a,b) has |a|+|b| molecules when a,b partition, Δ(a,a)=∅,
// Ψ(Ω(a,b), a) = a. Its MQL arm runs every operation as a DEFINE, each of
// which must propagate an occurrence equivalent to the core reference's.
func TestUnionDifferenceLawsRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, types, edges, err := randomLayeredDB(rng, 2, 6)
		if err != nil {
			return false
		}
		mt, err := core.Define(db, "base", types, edges)
		if err != nil {
			return false
		}
		sess := mql.NewSession(db)
		if err := sess.Register("base", mt); err != nil {
			return false
		}
		threshold := rng.Float64() * 100
		root := mt.Desc().Root()
		lessEq := expr.Cmp{Op: expr.LE,
			L: expr.Attr{Type: root, Name: "w"},
			R: expr.Lit(model.Float(threshold))}
		lo, err := core.Restrict(mt, lessEq, "", nil)
		if err != nil {
			return false
		}
		hi, err := core.Restrict(mt, expr.Not{E: lessEq}, "", nil)
		if err != nil {
			return false
		}
		nLo, _ := lo.Cardinality()
		nHi, _ := hi.Cardinality()
		nAll, _ := mt.Cardinality()
		if nLo+nHi != nAll {
			t.Logf("partition broken: %d + %d != %d", nLo, nHi, nAll)
			return false
		}
		u, err := core.Union(lo, hi, "", nil)
		if err != nil {
			t.Logf("Ω: %v", err)
			return false
		}
		if nu, _ := u.Cardinality(); nu != nAll {
			t.Logf("|Ω| = %d, want %d", nu, nAll)
			return false
		}
		empty, err := core.Difference(lo, lo, "", nil)
		if err != nil {
			return false
		}
		if ne, _ := empty.Cardinality(); ne != 0 {
			return false
		}
		inter, err := core.Intersect(u, lo, "", nil)
		if err != nil {
			t.Logf("Ψ: %v", err)
			return false
		}
		if ni, _ := inter.Cardinality(); ni != nLo {
			return false
		}
		sigma := func(name string, pred expr.Expr) *mql.DefineStmt {
			return &mql.DefineStmt{Name: name, Select: &mql.SelectStmt{All: true, From: mql.FromClause{Name: "base"}, Where: pred}}
		}
		setOp := func(name, op, l, r string) *mql.DefineStmt {
			return &mql.DefineStmt{Name: name, SetOp: op, Left: l, Right: r}
		}
		for _, c := range []struct {
			define *mql.DefineStmt
			ref    *core.MoleculeType
		}{
			{sigma("lo", lessEq), lo},
			{sigma("hi", expr.Not{E: lessEq}), hi},
			{setOp("u", "UNION", "lo", "hi"), u},
			{setOp("empty", "DIFFERENCE", "lo", "lo"), empty},
			{setOp("inter", "INTERSECT", "u", "lo"), inter},
		} {
			want, err := c.ref.Derive()
			if err != nil || !mqlAgrees(t, sess, c.define, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
