package core_test

import (
	"strings"
	"testing"

	"mad/internal/core"
	"mad/internal/model"
	"mad/internal/storage"
)

// TestRendererAllocs gates the molecule renderer's allocations: once
// warm, appending an assembly molecule (1 asm, 4 units, 16 parts, one
// part reached under two units) or a closure molecule into a reused
// buffer allocates at most once per molecule.
func TestRendererAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	db := storage.NewDatabase()
	for _, tn := range []string{"asm", "unit", "part"} {
		if _, err := db.DefineAtomType(tn, model.MustDesc(
			model.AttrDesc{Name: "name", Kind: model.KString},
			model.AttrDesc{Name: "w", Kind: model.KFloat})); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][3]string{{"asm-unit", "asm", "unit"}, {"unit-part", "unit", "part"}, {"comp", "part", "part"}} {
		if _, err := db.DefineLinkType(l[0], model.LinkDesc{SideA: l[1], SideB: l[2]}); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(tn, name string) model.AtomID {
		id, err := db.InsertAtom(tn, model.Str(name), model.Float(1.5))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	asm := insert("asm", "a")
	var parts []model.AtomID
	for u := range 4 {
		unit := insert("unit", "u")
		mustConnect(t, db, "asm-unit", asm, unit)
		for range 4 {
			p := insert("part", "p")
			mustConnect(t, db, "unit-part", unit, p)
			parts = append(parts, p)
		}
		if u == 3 {
			mustConnect(t, db, "unit-part", unit, parts[0]) // the shared part
		}
	}
	for i := 1; i < len(parts); i++ {
		mustConnect(t, db, "comp", parts[(i-1)/2], parts[i])
	}

	tree, err := core.NewDesc(db, []string{"asm", "unit", "part"}, []core.DirectedLink{
		{Link: "asm-unit", From: "asm", To: "unit"},
		{Link: "unit-part", From: "unit", To: "part"},
	})
	if err != nil {
		t.Fatal(err)
	}
	closure, err := core.NewClosureDesc(db, "part", "comp", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		desc *core.Desc
		root model.AtomID
		want string
	}{
		{tree, asm, "^part: "},
		{closure, parts[0], "level 3:"},
	} {
		dv, err := core.NewDeriver(db, tc.desc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dv.DeriveFor(tc.root)
		if err != nil {
			t.Fatal(err)
		}
		rd := core.NewRenderer(db, db.View(0), nil, nil)
		buf := rd.Append(nil, 1, m)
		if !strings.Contains(string(buf), tc.want) {
			t.Fatalf("rendering lacks %q:\n%s", tc.want, buf)
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = rd.Append(buf[:0], 1, m) }); allocs > 1 {
			t.Errorf("%s: %.1f allocations per molecule, want ≤ 1", tc.desc, allocs)
		}
	}
}
