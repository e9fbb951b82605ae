package catalog_test

import (
	"strings"
	"testing"

	"mad/internal/catalog"
	"mad/internal/model"
)

func schemaWith(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema()
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	for _, n := range []string{"a", "b", "c"} {
		if _, err := addAtomType(s, n, desc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddLinkType("ab", model.LinkDesc{SideA: "a", SideB: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddLinkType("bc", model.LinkDesc{SideA: "b", SideB: "c"}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNamespaceRules(t *testing.T) {
	s := schemaWith(t)
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	if _, err := addAtomType(s, "a", desc); err == nil {
		t.Fatal("duplicate atom type must fail")
	}
	if _, err := addAtomType(s, "ab", desc); err == nil {
		t.Fatal("atom type colliding with link type must fail")
	}
	if _, err := s.AddLinkType("a", model.LinkDesc{SideA: "a", SideB: "b"}); err == nil {
		t.Fatal("link type colliding with atom type must fail")
	}
	if _, err := s.AddLinkType("xz", model.LinkDesc{SideA: "a", SideB: "nosuch"}); err == nil {
		t.Fatal("dangling link side must fail")
	}
	if _, err := addAtomType(s, "has space", desc); err == nil {
		t.Fatal("reserved characters must fail")
	}
	if _, err := addAtomType(s, "", desc); err == nil {
		t.Fatal("empty name must fail")
	}
	// Hyphenated names are allowed (paper's own style).
	if _, err := s.AddLinkType("a-c", model.LinkDesc{SideA: "a", SideB: "c"}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeNumbersDenseAndStable(t *testing.T) {
	s := schemaWith(t)
	a, _ := s.AtomType("a")
	b, _ := s.AtomType("b")
	if a.Num == 0 || b.Num == 0 {
		t.Fatal("type number 0 is reserved")
	}
	if a.Num == b.Num {
		t.Fatal("type numbers must be unique")
	}
	if got, ok := s.AtomTypeByNum(a.Num); !ok || got != a {
		t.Fatal("AtomTypeByNum broken")
	}
}

func TestLinkTypeQueries(t *testing.T) {
	s := schemaWith(t)
	if got := s.LinkTypesOf("b"); len(got) != 2 {
		t.Fatalf("LinkTypesOf(b) = %d", len(got))
	}
	if got := s.LinkTypesBetween("a", "b"); len(got) != 1 || got[0].Name != "ab" {
		t.Fatalf("LinkTypesBetween = %v", got)
	}
	if got := s.LinkTypesBetween("b", "a"); len(got) != 1 {
		t.Fatal("LinkTypesBetween must be order-insensitive")
	}
	lt, err := s.UniqueLinkBetween("a", "b")
	if err != nil || lt.Name != "ab" {
		t.Fatalf("UniqueLinkBetween = %v, %v", lt, err)
	}
	if _, err := s.UniqueLinkBetween("a", "c"); err == nil {
		t.Fatal("no link between a and c yet")
	}
	// Second link type between the same pair makes '-' ambiguous.
	if _, err := s.AddLinkType("ab2", model.LinkDesc{SideA: "a", SideB: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UniqueLinkBetween("a", "b"); err == nil {
		t.Fatal("ambiguous shorthand must fail")
	}
}

func TestFreshNames(t *testing.T) {
	s := schemaWith(t)
	n1 := s.FreshAtomName("a")
	n2 := s.FreshAtomName("a")
	if n1 == n2 {
		t.Fatal("fresh names must differ")
	}
	if s.HasName(n1) {
		t.Fatal("fresh names are not registered until defined")
	}
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	if _, err := addAtomType(s, n1, desc); err != nil {
		t.Fatalf("fresh name must be definable: %v", err)
	}
	n3 := s.FreshAtomName("")
	if n3 == "" || s.HasName(n3) {
		t.Fatal("empty base must still generate")
	}
}

func TestRenderDeterministic(t *testing.T) {
	s := schemaWith(t)
	out := s.Render()
	if !strings.Contains(out, "ATOM TYPE a") || !strings.Contains(out, "LINK TYPE ab BETWEEN a AND b") {
		t.Fatalf("render: %s", out)
	}
	if s.Render() != out {
		t.Fatal("render must be deterministic")
	}
	// Declaration order preserved.
	ia := strings.Index(out, "ATOM TYPE a")
	ib := strings.Index(out, "ATOM TYPE b")
	if ia > ib {
		t.Fatal("declaration order lost")
	}
}

func TestCardinalityRendering(t *testing.T) {
	s := schemaWith(t)
	lt, err := s.AddLinkType("lim", model.LinkDesc{
		SideA: "a", SideB: "b",
		CardA: model.Cardinality{Max: 1},
		CardB: model.Cardinality{Min: 1, Max: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lt.String(), "[0:1, 1:3]") {
		t.Fatalf("cardinality rendering: %s", lt)
	}
}

// addAtomType declares an atom type under the next type number.
func addAtomType(s *catalog.Schema, name string, desc *model.Desc) (*catalog.AtomType, error) {
	num, err := s.NewTypeNum()
	if err != nil {
		return nil, err
	}
	return s.AddAtomType(name, num, desc)
}
