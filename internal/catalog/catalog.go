// Package catalog manages the schema half of a MAD database: the set of
// named atom types and link types (DB = <AT, LT>, Definition 3). The
// catalog owns naming — including the fresh-name machinery the propagation
// operator needs when it enlarges a database with renamed result types
// (Definition 9) — while occurrences (the atoms and links themselves) live
// in the storage engine.
package catalog

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"mad/internal/model"
)

// AtomType is a named atom type: at = <aname, ad, av> minus the occurrence
// av, which the storage engine keeps per type number. The catalog hands
// out each atom type's TypeNum, used inside atom identifiers.
type AtomType struct {
	Name string
	Num  model.TypeNum
	Desc *model.Desc
}

// String renders the atom type as a DDL-ish line.
func (t *AtomType) String() string {
	return fmt.Sprintf("ATOM TYPE %s %s", t.Name, t.Desc)
}

// LinkType is a named link type: lt = <lname, ld, lv> minus the occurrence
// lv, kept by the storage engine.
type LinkType struct {
	Name string
	Desc model.LinkDesc
}

// String renders the link type as a DDL-ish line.
func (t *LinkType) String() string {
	s := fmt.Sprintf("LINK TYPE %s BETWEEN %s AND %s", t.Name, t.Desc.SideA, t.Desc.SideB)
	if t.Desc.CardA != model.Unbounded || t.Desc.CardB != model.Unbounded {
		s += fmt.Sprintf(" [%s, %s]", t.Desc.CardA, t.Desc.CardB)
	}
	return s
}

// Schema is the mutable catalog of a database. All methods are safe for
// concurrent use: the storage engine serializes occurrence access, but
// name generation and lookups also happen outside its lock (e.g. from
// concurrent MQL sessions defining molecule types over one database).
type Schema struct {
	mu          sync.RWMutex
	atomsByName map[string]*AtomType
	atomsByNum  map[model.TypeNum]*AtomType
	linksByName map[string]*LinkType
	atomOrder   []string // declaration order, for stable rendering
	linkOrder   []string
	nextNum     int // the next TypeNum NewTypeNum hands out
	fresh       int // counter for generated names
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{
		atomsByName: make(map[string]*AtomType),
		atomsByNum:  make(map[model.TypeNum]*AtomType),
		linksByName: make(map[string]*LinkType),
		nextNum:     1, // type number 0 is reserved so the zero AtomID stays invalid
	}
}

// validName rejects empty names and names that would collide with MQL
// structure syntax (the '-' separator is allowed because the paper's own
// examples use it: "state-area"; parentheses, commas and whitespace are not).
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("catalog: empty name")
	}
	if strings.ContainsAny(name, " \t\n(),;'\"[]") {
		return fmt.Errorf("catalog: name %q contains reserved characters", name)
	}
	return nil
}

// NewTypeNum hands out the next atom-type number — the one place numbers
// are issued. A number whose type never joins the catalog stays a hole;
// running out of numbers is an error, never a wrap-around.
func (s *Schema) NewTypeNum() (model.TypeNum, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nextNum > math.MaxUint16 {
		return 0, fmt.Errorf("catalog: all %d atom-type numbers are in use", math.MaxUint16)
	}
	s.nextNum++
	return model.TypeNum(s.nextNum - 1), nil
}

// AddAtomType declares a new atom type under num, a number NewTypeNum
// handed out (or one a log or snapshot recorded, which moves the counter
// past it). Names are unique across atom types, numbers across the catalog.
func (s *Schema) AddAtomType(name string, num model.TypeNum, desc *model.Desc) (*AtomType, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validName(name); err != nil {
		return nil, err
	}
	if desc == nil {
		return nil, fmt.Errorf("catalog: atom type %q has nil description", name)
	}
	if _, dup := s.atomsByName[name]; dup {
		return nil, fmt.Errorf("catalog: atom type %q already defined", name)
	}
	if _, dup := s.linksByName[name]; dup {
		return nil, fmt.Errorf("catalog: name %q already names a link type", name)
	}
	if _, dup := s.atomsByNum[num]; dup || num == 0 {
		return nil, fmt.Errorf("catalog: atom type %q: type number %d is invalid or taken", name, num)
	}
	at := &AtomType{Name: name, Num: num, Desc: desc}
	s.nextNum = max(s.nextNum, int(num)+1)
	s.atomsByName[name] = at
	s.atomsByNum[at.Num] = at
	s.atomOrder = append(s.atomOrder, name)
	return at, nil
}

// AddLinkType declares a new link type between two existing atom types.
// Several link types may connect the same pair, and a link type may be
// reflexive (Definition 2 commentary).
func (s *Schema) AddLinkType(name string, desc model.LinkDesc) (*LinkType, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validName(name); err != nil {
		return nil, err
	}
	if _, dup := s.linksByName[name]; dup {
		return nil, fmt.Errorf("catalog: link type %q already defined", name)
	}
	if _, dup := s.atomsByName[name]; dup {
		return nil, fmt.Errorf("catalog: name %q already names an atom type", name)
	}
	if _, ok := s.atomsByName[desc.SideA]; !ok {
		return nil, fmt.Errorf("catalog: link type %q references unknown atom type %q", name, desc.SideA)
	}
	if _, ok := s.atomsByName[desc.SideB]; !ok {
		return nil, fmt.Errorf("catalog: link type %q references unknown atom type %q", name, desc.SideB)
	}
	lt := &LinkType{Name: name, Desc: desc}
	s.linksByName[name] = lt
	s.linkOrder = append(s.linkOrder, name)
	return lt, nil
}

// Retract removes name, the type added last: the undo of an AddAtomType
// or AddLinkType whose commit failed. The type number stays a hole.
func (s *Schema) Retract(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at, ok := s.atomsByName[name]; ok {
		delete(s.atomsByName, name)
		delete(s.atomsByNum, at.Num)
		s.atomOrder = s.atomOrder[:len(s.atomOrder)-1]
		return
	}
	delete(s.linksByName, name)
	s.linkOrder = s.linkOrder[:len(s.linkOrder)-1]
}

// AtomType resolves an atom type by name (the atyp function of the paper).
func (s *Schema) AtomType(name string) (*AtomType, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	at, ok := s.atomsByName[name]
	return at, ok
}

// AtomTypeByNum resolves an atom type by its number.
func (s *Schema) AtomTypeByNum(num model.TypeNum) (*AtomType, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	at, ok := s.atomsByNum[num]
	return at, ok
}

// LinkType resolves a link type by name (the ltyp function of the paper).
func (s *Schema) LinkType(name string) (*LinkType, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lt, ok := s.linksByName[name]
	return lt, ok
}

// AtomTypes returns the atom types in declaration order.
func (s *Schema) AtomTypes() []*AtomType {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*AtomType, 0, len(s.atomOrder))
	for _, n := range s.atomOrder {
		out = append(out, s.atomsByName[n])
	}
	return out
}

// LinkTypes returns the link types in declaration order.
func (s *Schema) LinkTypes() []*LinkType {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*LinkType, 0, len(s.linkOrder))
	for _, n := range s.linkOrder {
		out = append(out, s.linksByName[n])
	}
	return out
}

// LinkTypesOf returns every link type that has the named atom type on
// either side, in declaration order. This powers the symmetric "point
// neighborhood" navigation of Fig. 2.
func (s *Schema) LinkTypesOf(atomType string) []*LinkType {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*LinkType
	for _, n := range s.linkOrder {
		if lt := s.linksByName[n]; lt.Desc.Mentions(atomType) {
			out = append(out, lt)
		}
	}
	return out
}

// LinkTypesBetween returns every link type connecting the two named atom
// types (order-insensitive).
func (s *Schema) LinkTypesBetween(a, b string) []*LinkType {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*LinkType
	for _, n := range s.linkOrder {
		lt := s.linksByName[n]
		d := lt.Desc
		if (d.SideA == a && d.SideB == b) || (d.SideA == b && d.SideB == a) {
			out = append(out, lt)
		}
	}
	return out
}

// UniqueLinkBetween resolves the '-' shorthand of MQL: it returns the sole
// link type between two atom types and errs when none or several exist
// ("if there is only one link type defined between two atom types we can
// simplify the syntax ... by using the symbol '-'", Chapter 4).
func (s *Schema) UniqueLinkBetween(a, b string) (*LinkType, error) {
	lts := s.LinkTypesBetween(a, b)
	switch len(lts) {
	case 0:
		return nil, fmt.Errorf("catalog: no link type between %q and %q", a, b)
	case 1:
		return lts[0], nil
	}
	names := make([]string, len(lts))
	for i, lt := range lts {
		names[i] = lt.Name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("catalog: ambiguous link between %q and %q: %s (name the link type explicitly)",
		a, b, strings.Join(names, ", "))
}

// FreshAtomName generates a name not yet used by any type, derived from
// base. Propagation uses it to install "renamed atom types" (Definition 9).
func (s *Schema) FreshAtomName(base string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if base == "" {
		base = "result"
	}
	for {
		s.fresh++
		name := fmt.Sprintf("%s~%d", base, s.fresh)
		if _, ok := s.atomsByName[name]; ok {
			continue
		}
		if _, ok := s.linksByName[name]; ok {
			continue
		}
		return name
	}
}

// FreshLinkName generates an unused link-type name derived from base.
func (s *Schema) FreshLinkName(base string) string {
	return s.FreshAtomName(base) // shared namespace rules
}

// HasName reports whether the name is taken by any atom or link type.
func (s *Schema) HasName(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.atomsByName[name]; ok {
		return true
	}
	_, ok := s.linksByName[name]
	return ok
}

// NumAtomTypes returns the count of declared atom types.
func (s *Schema) NumAtomTypes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.atomsByName)
}

// NumLinkTypes returns the count of declared link types.
func (s *Schema) NumLinkTypes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.linkOrder)
}

// Render prints the schema as DDL, one declaration per line, in
// declaration order — the MAD diagram of Fig. 1 in textual form.
func (s *Schema) Render() string {
	var b strings.Builder
	for _, at := range s.AtomTypes() {
		fmt.Fprintf(&b, "%s;\n", at)
	}
	for _, lt := range s.LinkTypes() {
		fmt.Fprintf(&b, "%s;\n", lt)
	}
	return b.String()
}
