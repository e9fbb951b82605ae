package model

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// TypeNum is the small dense number the catalog assigns to each atom type.
// It is embedded in every AtomID so an identifier names both the atom and
// its type ("each atom ... is uniquely identifiable, and belongs to its
// corresponding atom type", Section 2).
type TypeNum uint16

// AtomID is the system-wide unique, immutable identifier of an atom: the
// owning atom type's number in the top 16 bits and a per-type sequence
// number in the low 48 bits. The zero AtomID is invalid and never issued.
type AtomID uint64

// seqBits is the width of the per-type sequence number inside an AtomID.
const seqBits = 48

// MaxSeq is the largest per-type sequence number an AtomID can carry.
const MaxSeq = (uint64(1) << seqBits) - 1

// MakeAtomID composes an identifier from a type number and sequence.
func MakeAtomID(t TypeNum, seq uint64) AtomID {
	return AtomID(uint64(t)<<seqBits | (seq & MaxSeq))
}

// TypeNum extracts the owning atom type's number.
func (id AtomID) TypeNum() TypeNum { return TypeNum(uint64(id) >> seqBits) }

// Seq extracts the per-type sequence number.
func (id AtomID) Seq() uint64 { return uint64(id) & MaxSeq }

// Valid reports whether the identifier was issued (non-zero).
func (id AtomID) Valid() bool { return id != 0 }

// String renders the identifier as "t<type>#<seq>" for diagnostics.
func (id AtomID) String() string { return string(id.Append(nil)) }

// Append appends the text String returns to dst.
func (id AtomID) Append(dst []byte) []byte {
	dst = append(dst, 't')
	dst = strconv.AppendUint(dst, uint64(id.TypeNum()), 10)
	dst = append(dst, '#')
	return strconv.AppendUint(dst, id.Seq(), 10)
}

// AttrDesc describes one attribute of an atom type: a name, a kind and a
// not-null constraint. Attribute descriptions compose into atom-type
// descriptions (Definition 1: "a valid atom-type description consists of a
// set of attribute descriptions").
type AttrDesc struct {
	Name    string
	Kind    Kind
	NotNull bool
}

// String renders the attribute in DDL form.
func (a AttrDesc) String() string {
	s := a.Name + " " + a.Kind.String()
	if a.NotNull {
		s += " NOT NULL"
	}
	return s
}

// Desc is an atom-type description: an ordered list of uniquely named
// attribute descriptions. Its domain — the cartesian product of the
// attribute domains — is the space of valid atoms (Definition 1). Desc is
// immutable after construction and safe for concurrent use.
type Desc struct {
	attrs []AttrDesc
	index map[string]int
}

// NewDesc builds a description from attribute descriptions, rejecting
// duplicate or empty attribute names and invalid kinds.
func NewDesc(attrs ...AttrDesc) (*Desc, error) {
	d := &Desc{
		attrs: make([]AttrDesc, len(attrs)),
		index: make(map[string]int, len(attrs)),
	}
	copy(d.attrs, attrs)
	for i, a := range d.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("model: attribute %d has empty name", i)
		}
		if !a.Kind.Valid() || a.Kind == KNull {
			return nil, fmt.Errorf("model: attribute %q has invalid kind", a.Name)
		}
		if _, dup := d.index[a.Name]; dup {
			return nil, fmt.Errorf("model: duplicate attribute name %q", a.Name)
		}
		d.index[a.Name] = i
	}
	return d, nil
}

// MustDesc is NewDesc that panics on error, for fixtures and tests.
func MustDesc(attrs ...AttrDesc) *Desc {
	d, err := NewDesc(attrs...)
	if err != nil {
		panic(err)
	}
	return d
}

// Len returns the number of attributes.
func (d *Desc) Len() int { return len(d.attrs) }

// Attr returns the i-th attribute description.
func (d *Desc) Attr(i int) AttrDesc { return d.attrs[i] }

// Lookup returns the position of the named attribute.
func (d *Desc) Lookup(name string) (int, bool) {
	i, ok := d.index[name]
	return i, ok
}

// Names returns the attribute names in declaration order.
func (d *Desc) Names() []string {
	ns := make([]string, len(d.attrs))
	for i, a := range d.attrs {
		ns[i] = a.Name
	}
	return ns
}

// Attrs returns a copy of the attribute descriptions.
func (d *Desc) Attrs() []AttrDesc {
	out := make([]AttrDesc, len(d.attrs))
	copy(out, d.attrs)
	return out
}

// Equal reports whether two descriptions declare the same attributes in the
// same order (the atom-type union and difference operations require
// ad1 = ad2, Definition 4).
func (d *Desc) Equal(o *Desc) bool {
	if d.Len() != o.Len() {
		return false
	}
	for i := range d.attrs {
		if d.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// Project returns the sub-description containing the named attributes, in
// the order given (proj(ad) ⊆ ad, Definition 4). Unknown names are errors.
func (d *Desc) Project(names []string) (*Desc, error) {
	attrs := make([]AttrDesc, 0, len(names))
	for _, n := range names {
		i, ok := d.index[n]
		if !ok {
			return nil, fmt.Errorf("model: unknown attribute %q", n)
		}
		attrs = append(attrs, d.attrs[i])
	}
	return NewDesc(attrs...)
}

// Concat returns the union description ad ∪ ad′ used by the cartesian
// product (Definition 4 requires the operand descriptions to be "in pairs
// disjoint"); a name collision is an error.
func (d *Desc) Concat(o *Desc) (*Desc, error) {
	attrs := make([]AttrDesc, 0, d.Len()+o.Len())
	attrs = append(attrs, d.attrs...)
	attrs = append(attrs, o.attrs...)
	return NewDesc(attrs...)
}

// Prefixed returns a copy of the description with every attribute renamed
// to prefix+sep+name; callers use it to establish the disjointness the
// cartesian product requires.
func (d *Desc) Prefixed(prefix, sep string) *Desc {
	attrs := make([]AttrDesc, d.Len())
	for i, a := range d.attrs {
		a.Name = prefix + sep + a.Name
		attrs[i] = a
	}
	nd, err := NewDesc(attrs...)
	if err != nil {
		// Prefixing preserves uniqueness, so this cannot happen.
		panic(err)
	}
	return nd
}

// Disjoint reports whether the two descriptions share no attribute name.
func (d *Desc) Disjoint(o *Desc) bool {
	for n := range o.index {
		if _, clash := d.index[n]; clash {
			return false
		}
	}
	return true
}

// String renders the description as "(a KIND, b KIND, ...)".
func (d *Desc) String() string {
	parts := make([]string, len(d.attrs))
	for i, a := range d.attrs {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Atom is one element of an atom-type occurrence: an identity plus one
// value per attribute of the owning type's description. Atoms are the
// tuple-analogues of the MAD model (Fig. 3). The values slice is owned by
// the atom; callers must not mutate it after handing it over.
type Atom struct {
	ID   AtomID
	Vals []Value
}

// NewAtom builds an atom. The value count must match the description when
// the atom is stored; construction itself does not validate.
func NewAtom(id AtomID, vals ...Value) Atom {
	return Atom{ID: id, Vals: vals}
}

// Get returns the i-th attribute value, or null when out of range.
func (a Atom) Get(i int) Value {
	if i < 0 || i >= len(a.Vals) {
		return Null()
	}
	return a.Vals[i]
}

// Conforms checks the atom against a description: value count, kind
// conformance and not-null constraints.
func (a Atom) Conforms(d *Desc) error {
	if len(a.Vals) != d.Len() {
		return fmt.Errorf("model: atom %v has %d values, description has %d attributes",
			a.ID, len(a.Vals), d.Len())
	}
	for i, v := range a.Vals {
		ad := d.Attr(i)
		if !v.ConformsTo(ad.Kind) {
			return fmt.Errorf("model: atom %v attribute %q: %s value does not conform to %s",
				a.ID, ad.Name, v.Kind(), ad.Kind)
		}
		if ad.NotNull && v.IsNull() {
			return fmt.Errorf("model: atom %v attribute %q: null violates NOT NULL", a.ID, ad.Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	vals := make([]Value, len(a.Vals))
	copy(vals, a.Vals)
	return Atom{ID: a.ID, Vals: vals}
}

// Widened returns a copy of the atom with int values widened to float where
// the description declares a float attribute, canonicalizing storage.
func (a Atom) Widened(d *Desc) Atom {
	out := a.Clone()
	for i := range out.Vals {
		if i < d.Len() {
			out.Vals[i] = out.Vals[i].Widen(d.Attr(i).Kind)
		}
	}
	return out
}

// String renders the atom as "id{a: v, ...}"; attribute names are not
// available here, so values render positionally.
func (a Atom) String() string {
	parts := make([]string, len(a.Vals))
	for i, v := range a.Vals {
		parts[i] = v.String()
	}
	return a.ID.String() + "(" + strings.Join(parts, ", ") + ")"
}

// SortAtomIDs sorts a slice of atom identifiers in place and returns it,
// giving derived sets a canonical order for display and comparison.
func SortAtomIDs(ids []AtomID) []AtomID {
	slices.Sort(ids)
	return ids
}
