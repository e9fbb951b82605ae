// Package model defines the fundamental data structures of the
// molecule-atom data model (MAD): typed attribute values, atom types and
// atoms, link types and links, and the identity scheme that makes atoms
// "uniquely identifiable" basic building blocks (paper, Section 2).
//
// The package is deliberately free of storage or algebra concerns; it is
// the vocabulary shared by the catalog, the storage engine, the atom-type
// algebra and the molecule algebra.
package model

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the attribute data types supported by atom types.
// The paper only requires "attributes of various data types"; this closed
// kind system stands in for Go's limited value polymorphism: every
// attribute value is a Value tagged with one of these kinds.
type Kind uint8

const (
	// KNull is the kind of the absent value.
	KNull Kind = iota
	// KBool is a boolean attribute value.
	KBool
	// KInt is a 64-bit signed integer attribute value.
	KInt
	// KFloat is a 64-bit IEEE-754 attribute value.
	KFloat
	// KString is a UTF-8 string attribute value.
	KString
	// KID is a reference to an atom (an atom identifier). The MAD model
	// expresses relationships through links, not foreign keys, but IDs are
	// still first-class values so result types can carry provenance.
	KID
)

// kindNames indexes Kind to its textual name (also used by the MQL DDL).
var kindNames = [...]string{
	KNull:   "NULL",
	KBool:   "BOOL",
	KInt:    "INT",
	KFloat:  "FLOAT",
	KString: "STRING",
	KID:     "ID",
}

// String returns the DDL spelling of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k <= KID }

// KindFromName parses a DDL type name (case-insensitive) into a Kind.
func KindFromName(name string) (Kind, bool) {
	switch strings.ToUpper(name) {
	case "BOOL", "BOOLEAN":
		return KBool, true
	case "INT", "INTEGER":
		return KInt, true
	case "FLOAT", "REAL", "DOUBLE":
		return KFloat, true
	case "STRING", "TEXT", "CHAR", "VARCHAR":
		return KString, true
	case "ID", "REF":
		return KID, true
	case "NULL":
		return KNull, true
	}
	return KNull, false
}

// Value is a single attribute value: a small tagged union. The zero Value
// is the SQL-style null. Values are immutable; all operations return new
// values.
type Value struct {
	kind Kind
	i    int64 // KInt payload; KBool stores 0/1; KID stores AtomID bits
	f    float64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KBool, i: i}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KFloat, f: f} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KString, s: s} }

// ID returns an atom-identifier value.
func ID(id AtomID) Value { return Value{kind: KID, i: int64(id)} }

// Kind returns the kind tag of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KNull }

// AsBool returns the boolean payload; ok is false if the kind differs.
func (v Value) AsBool() (b, ok bool) {
	if v.kind != KBool {
		return false, false
	}
	return v.i != 0, true
}

// AsInt returns the integer payload; ok is false if the kind differs.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KInt {
		return 0, false
	}
	return v.i, true
}

// AsFloat returns the float payload; integers are widened. ok is false for
// non-numeric kinds.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KFloat:
		return v.f, true
	case KInt:
		return float64(v.i), true
	}
	return 0, false
}

// AsString returns the string payload; ok is false if the kind differs.
func (v Value) AsString() (string, bool) {
	if v.kind != KString {
		return "", false
	}
	return v.s, true
}

// AsID returns the atom-identifier payload; ok is false if the kind differs.
func (v Value) AsID() (AtomID, bool) {
	if v.kind != KID {
		return 0, false
	}
	return AtomID(v.i), true
}

// Equal reports deep equality. Int/float cross-kind comparison follows
// numeric equality (Int(2).Equal(Float(2)) is true); null equals only null.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// Compare totally orders values: null < bool < numeric < string < id, with
// numerics compared by value across the int/float divide. It returns -1, 0
// or +1. The total order makes values usable as sort and index keys.
func (v Value) Compare(w Value) int {
	vr, wr := v.rank(), w.rank()
	if vr != wr {
		return cmpInt(int64(vr), int64(wr))
	}
	switch v.kind {
	case KNull:
		return 0
	case KBool:
		return cmpInt(v.i, w.i)
	case KInt, KFloat:
		if v.kind == KInt && w.kind == KInt {
			return cmpInt(v.i, w.i)
		}
		vf, _ := v.AsFloat()
		wf, _ := w.AsFloat()
		switch {
		case vf < wf:
			return -1
		case vf > wf:
			return 1
		}
		return 0
	case KString:
		return strings.Compare(v.s, w.s)
	case KID:
		return cmpInt(v.i, w.i)
	}
	return 0
}

// rank groups kinds for the cross-kind total order; int and float share a
// rank so they compare numerically.
func (v Value) rank() int {
	switch v.kind {
	case KNull:
		return 0
	case KBool:
		return 1
	case KInt, KFloat:
		return 2
	case KString:
		return 3
	case KID:
		return 4
	}
	return 5
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Key is a comparable projection of a Value, suitable as a Go map key for
// hash indexes and duplicate elimination. Numerically equal int/float
// values produce the same key.
type Key struct {
	Rank int
	I    int64
	F    float64
	S    string
}

// Key returns the comparable key of the value. Integers use their float64
// image so that keys agree with Compare, which orders int against float by
// numeric value (both therefore share float64 precision).
func (v Value) Key() Key {
	k := Key{Rank: v.rank()}
	switch v.kind {
	case KBool, KID:
		k.I = v.i
	case KInt:
		k.F = float64(v.i)
	case KFloat:
		if math.IsNaN(v.f) {
			// NaN is not equal to itself under ==; canonicalize so NaN
			// values behave as a single key in maps.
			k.I = 1
		} else {
			k.F = v.f
		}
	case KString:
		k.S = v.s
	}
	return k
}

// String renders the value for diagnostics and result display. Strings are
// quoted; null renders as "⊥".
func (v Value) String() string { return string(v.Append(nil)) }

// Append appends the text String returns to dst, allocating nothing
// beyond dst's growth.
func (v Value) Append(dst []byte) []byte {
	switch v.kind {
	case KNull:
		return append(dst, "⊥"...)
	case KBool:
		return strconv.AppendBool(dst, v.i != 0)
	case KInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KString:
		return strconv.AppendQuote(dst, v.s)
	case KID:
		return AtomID(v.i).Append(dst)
	}
	return append(dst, '?')
}

// ConformsTo reports whether the value may be stored in an attribute of
// kind k: the kinds must match, or the value is null, or an int value is
// stored into a float attribute (implicit widening).
func (v Value) ConformsTo(k Kind) bool {
	if v.kind == KNull {
		return true
	}
	if v.kind == k {
		return true
	}
	return v.kind == KInt && k == KFloat
}

// Widen converts the value to kind k when ConformsTo allows an implicit
// conversion (int→float); otherwise it returns the value unchanged.
func (v Value) Widen(k Kind) Value {
	if v.kind == KInt && k == KFloat {
		return Float(float64(v.i))
	}
	return v
}
