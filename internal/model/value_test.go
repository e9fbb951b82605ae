package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() must be null")
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Fatal("Bool(true) round-trip failed")
	}
	if i, ok := Int(-7).AsInt(); !ok || i != -7 {
		t.Fatal("Int(-7) round-trip failed")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Fatal("Float(2.5) round-trip failed")
	}
	if s, ok := Str("x").AsString(); !ok || s != "x" {
		t.Fatal("Str round-trip failed")
	}
	id := MakeAtomID(3, 42)
	if got, ok := ID(id).AsID(); !ok || got != id {
		t.Fatal("ID round-trip failed")
	}
}

func TestValueAccessorKindMismatch(t *testing.T) {
	if _, ok := Str("x").AsInt(); ok {
		t.Fatal("AsInt on string must fail")
	}
	if _, ok := Int(1).AsString(); ok {
		t.Fatal("AsString on int must fail")
	}
	if _, ok := Bool(true).AsFloat(); ok {
		t.Fatal("AsFloat on bool must fail")
	}
	if _, ok := Str("x").AsID(); ok {
		t.Fatal("AsID on string must fail")
	}
}

func TestIntWidensToFloat(t *testing.T) {
	if f, ok := Int(3).AsFloat(); !ok || f != 3.0 {
		t.Fatalf("Int(3).AsFloat() = %v, %v", f, ok)
	}
	if !Int(3).ConformsTo(KFloat) {
		t.Fatal("int must conform to float attribute")
	}
	w := Int(3).Widen(KFloat)
	if w.Kind() != KFloat {
		t.Fatalf("Widen kind = %v", w.Kind())
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Null(), Null(), 0},
		{Null(), Int(0), -1},        // null sorts first
		{Bool(true), Int(-100), -1}, // bool rank below numeric
		{Str("z"), ID(MakeAtomID(1, 1)), -1},
	}
	for _, tc := range tests {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Compare(tc.a); got != -tc.want {
			t.Errorf("Compare(%s, %s) = %d, want %d (antisymmetry)", tc.b, tc.a, got, -tc.want)
		}
	}
}

func TestValueEqualConsistentWithKey(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true), Int(0), Int(1), Int(-5),
		Float(0), Float(1), Float(2.5), Str(""), Str("a"), Str("b"),
		ID(MakeAtomID(1, 1)), ID(MakeAtomID(1, 2)),
	}
	for _, a := range vals {
		for _, b := range vals {
			eq := a.Equal(b)
			keq := a.Key() == b.Key()
			if eq != keq {
				t.Errorf("Equal(%s,%s)=%v but key equality=%v", a, b, eq, keq)
			}
		}
	}
}

func TestNaNKeyCanonical(t *testing.T) {
	k1 := Float(math.NaN()).Key()
	k2 := Float(math.NaN()).Key()
	if k1 != k2 {
		t.Fatal("NaN keys must be canonical")
	}
	if k1 == Float(0).Key() {
		t.Fatal("NaN key must differ from 0")
	}
}

func TestValueCompareTotalOrderProperty(t *testing.T) {
	// Antisymmetry and reflexivity over random int/float/string values.
	f := func(ai int64, af float64, as string, bi int64, bf float64, bs string, pick uint8) bool {
		mk := func(i int64, fl float64, s string, p uint8) Value {
			switch p % 3 {
			case 0:
				return Int(i)
			case 1:
				if math.IsNaN(fl) {
					fl = 0
				}
				return Float(fl)
			default:
				return Str(s)
			}
		}
		a := mk(ai, af, as, pick)
		b := mk(bi, bf, bs, pick/3)
		if a.Compare(a) != 0 || b.Compare(b) != 0 {
			return false
		}
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindParsing(t *testing.T) {
	tests := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"INT", KInt, true}, {"integer", KInt, true}, {"Float", KFloat, true},
		{"REAL", KFloat, true}, {"STRING", KString, true}, {"text", KString, true},
		{"BOOL", KBool, true}, {"ID", KID, true}, {"blob", KNull, false},
	}
	for _, tc := range tests {
		got, ok := KindFromName(tc.in)
		if ok != tc.ok || got != tc.want {
			t.Errorf("KindFromName(%q) = %v, %v", tc.in, got, ok)
		}
	}
	if KInt.String() != "INT" || KString.String() != "STRING" {
		t.Error("Kind.String mismatch")
	}
}

// TestValueString pins the text of every value kind, through String and
// through Append onto a non-empty prefix.
func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Null(), "⊥"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(42), "42"},
		{Int(math.MinInt64), "-9223372036854775808"},
		{Int(math.MaxInt64), "9223372036854775807"},
		{Float(2.5), "2.5"},
		{Float(0), "0"},
		{Float(math.Copysign(0, -1)), "-0"},
		{Float(1e21), "1e+21"},
		{Float(math.NaN()), "NaN"},
		{Float(math.Inf(1)), "+Inf"},
		{Float(math.Inf(-1)), "-Inf"},
		{Str("hi"), `"hi"`},
		{Str("a\"b\\c\nd"), `"a\"b\\c\nd"`},
		{Str("héllo→"), `"héllo→"`},
		{Str("\xff\xfe"), `"\xff\xfe"`},
		{ID(MakeAtomID(math.MaxUint16, MaxSeq)), "t65535#281474976710655"},
		{ID(MakeAtomID(1, 1)), "t1#1"},
	}
	for _, tc := range tests {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.v.Kind(), got, tc.want)
		}
		if got := string(tc.v.Append([]byte("x="))); got != "x="+tc.want {
			t.Errorf("Append(%v) = %q, want %q", tc.v.Kind(), got, "x="+tc.want)
		}
	}
	id := MakeAtomID(math.MaxUint16, MaxSeq)
	if got := string(id.Append([]byte("^"))); got != "^"+id.String() {
		t.Errorf("AtomID.Append = %q", got)
	}
}

func TestConformsToNullAndKinds(t *testing.T) {
	if !Null().ConformsTo(KInt) {
		t.Fatal("null conforms to any kind")
	}
	if Str("x").ConformsTo(KInt) {
		t.Fatal("string must not conform to int")
	}
	if !Float(1).ConformsTo(KFloat) {
		t.Fatal("float conforms to float")
	}
	if Float(1).ConformsTo(KInt) {
		t.Fatal("float must not conform to int (no narrowing)")
	}
}
