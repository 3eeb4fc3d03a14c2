// Package tuple defines the value and tuple model shared by every layer of
// the engine: typed scalar values with a total order, and tuples of values.
//
// LogiQL encourages sixth normal form, so predicates are narrow: a tuple is
// a short sequence of scalar values. Values are deliberately a small value
// type (no heap indirection for numbers) because join inner loops compare
// millions of them.
package tuple

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds supported by the engine. The ordering of the constants
// defines the cross-kind collation order used by Compare.
const (
	KindNull Kind = iota // absence marker; sorts before everything
	KindBool
	KindInt
	KindFloat
	KindString
	KindEntity // user-defined entity type: an interned (type id, ordinal) pair
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindEntity:
		return "entity"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a scalar LogiQL value. The zero Value is the null value.
//
// Representation: numeric payloads live in num (ints as-is, floats via
// math.Float64bits, bools as 0/1, entities as typeID<<32|ordinal); strings
// live in str. Values are comparable with == only within the same kind and
// should normally be compared with Compare or Equal.
type Value struct {
	kind Kind
	num  uint64
	str  string
}

// Null is the null value (zero Value).
var Null = Value{}

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Entity returns an entity value belonging to entity type typeID with the
// given ordinal (its index in the entity domain).
func Entity(typeID uint32, ordinal uint32) Value {
	return Value{kind: KindEntity, num: uint64(typeID)<<32 | uint64(ordinal)}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload. It panics if v is not a bool.
func (v Value) AsBool() bool {
	v.mustBe(KindBool)
	return v.num != 0
}

// AsInt returns the integer payload. It panics if v is not an int.
func (v Value) AsInt() int64 {
	v.mustBe(KindInt)
	return int64(v.num)
}

// AsFloat returns the float payload. It panics if v is not a float.
func (v Value) AsFloat() float64 {
	v.mustBe(KindFloat)
	return math.Float64frombits(v.num)
}

// AsString returns the string payload. It panics if v is not a string.
func (v Value) AsString() string {
	v.mustBe(KindString)
	return v.str
}

// EntityType returns the entity type id. It panics if v is not an entity.
func (v Value) EntityType() uint32 {
	v.mustBe(KindEntity)
	return uint32(v.num >> 32)
}

// EntityOrdinal returns the entity ordinal. It panics if v is not an entity.
func (v Value) EntityOrdinal() uint32 {
	v.mustBe(KindEntity)
	return uint32(v.num)
}

// Numeric reports whether v is an int or float, and if so returns its
// value widened to float64.
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num)), true
	case KindFloat:
		return math.Float64frombits(v.num), true
	default:
		return 0, false
	}
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("tuple: value is %s, not %s", v.kind, k))
	}
}

// Compare totally orders values. Values of different kinds order by kind;
// within a kind the natural order applies, and among floats every NaN
// orders above every other float and equal to every NaN (CompareFloats).
// This total order is what the trie iterators and leapfrog joins seek
// over.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindInt:
		ai, bi := int64(a.num), int64(b.num)
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	case KindFloat:
		return CompareFloats(math.Float64frombits(a.num), math.Float64frombits(b.num))
	case KindString:
		switch {
		case a.str < b.str:
			return -1
		case a.str > b.str:
			return 1
		}
		return 0
	default: // bool, entity: payload order
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	}
}

// CompareFloats totally orders float64s: numerically, with -0 equal to
// 0, and every NaN above every other float and equal to every NaN,
// whatever its payload (as AppendKey encodes NaNs alike).
func CompareFloats(a, b float64) int {
	aNaN, bNaN := a != a, b != b
	switch {
	case a < b || bNaN && !aNaN:
		return -1
	case a > b || aNaN && !bNaN:
		return 1
	}
	return 0
}

// Equal reports whether a and b are the same value.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Less reports whether a orders strictly before b.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// Hash returns a 64-bit hash of the value, used to derive treap priorities
// (the unique-representation property requires the priority to be a pure
// function of the key). Values that Compare equal hash alike: a float zero
// hashes as +0 and every NaN as one NaN, as AppendKey encodes them.
func (v Value) Hash() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	h = fnv1aByte(h, byte(v.kind))
	switch v.kind {
	case KindString:
		for i := 0; i < len(v.str); i++ {
			h = fnv1aByte(h, v.str[i])
		}
	default:
		n := v.num
		switch f := math.Float64frombits(n); {
		case v.kind != KindFloat:
		case f == 0:
			n = 0 // -0.0 compares equal to 0.0
		case f != f:
			n = math.Float64bits(math.NaN()) // so do NaNs of any payload
		}
		for i := 0; i < 8; i++ {
			h = fnv1aByte(h, byte(n))
			n >>= 8
		}
	}
	// Finalize with a strong mix (splitmix64) so sequential ints do not
	// produce correlated treap priorities.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func fnv1aByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= 1099511628211
	return h
}

// String renders the value in LogiQL literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str)
	case KindEntity:
		return fmt.Sprintf("@%d:%d", uint32(v.num>>32), uint32(v.num))
	default:
		return "?"
	}
}

// MinValue is a value ordering before every other value of any kind
// (it is the null value; used as the -infinity bound of intervals).
func MinValue() Value { return Value{} }

// MaxValue returns a sentinel ordering after every ordinary value.
func MaxValue() Value { return Value{kind: KindEntity, num: math.MaxUint64, str: ""} }

// Successor returns the smallest representable value strictly greater
// than v within its kind (dense virtual predicates use it to advance).
func Successor(v Value) Value {
	switch v.kind {
	case KindBool:
		if v.num == 0 {
			return Bool(true)
		}
		return Int(math.MinInt64) // past bools: the first int
	case KindInt:
		if int64(v.num) == math.MaxInt64 {
			return Value{kind: KindFloat, num: math.Float64bits(math.Inf(-1))}
		}
		return Int(int64(v.num) + 1)
	case KindFloat:
		f := math.Float64frombits(v.num)
		return Float(math.Nextafter(f, math.Inf(1)))
	case KindString:
		return String(v.str + "\x00")
	case KindEntity:
		return Value{kind: KindEntity, num: v.num + 1}
	default: // null: the first bool
		return Bool(false)
	}
}
