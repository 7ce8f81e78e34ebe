// Package types implements the SQL value system used throughout disqo:
// typed scalar values, NULL, three-valued logic, comparison, hashing, and
// formatting. All operators, the expression evaluator, and the storage
// layer exchange data as Value slices.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL marker; a NULL Value carries no payload.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float (SQL DOUBLE / DECIMAL stand-in).
	KindFloat
	// KindString is a variable-length character string.
	KindString
	// KindBool is a boolean (result of predicates stored as values).
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL scalar. The zero Value is NULL.
//
// Value is a small value type passed by copy, 32 bytes wide: the kind,
// one 64-bit payload word n — the integer, the float's IEEE bits, or 0/1
// for a boolean — and the string. Every row the engine holds is a slice
// of these, so the width is the unit of most of its memory traffic.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the runtime type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics when v is not an integer,
// so it is reserved for internal invariants (values the engine itself
// produced with a known kind); code handling user data takes IntOk.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return int64(v.n)
}

// IntOk returns the integer payload and whether v is an integer — the
// checked accessor for executor-facing paths, where a kind mismatch is
// bad user data, not a bug, and must surface as an error.
func (v Value) IntOk() (int64, bool) { return int64(v.n), v.kind == KindInt }

// Float returns the float payload. It panics when v is not a float;
// reserved for internal invariants — executor-facing code uses FloatOk
// or AsFloat.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
	return math.Float64frombits(v.n)
}

// FloatOk returns the float payload and whether v is a float (no
// coercion; see AsFloat for int→float widening).
func (v Value) FloatOk() (float64, bool) {
	return math.Float64frombits(v.n), v.kind == KindFloat
}

// Str returns the string payload. It panics when v is not a string;
// reserved for internal invariants — executor-facing code uses StrOk.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s
}

// StrOk returns the string payload and whether v is a string.
func (v Value) StrOk() (string, bool) { return v.s, v.kind == KindString }

// Bool returns the boolean payload. It panics when v is not a boolean;
// reserved for internal invariants — executor-facing code uses BoolOk.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.n != 0
}

// BoolOk returns the boolean payload and whether v is a boolean.
func (v Value) BoolOk() (bool, bool) { return v.n != 0, v.kind == KindBool }

// IsNumeric reports whether v is an integer or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat coerces a numeric value to float64. The second result is false
// for non-numeric values (including NULL).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.n)), true
	case KindFloat:
		return math.Float64frombits(v.n), true
	default:
		return 0, false
	}
}

// String renders the value the way the CLI and EXPLAIN output print it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		return "'" + v.s + "'"
	case KindBool:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.kind))
	}
}

// Compare orders two non-NULL values: -1, 0, +1. Numeric values compare
// across int/float exactly — an integer is never widened to float64, so
// 2⁵³+1 and 2⁵³.0 differ and equality stays transitive and consistent
// with Hash — and NaN equals itself and sorts above every other number.
// The boolean false sorts before true. Comparing a NULL or incompatible
// kinds returns ok=false; SQL comparison semantics on NULLs live in
// Compare3VL.
func Compare(a, b Value) (cmp int, ok bool) {
	switch {
	case a.kind == KindNull || b.kind == KindNull:
		return 0, false
	case a.kind == KindInt && b.kind == KindInt:
		return order(int64(a.n), int64(b.n)), true
	case a.kind == KindInt && b.kind == KindFloat:
		return cmpIntFloat(int64(a.n), math.Float64frombits(b.n)), true
	case a.kind == KindFloat && b.kind == KindInt:
		return -cmpIntFloat(int64(b.n), math.Float64frombits(a.n)), true
	case a.kind != b.kind:
		return 0, false
	}
	switch a.kind {
	case KindFloat:
		af, bf := math.Float64frombits(a.n), math.Float64frombits(b.n)
		if af != af || bf != bf {
			return order(b2i(af != af), b2i(bf != bf)), true
		}
		return order(af, bf), true
	case KindString:
		return strings.Compare(a.s, b.s), true
	default: // KindBool
		return order(a.n, b.n), true
	}
}

func order[T int64 | uint64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cmpIntFloat orders an integer against a float without rounding the
// integer: outside [-2⁶³, 2⁶³) the float's sign decides, inside it the
// float's integral part is an exact int64 and the fraction breaks ties.
func cmpIntFloat(i int64, f float64) int {
	const two63 = 1 << 63
	switch {
	case f != f || f >= two63:
		return -1
	case f < -two63:
		return 1
	}
	t := math.Trunc(f)
	if c := order(i, int64(t)); c != 0 {
		return c
	}
	return order(0, f-t)
}

// Equal reports strict SQL equality of two values; NULL never equals
// anything (use Identical for grouping/dedup semantics).
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Identical implements the "IS NOT DISTINCT FROM" relation used by
// grouping, duplicate elimination, and set operations: NULL is identical
// to NULL, and otherwise values are identical when they compare equal.
func Identical(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return a.kind == b.kind
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Hash returns a 64-bit hash consistent with Identical: identical values
// hash equally (ints and floats representing the same number collide on
// purpose).
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	switch v.kind {
	case KindNull:
		mix(0)
	case KindInt, KindFloat:
		// Numerically equal ints and floats must hash equally (they are
		// Identical). Integral floats hash via their int64 form; all
		// other numerics hash their float64 bit pattern.
		bits := v.n
		if v.kind == KindFloat {
			if f := math.Float64frombits(v.n); f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
				bits = uint64(int64(f))
			} else if f != f {
				bits = math.Float64bits(math.NaN()) // every NaN payload is one value
			}
		}
		mix(1)
		for i := 0; i < 8; i++ {
			mix(byte(bits >> (8 * i)))
		}
	case KindString:
		mix(2)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindBool:
		mix(3)
		mix(byte(v.n))
	}
	return h
}

// HashTuple combines the hashes of a value slice (a tuple or key prefix).
func HashTuple(vs []Value) uint64 {
	h, _ := hashKey(vs, nil, false)
	return h
}

// TuplesIdentical reports element-wise Identical over two equal-length
// value slices.
func TuplesIdentical(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}
