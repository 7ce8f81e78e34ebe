package types

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INTEGER",
		KindFloat:  "DOUBLE",
		KindString: "VARCHAR",
		KindBool:   "BOOLEAN",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero Value kind = %v", v.Kind())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int() = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float() = %g", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("Str() = %q", got)
	}
	if got := NewBool(true).Bool(); got != true {
		t.Errorf("Bool() = %v", got)
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on a string must panic")
		}
	}()
	_ = NewString("x").Int()
}

func TestAsFloat(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Errorf("AsFloat(int 3) = %g, %v", f, ok)
	}
	if f, ok := NewFloat(1.5).AsFloat(); !ok || f != 1.5 {
		t.Errorf("AsFloat(1.5) = %g, %v", f, ok)
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("AsFloat(string) must fail")
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("AsFloat(NULL) must fail")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.25), "1.25"},
		{NewString("hi"), "'hi'"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{NewInt(1), NewInt(2), -1, true},
		{NewInt(2), NewInt(2), 0, true},
		{NewInt(3), NewInt(2), 1, true},
		{NewInt(1), NewFloat(1.0), 0, true},
		{NewInt(1), NewFloat(1.5), -1, true},
		{NewFloat(2.5), NewInt(2), 1, true},
		{NewString("a"), NewString("b"), -1, true},
		{NewString("b"), NewString("b"), 0, true},
		{NewBool(false), NewBool(true), -1, true},
		{NewBool(true), NewBool(true), 0, true},
		{Null(), NewInt(1), 0, false},
		{NewInt(1), Null(), 0, false},
		{NewInt(1), NewString("1"), 0, false},
		{NewBool(true), NewInt(1), 0, false},
	}
	for _, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d, %v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestEqualVsIdentical(t *testing.T) {
	if _, ok := Compare(Null(), Null()); ok {
		t.Error("NULL = NULL must be unknown")
	}
	if !Identical(Null(), Null()) {
		t.Error("Identical(NULL, NULL) must be true")
	}
	if Identical(Null(), NewInt(0)) {
		t.Error("Identical(NULL, 0) must be false")
	}
	if !Identical(NewInt(5), NewFloat(5)) {
		t.Error("Identical(5, 5.0) must be true")
	}
	if Identical(NewInt(5), NewString("5")) {
		t.Error("Identical(5, '5') must be false")
	}
}

func TestHashConsistentWithIdentical(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(7), NewFloat(7)},
		{Null(), Null()},
		{NewString("abc"), NewString("abc")},
		{NewBool(true), NewBool(true)},
		{NewFloat(-0.0), NewFloat(0.0)},
		{NewInt(0), NewFloat(-0.0)},
	}
	for _, p := range pairs {
		if !Identical(p[0], p[1]) {
			t.Errorf("expected Identical(%v, %v)", p[0], p[1])
			continue
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("Hash mismatch for identical values %v and %v", p[0], p[1])
		}
	}
}

func TestHashDistributes(t *testing.T) {
	seen := map[uint64]bool{}
	for i := int64(0); i < 1000; i++ {
		h := NewInt(i).Hash()
		if seen[h] {
			t.Fatalf("hash collision within 1000 consecutive ints at %d", i)
		}
		seen[h] = true
	}
}

func TestHashIdenticalProperty(t *testing.T) {
	f := func(x int64) bool {
		a, b := NewInt(x), NewFloat(float64(x))
		if float64(x) != math.Trunc(float64(x)) {
			return true
		}
		if int64(float64(x)) != x {
			return true // not exactly representable; Identical may still hold but skip
		}
		return a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashTupleOrderSensitive(t *testing.T) {
	a := []Value{NewInt(1), NewInt(2)}
	b := []Value{NewInt(2), NewInt(1)}
	if HashTuple(a) == HashTuple(b) {
		t.Error("HashTuple should be order-sensitive")
	}
	if HashTuple(a) != HashTuple([]Value{NewInt(1), NewInt(2)}) {
		t.Error("HashTuple must be deterministic")
	}
}

// TestValueIs32Bytes pins the layout: a kind, one payload word and the
// string. Rows are slices of Values, so every byte here is paid per cell.
func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want <= 32", n)
	}
}

// boundaryGrid holds the numbers around which float64 stops being able
// to tell integers apart (±2⁵³), the ends of int64 (±2⁶³), the zeroes,
// the infinities and NaN, beside NULL and the non-numeric kinds.
func boundaryGrid() []Value {
	const two53 = int64(1) << 53
	g := []Value{Null(), NewString("a"), NewString(""), NewBool(true), NewBool(false),
		NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000001)), // two NaN payloads
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.Copysign(0, -1)), NewFloat(0),
		NewFloat(0.5), NewFloat(-0.5), NewFloat(1 << 63), NewFloat(-(1 << 63)),
		NewFloat(math.Nextafter(1<<63, 0)), NewFloat(math.Nextafter(-(1 << 63), -math.MaxFloat64)),
		NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1), NewInt(math.MinInt64), NewInt(math.MinInt64 + 1)}
	for _, s := range []int64{1, -1} {
		for d := int64(-2); d <= 2; d++ {
			g = append(g, NewInt(s*two53+d), NewFloat(float64(s*two53)+float64(d)))
		}
	}
	for d := int64(-1); d <= 1; d++ {
		g = append(g, NewInt(d), NewFloat(float64(d)))
	}
	return g
}

// TestIdenticalHashAndOrderOnBoundaryGrid: Identical implies equal
// hashes and is transitive, and OrderValues is a total preorder, on
// every pair and triple of the grid — the properties hash grouping,
// DISTINCT and hash joins need to agree with the nested-loop plan.
func TestIdenticalHashAndOrderOnBoundaryGrid(t *testing.T) {
	g := boundaryGrid()
	for _, a := range g {
		if !Identical(a, a) || OrderValues(a, a) != 0 {
			t.Errorf("%v is not identical to itself", a)
		}
		for _, b := range g {
			ab := Identical(a, b)
			if ab != Identical(b, a) {
				t.Errorf("Identical(%v, %v) is not symmetric", a, b)
			}
			if ab && a.Hash() != b.Hash() {
				t.Errorf("Identical(%v, %v) but hashes %#x and %#x", a, b, a.Hash(), b.Hash())
			}
			if ab != (OrderValues(a, b) == 0) {
				t.Errorf("Identical(%v, %v) = %v but OrderValues = %d", a, b, ab, OrderValues(a, b))
			}
			if OrderValues(a, b) != -OrderValues(b, a) {
				t.Errorf("OrderValues(%v, %v) = %d, reversed %d", a, b, OrderValues(a, b), OrderValues(b, a))
			}
			for _, c := range g {
				if ab && Identical(b, c) && !Identical(a, c) {
					t.Errorf("Identical is not transitive on %v, %v, %v", a, b, c)
				}
				if OrderValues(a, b) <= 0 && OrderValues(b, c) <= 0 && OrderValues(a, c) > 0 {
					t.Errorf("OrderValues is not transitive on %v <= %v <= %v", a, b, c)
				}
			}
		}
	}
}

// TestIntFloatCompareIsExact: the two pairs the float64 widening used to
// equate, with the hashes that gave it away.
func TestIntFloatCompareIsExact(t *testing.T) {
	cases := []struct {
		i    int64
		f    float64
		want int
	}{
		{9007199254740993, 9007199254740992, 1}, // 2⁵³+1 vs 2⁵³.0
		{9007199254740992, 9007199254740992, 0},
		{math.MaxInt64, 9223372036854775808, -1}, // 2⁶³-1 vs 2⁶³.0
		{math.MinInt64, -9223372036854775808, 0},
		{3, 3.5, -1}, {4, 3.5, 1}, {-3, -3.5, 1}, {-4, -3.5, -1}, {0, math.Copysign(0, -1), 0},
		{5, math.Inf(1), -1}, {5, math.Inf(-1), 1}, {5, math.NaN(), -1},
	}
	for _, c := range cases {
		i, f := NewInt(c.i), NewFloat(c.f)
		if got, ok := Compare(i, f); !ok || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", i, f, got, ok, c.want)
		}
		if got, ok := Compare(f, i); !ok || got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", f, i, got, ok, -c.want)
		}
		if (c.want == 0) != (i.Hash() == f.Hash()) {
			t.Errorf("%v and %v: equal %v, hashes %#x and %#x", i, f, c.want == 0, i.Hash(), f.Hash())
		}
	}
}
