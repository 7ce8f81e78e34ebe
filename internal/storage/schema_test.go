package storage

import (
	"slices"
	"testing"
	"testing/quick"

	"disqo/internal/types"
)

func ints(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(v)
	}
	return out
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("r.a", "r.b", "r.c")
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Index("r.b") != 1 || s.Index("nope") != -1 {
		t.Error("Index wrong")
	}
	if !s.Has("r.c") || s.Has("r.d") {
		t.Error("Has wrong")
	}
	if s.Attr(0) != "r.a" {
		t.Error("Attr wrong")
	}
	if s.String() != "[r.a, r.b, r.c]" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attribute must panic")
		}
	}()
	NewSchema("a", "a")
}

func TestSchemaConcatExtendRename(t *testing.T) {
	s := NewSchema("a", "b")
	o := NewSchema("c")
	cat := s.Concat(o)
	if cat.String() != "[a, b, c]" {
		t.Errorf("Concat = %s", cat)
	}
	ext := s.Extend("g")
	if ext.String() != "[a, b, g]" {
		t.Errorf("Extend = %s", ext)
	}
	ren, err := s.Rename("b", "b2")
	if err != nil || ren.String() != "[a, b2]" {
		t.Errorf("Rename = %s (%v)", ren, err)
	}
	if _, err := s.Rename("zz", "x"); err == nil {
		t.Error("renaming a missing attribute must error")
	}
	// Originals untouched.
	if s.String() != "[a, b]" {
		t.Error("Rename mutated the source schema")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := NewSchema("x", "y")
	b := NewSchema("x", "y")
	c := NewSchema("y", "x")
	if !a.Equal(b) || a.Equal(c) || a.Equal(NewSchema("x")) {
		t.Error("Equal wrong")
	}
}

func TestSchemaProjection(t *testing.T) {
	s := NewSchema("a", "b", "c")
	idx := make([]int, 2)
	if err := s.Projection(idx, []string{"c", "a"}); err != nil || idx[0] != 2 || idx[1] != 0 {
		t.Errorf("Projection = %v (%v)", idx, err)
	}
	if err := s.Projection(idx[:1], []string{"zz"}); err == nil {
		t.Error("missing attribute must error")
	}
}

func TestRelationAppendArity(t *testing.T) {
	r := NewRelation(NewSchema("a", "b"))
	r.Append(ints(1, 2))
	if r.Cardinality() != 1 {
		t.Fatal("append failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	r.Append(ints(1))
}

func TestRelationDistinct(t *testing.T) {
	r := NewRelation(NewSchema("a", "b"))
	r.Append(ints(1, 2))
	r.Append(ints(1, 2))
	r.Append(ints(2, 1))
	r.Append([]types.Value{types.Null(), types.NewInt(1)})
	r.Append([]types.Value{types.Null(), types.NewInt(1)})
	d := r.Distinct()
	if d.Cardinality() != 3 {
		t.Fatalf("Distinct kept %d tuples, want 3:\n%s", d.Cardinality(), d)
	}
	// Source unchanged; first-seen order preserved.
	if r.Cardinality() != 5 {
		t.Error("Distinct mutated its input")
	}
	if !slices.EqualFunc(d.Tuples[0], ints(1, 2), types.Identical) {
		t.Error("Distinct did not preserve first-seen order")
	}
}

// TestRelationDistinctSharesDuplicateFreeInput: a relation with no
// duplicate comes back with its own tuple slice; one whose first
// duplicate is its second row or its last, or whose duplicates are NULL
// rows, comes back as its first-seen rows in a slice of its own; an
// empty one comes back empty.
func TestRelationDistinctSharesDuplicateFreeInput(t *testing.T) {
	rel := func(rows ...[]types.Value) *Relation {
		r := NewRelation(NewSchema("a", "b"))
		for _, row := range rows {
			r.Append(row)
		}
		return r
	}
	null := []types.Value{types.Null(), types.NewInt(1)}
	for _, c := range []struct {
		name string
		in   *Relation
		want [][]types.Value
	}{
		{"no duplicate", rel(ints(1, 2), ints(2, 1), null), [][]types.Value{ints(1, 2), ints(2, 1), null}},
		{"the second row repeats the first", rel(ints(1, 2), ints(1, 2), ints(2, 1)), [][]types.Value{ints(1, 2), ints(2, 1)}},
		{"the last row repeats one", rel(ints(1, 2), ints(2, 1), ints(3, 3), ints(2, 1)), [][]types.Value{ints(1, 2), ints(2, 1), ints(3, 3)}},
		{"NULL rows repeat", rel(null, ints(2, 1), null), [][]types.Value{null, ints(2, 1)}},
		{"empty", rel(), nil},
	} {
		d := c.in.Distinct()
		if len(d.Tuples) != len(c.want) {
			t.Fatalf("%s: %d rows, want %d:\n%s", c.name, len(d.Tuples), len(c.want), d)
		}
		for i, row := range c.want {
			if !slices.EqualFunc(d.Tuples[i], row, types.Identical) {
				t.Errorf("%s: row %d is %v, want %v", c.name, i, d.Tuples[i], row)
			}
		}
		shared := len(d.Tuples) > 0 && &d.Tuples[0] == &c.in.Tuples[0]
		if dupFree := len(c.want) == len(c.in.Tuples); shared != (dupFree && len(c.want) > 0) {
			t.Errorf("%s: output shares the input's slice: %v", c.name, shared)
		}
		if d.Schema != c.in.Schema {
			t.Errorf("%s: schema %s, want the input's", c.name, d.Schema)
		}
	}
}

func TestRelationSortBy(t *testing.T) {
	r := NewRelation(NewSchema("a", "b"))
	r.Append(ints(2, 1))
	r.Append(ints(1, 2))
	r.Append(ints(1, 1))
	r.Append([]types.Value{types.Null(), types.NewInt(9)})
	r.SortBy([]int{0, 1}, []bool{false, true})
	want := [][]types.Value{
		{types.Null(), types.NewInt(9)},
		ints(1, 2),
		ints(1, 1),
		ints(2, 1),
	}
	for i := range want {
		if !slices.EqualFunc(r.Tuples[i], want[i], types.Identical) {
			t.Fatalf("row %d = %s, want %s", i,
				types.FormatTuple(r.Tuples[i]), types.FormatTuple(want[i]))
		}
	}
}

func TestRelationCloneIndependence(t *testing.T) {
	r := NewRelation(NewSchema("a"))
	r.Append(ints(1))
	c := r.Clone()
	c.Append(ints(2))
	if r.Cardinality() != 1 || c.Cardinality() != 2 {
		t.Error("Clone shares the tuple slice")
	}
	// Deep copy: mutating a cloned row must not reach the original.
	c.Tuples[0][0] = types.NewInt(99)
	if !slices.EqualFunc(r.Tuples[0], ints(1), types.Identical) {
		t.Error("Clone shares row storage; mutation aliased the original")
	}
}

func TestRelationCanonical(t *testing.T) {
	r := NewRelation(NewSchema("a"))
	r.Append(ints(2))
	r.Append(ints(1))
	got := r.Canonical()
	if len(got) != 2 || got[0] != "(1)" || got[1] != "(2)" {
		t.Errorf("Canonical = %v", got)
	}
}

// Property tests on relation invariants (testing/quick).

func TestDistinctIdempotentProperty(t *testing.T) {
	f := func(data []int16) bool {
		r := NewRelation(NewSchema("a", "b"))
		for i := 0; i+1 < len(data); i += 2 {
			v1 := types.NewInt(int64(data[i] % 4))
			v2 := types.NewInt(int64(data[i+1] % 4))
			if data[i]%7 == 0 {
				v1 = types.Null()
			}
			r.Append([]types.Value{v1, v2})
		}
		d1 := r.Distinct()
		d2 := d1.Distinct()
		if d1.Cardinality() != d2.Cardinality() {
			return false
		}
		// Every distinct tuple appears in the original and vice versa.
		for _, tup := range d1.Tuples {
			found := false
			for _, orig := range r.Tuples {
				if slices.EqualFunc(tup, orig, types.Identical) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return d1.Cardinality() <= r.Cardinality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortByPermutationProperty(t *testing.T) {
	f := func(data []int16, desc bool) bool {
		r := NewRelation(NewSchema("a"))
		for _, d := range data {
			v := types.NewInt(int64(d))
			if d%11 == 0 {
				v = types.Null()
			}
			r.Append([]types.Value{v})
		}
		before := r.Canonical() // sorted rendering = multiset fingerprint
		r.SortBy([]int{0}, []bool{desc})
		after := r.Canonical()
		for i := range before {
			if before[i] != after[i] {
				return false // sort must be a permutation
			}
		}
		// Order must be monotone under OrderValues.
		for i := 1; i < len(r.Tuples); i++ {
			c := types.OrderValues(r.Tuples[i-1][0], r.Tuples[i][0])
			if (!desc && c > 0) || (desc && c < 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
