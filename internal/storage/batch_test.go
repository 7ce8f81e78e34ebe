package storage

import (
	"testing"

	"disqo/internal/types"
)

func intRel(vals ...int64) *Relation {
	r := NewRelation(NewSchema("a", "b"))
	for _, v := range vals {
		r.Append([]types.Value{types.NewInt(v), types.NewInt(v * 10)})
	}
	return r
}

func TestBatchRoundTrip(t *testing.T) {
	rel := intRel(1, 2, 3, 4)
	b := NewBatch(rel)
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	got := b.Rows()
	if got.Cardinality() != 4 {
		t.Fatalf("Rows() cardinality = %d, want 4", got.Cardinality())
	}
	for i, row := range got.Tuples {
		for j, v := range row {
			if !types.Equal(v, rel.Tuples[i][j]) {
				t.Fatalf("round trip changed [%d][%d]: %v != %v", i, j, v, rel.Tuples[i][j])
			}
		}
	}
}

func TestBatchTypedColumns(t *testing.T) {
	rel := intRel(7, 8, 9)
	b := NewBatch(rel)
	cv := b.Col(0)
	if cv.Kind != types.KindInt || cv.Ints == nil || cv.Mixed != nil || cv.Nulls != nil {
		t.Fatalf("pure int column did not build a typed vector: %+v", cv)
	}
	for i, want := range []int64{7, 8, 9} {
		if cv.Ints[i] != want {
			t.Fatalf("Ints[%d] = %d, want %d", i, cv.Ints[i], want)
		}
		if !types.Equal(cv.Value(i), types.NewInt(want)) {
			t.Fatalf("Value(%d) != %d", i, want)
		}
	}
}

func TestBatchNullsKeepTypedVector(t *testing.T) {
	r := NewRelation(NewSchema("a"))
	r.Append([]types.Value{types.Null()})
	r.Append([]types.Value{types.NewInt(5)})
	r.Append([]types.Value{types.Null()})
	b := NewBatch(r)
	cv := b.Col(0)
	if cv.Kind != types.KindInt || cv.Nulls == nil {
		t.Fatalf("NULL-bearing int column lost its typed vector: %+v", cv)
	}
	if !cv.Nulls[0] || cv.Nulls[1] || !cv.Nulls[2] {
		t.Fatalf("null mask wrong: %v", cv.Nulls)
	}
	if !cv.Value(0).IsNull() || !types.Equal(cv.Value(1), types.NewInt(5)) {
		t.Fatal("Value() does not reconstruct NULLs")
	}
}

func TestBatchMixedKindDegrades(t *testing.T) {
	r := NewRelation(NewSchema("a"))
	r.Append([]types.Value{types.NewInt(1)})
	r.Append([]types.Value{types.NewString("x")})
	b := NewBatch(r)
	cv := b.Col(0)
	if cv.Mixed == nil {
		t.Fatalf("mixed-kind column should fall back to Mixed: %+v", cv)
	}
	if !types.Equal(cv.Value(0), types.NewInt(1)) || !types.Equal(cv.Value(1), types.NewString("x")) {
		t.Fatal("mixed column does not reproduce values")
	}
}

func TestBatchMaterializeIdempotent(t *testing.T) {
	rel := intRel(1, 2)
	b := NewBatch(rel)
	b.Materialize([]int{0, 1})
	c0 := b.Col(0)
	b.Materialize([]int{0})
	if b.Col(0) != c0 {
		t.Fatal("Materialize rebuilt an already-built column")
	}
}
