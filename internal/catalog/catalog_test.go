package catalog

import (
	"reflect"
	"slices"
	"testing"

	"disqo/internal/storage"
	"disqo/internal/types"
)

func rstColumns() []Column {
	return []Column{
		{Name: "a1", Type: types.KindInt},
		{Name: "a2", Type: types.KindInt},
		{Name: "a3", Type: types.KindInt},
		{Name: "a4", Type: types.KindInt},
	}
}

func TestCreateLookupDrop(t *testing.T) {
	c := New()
	tbl, err := c.Create("R", rstColumns())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rel.Schema.String() != "[r.a1, r.a2, r.a3, r.a4]" {
		t.Errorf("schema = %s", tbl.Rel.Schema)
	}
	got, err := c.Lookup("r")
	if err != nil || got != tbl {
		t.Error("case-insensitive lookup failed")
	}
	if _, err := c.Lookup("missing"); err == nil {
		t.Error("lookup of missing table must error")
	}
	if _, err := c.Create("r", rstColumns()); err == nil {
		t.Error("duplicate create must error")
	}
	if err := c.Drop("R"); err != nil {
		t.Error(err)
	}
	if err := c.Drop("R"); err == nil {
		t.Error("double drop must error")
	}
}

func TestCreateValidation(t *testing.T) {
	c := New()
	if _, err := c.Create("empty", nil); err == nil {
		t.Error("zero-column table must error")
	}
	if _, err := c.Create("dup", []Column{
		{Name: "x", Type: types.KindInt}, {Name: "X", Type: types.KindInt},
	}); err == nil {
		t.Error("duplicate column (case-insensitive) must error")
	}
}

func TestNames(t *testing.T) {
	c := New()
	c.Create("zeta", rstColumns())
	c.Create("alpha", rstColumns())
	names := c.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("Names = %v", names)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	c := New()
	tbl, _ := c.Create("t", []Column{
		{Name: "n", Type: types.KindInt},
		{Name: "s", Type: types.KindString},
	})
	if err := tbl.Insert([]types.Value{types.NewInt(1), types.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]types.Value{types.Null(), types.Null()}); err != nil {
		t.Errorf("NULLs must be insertable: %v", err)
	}
	if err := tbl.Insert([]types.Value{types.NewString("bad"), types.NewString("x")}); err == nil {
		t.Error("type mismatch must error")
	}
	if err := tbl.Insert([]types.Value{types.NewInt(1)}); err == nil {
		t.Error("arity mismatch must error")
	}
	// Numeric coercion: a float into an int column is accepted.
	if err := tbl.Insert([]types.Value{types.NewFloat(2.5), types.NewString("y")}); err != nil {
		t.Errorf("numeric cross-kind insert should pass: %v", err)
	}
	if tbl.Rel.Cardinality() != 3 {
		t.Errorf("cardinality = %d", tbl.Rel.Cardinality())
	}
}

// TestStatsComputationAndCaching: a column's statistics count NULL as a
// value, give a string column no range, are computed once per table
// version, and are dropped by the builder path's in-place writes.
func TestStatsComputationAndCaching(t *testing.T) {
	c := New()
	tbl, _ := c.Create("t", []Column{
		{Name: "k", Type: types.KindInt},
		{Name: "v", Type: types.KindString},
	})
	rows := [][]types.Value{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("a")},
		{types.NewInt(2), types.NewString("b")},
		{types.NewInt(5), types.Null()},
	}
	tbl.BulkLoad(rows)
	k := tbl.ColumnStats(0)
	if *k != (ColumnStats{Distinct: 3, Min: 1, Max: 5}) {
		t.Errorf("ColumnStats(k) = %+v, want 3 distinct over [1, 5]", *k)
	}
	if v := tbl.ColumnStats(1); *v != (ColumnStats{Distinct: 3}) { // 'a', 'b', NULL
		t.Errorf("ColumnStats(v) = %+v, want 3 distinct and no range", *v)
	}
	if tbl.ColumnStats(0) != k {
		t.Error("stats not cached")
	}
	tbl.Insert([]types.Value{types.NewInt(9), types.Null()})
	if tbl.ColumnStats(0) == k {
		t.Error("stats not invalidated by Insert")
	}
	if got := tbl.ColumnStats(0); *got != (ColumnStats{Distinct: 4, Min: 1, Max: 9}) {
		t.Errorf("recomputed stats = %+v", *got)
	}
	k = tbl.ColumnStats(0)
	tbl.BulkLoad([][]types.Value{{types.NewInt(-3), types.NewString("c")}})
	if got := tbl.ColumnStats(0); got == k || *got != (ColumnStats{Distinct: 5, Min: -3, Max: 9}) {
		t.Errorf("stats after BulkLoad = %+v (cached pointer kept: %v)", *got, got == k)
	}
}

// TestBatchKeptWithTheVersion: a table version's columnar view is made
// once and kept with it; the builder path, which changes the version in
// place, drops it, and a commit's new version has a column equal to the
// one a build from its rows makes — carried or built — leaving the old
// version's as it was.
func TestBatchKeptWithTheVersion(t *testing.T) {
	c := New()
	tbl, _ := c.Create("t", []Column{{Name: "k", Type: types.KindInt}})
	tbl.BulkLoad([][]types.Value{{types.NewInt(1)}, {types.NewInt(2)}})
	b := tbl.Batch()
	col := b.Col(0)
	if tbl.Batch() != b || tbl.Batch().Col(0) != col {
		t.Fatal("a second Batch of one version is another view")
	}
	tbl.Insert([]types.Value{types.NewInt(3)})
	if got := tbl.Batch(); got == b || got.Len() != 3 || got.Col(0).Ints[2] != 3 {
		t.Fatalf("after Insert: the same batch %v, %d rows; want a new one of 3", got == b, got.Len())
	}
	b = tbl.Batch()
	tbl.BulkLoad([][]types.Value{{types.NewInt(4)}})
	if got := tbl.Batch(); got == b || got.Len() != 4 || got.Col(0).Ints[3] != 4 {
		t.Fatalf("after BulkLoad: the same batch %v, %d rows; want a new one of 4", got == b, got.Len())
	}
	old := tbl.Batch()
	oldCol := old.Col(0)
	if err := c.InsertRows("t", []types.Value{types.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
	next, _ := c.Lookup("t")
	rebuilt := storage.NewBatch(&storage.Relation{Schema: next.Rel.Schema, Tuples: next.Rel.Tuples}).Col(0)
	if next.Batch() == old || next.Batch().Len() != 5 || !reflect.DeepEqual(next.Batch().Col(0), rebuilt) {
		t.Fatalf("the committed version's column is %+v, a build from its rows makes %+v", next.Batch().Col(0), rebuilt)
	}
	if err := c.ReplaceRows("t", [][]types.Value{{types.NewInt(9)}}); err != nil {
		t.Fatal(err)
	}
	last, _ := c.Lookup("t")
	if got := last.Batch(); got == next.Batch() || got.Len() != 1 || got.Col(0).Ints[0] != 9 {
		t.Fatal("the replaced version reads its predecessor's batch")
	}
	if old.Len() != 4 || old.Col(0) != oldCol || tbl.Batch() != old || !slices.Equal(oldCol.Ints, []int64{1, 2, 3, 4}) {
		t.Error("a commit changed the old version's batch")
	}
}
