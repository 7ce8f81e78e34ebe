package exec

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/physical"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/storage"
	"disqo/internal/testutil"
	"disqo/internal/translate"
	"disqo/internal/types"
)

// foldFixture builds r(a1…a4), the left input, and three right inputs of
// int columns x1…x4 keyed on x2: s, with NULL keys, NULLs in every other
// column, rows NULL but for the key, a row NULL throughout and runs of
// duplicate rows; o, whose rows all hold key 3; and e, empty. r's keys
// reach beyond s's, and some are NULL.
func foldFixture(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	i, null := types.NewInt, types.Null()
	nullIf := func(v types.Value, cond bool) types.Value {
		if cond {
			return null
		}
		return v
	}
	fill := func(name, prefix string, n int, row func(k int) []types.Value) {
		cols := make([]catalog.Column, 4)
		for c := range cols {
			cols[c] = catalog.Column{Name: fmt.Sprintf("%s%d", prefix, c+1), Type: types.KindInt}
		}
		tbl, err := cat.Create(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]types.Value, n)
		for k := range rows {
			if rows[k] = row(k); k%13 == 12 {
				rows[k] = rows[k-1] // a duplicate of the row before
			}
		}
		tbl.BulkLoad(rows)
	}
	fill("r", "a", 60, func(k int) []types.Value {
		return []types.Value{i(int64(k)), nullIf(i(int64(k%27)), k%19 == 18), i(int64(k % 4)), i(int64(k % 7))}
	})
	fill("s", "b", 400, func(k int) []types.Value {
		row := []types.Value{nullIf(i(int64(k%5)), k%7 == 0), nullIf(i(int64(k%23)), k%17 == 16),
			nullIf(i(int64(k*3%11)), k%6 == 0), nullIf(i(int64(k%9-4)), k%8 == 0)}
		switch {
		case k == 100:
			row = []types.Value{null, null, null, null}
		case k%10 == 0:
			row[0], row[2], row[3] = null, null, null
		}
		return row
	})
	fill("o", "c", 200, func(k int) []types.Value {
		return []types.Value{nullIf(i(int64(k%3)), k%5 == 0), i(3), nullIf(i(int64(k%4-2)), k%9 == 0), i(int64(k % 6))}
	})
	fill("e", "d", 0, nil)
	return cat
}

// TestColumnFoldAgrees is the differential of the hashed Γ²'s fold by
// columns (foldWords) against the row path, the reference, and against
// the vector path kept on the fold by rows (rowFolds): COUNT(*), COUNT,
// SUM, MIN and MAX of a column, COUNT(DISTINCT *), COUNT(DISTINCT x) and
// SUM(DISTINCT x), each untagged (Eqv. 1) and tagged (Eqv. 5) over s, o
// and e (foldFixture), under three-valued and two-valued logic. The row
// path returns what nested evaluation of the canonical plan returns, and
// every other run the row path's rows, in order, at one and four workers
// and morsel sizes 64 and 1024 — four key partitions at 64. The vector
// path folds by columns exactly where the fold applies: over s and o,
// not e, whose key column is all NULL, and not a tagged DISTINCT item.
func TestColumnFoldAgrees(t *testing.T) {
	cat := foldFixture(t)
	aggs := []string{"COUNT(*)", "COUNT(x1)", "SUM(x4)", "MIN(x4)", "MAX(x3)",
		"COUNT(DISTINCT *)", "COUNT(DISTINCT x1)", "SUM(DISTINCT x4)"}
	defer func() { rowFolds = false }()
	for _, tbl := range []string{"s", "o", "e"} {
		x := map[string]string{"s": "b", "o": "c", "e": "d"}[tbl]
		for _, a := range aggs {
			for _, tagged := range []bool{false, true} {
				where := "a2 = x2"
				if tagged {
					where += " OR x4 > 1"
				}
				sql := strings.ReplaceAll(fmt.Sprintf("SELECT a1, a2, (SELECT %s FROM %s WHERE %s) AS g FROM r", a, tbl, where), "x", x)
				distinct := strings.Contains(a, "DISTINCT")
				for _, nulls := range []string{"3vl", "2vl"} {
					name := fmt.Sprintf("%s %s", sql, nulls)
					canonical, plan := foldPlan(t, cat, sql, nulls == "2vl")
					nested, err := New(cat, Options{Cache: CacheAll}).Run(canonical)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var want *storage.Relation
					for _, run := range []struct {
						path Path
						rows bool // rowFolds
					}{{PathRow, false}, {PathVector, true}, {PathVector, false}} {
						rowFolds = run.rows
						for _, workers := range []int{1, 4} {
							for _, msize := range []int{64, 1024} {
								ex := New(cat, Options{Cache: CacheAll, Path: run.path, Workers: workers, MorselSize: msize, Metrics: true})
								got, err := ex.Run(plan)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								if want == nil {
									if want = got; !slices.Equal(got.Canonical(), nested.Canonical()) {
										t.Fatalf("%s: the row path differs from nested evaluation", name)
									}
								} else if !reflect.DeepEqual(got.Tuples, want.Tuples) {
									t.Fatalf("%s: %s rowFolds=%v w%d m%d differs from the row path\n got %v\nwant %v",
										name, run.path, run.rows, workers, msize, got.Tuples, want.Tuples)
								}
								root, err := ex.Plan(plan)
								if err != nil {
									t.Fatal(err)
								}
								bg := firstBinaryGroup(root)
								if bg == nil || bg.Groupings[0].LCols == nil {
									t.Fatalf("%s: no hashed Γ² in\n%s", name, physical.Explain(root))
								}
								folds := ex.NodeMetrics()[bg.ID()].ColumnFolds
								wantCols := run.path == PathVector && !run.rows && tbl != "e" && !(tagged && distinct)
								if gotCols := len(folds) > 0 && folds[0] > 0; gotCols != wantCols {
									t.Errorf("%s: %s rowFolds=%v w%d m%d folds by columns: %v, want %v", name, run.path, run.rows, workers, msize, gotCols, wantCols)
								}
							}
						}
					}
				}
			}
		}
	}
}

// foldPlan translates sql over cat — into two-valued logic when twoVL —
// and returns the canonical plan and its rewrite.
func foldPlan(t testing.TB, cat *catalog.Catalog, sql string, twoVL bool) (canonical, rewritten algebra.Op) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if canonical, err = translate.New(cat).Translate(stmt); err != nil {
		t.Fatal(err)
	}
	if twoVL {
		if canonical, err = translate.TwoValued(canonical); err != nil {
			t.Fatal(err)
		}
	}
	if rewritten, err = rewrite.New(cat, rewrite.AllCaps()).Rewrite(canonical); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return canonical, rewritten
}

// firstBinaryGroup returns the first Γ² of the physical plan root.
func firstBinaryGroup(root physical.Node) *physical.BinaryGroup {
	var bg *physical.BinaryGroup
	physical.Walk(root, func(n physical.Node) bool {
		if b, ok := n.(*physical.BinaryGroup); ok && bg == nil {
			bg = b
		}
		return bg == nil
	})
	return bg
}

// TestHashedFoldBytes keeps the fold by columns' saving: an untagged
// COUNT(DISTINCT *) Γ² of 500 left rows over 5 000 rows of 500 keys,
// warm, allocates at most 160 kB per run — ≈ 110 kB, two thirds of it
// the output rows. Folding by rows, each run also built a DISTINCT index
// over every row (≈ 125 kB) and an accumulator per key (88 B each):
// ≈ 290 kB in all.
func TestHashedFoldBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 160 << 10
	cat := catalog.New()
	for _, tbl := range []struct {
		name string
		n    int
	}{{"l", 500}, {"s", 5000}} {
		created, err := cat.Create(tbl.name, []catalog.Column{{Name: "k", Type: types.KindInt}, {Name: "v", Type: types.KindInt}, {Name: "w", Type: types.KindInt}})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]types.Value, tbl.n)
		for i := range rows {
			rows[i] = []types.Value{types.NewInt(int64(i % 500)), types.NewInt(int64(i % 7)), types.NewInt(int64(i % 3))}
		}
		created.BulkLoad(rows)
	}
	plan := algebra.NewBinaryGroup(bigScan(t, cat, "l"), bigScan(t, cat, "s"),
		algebra.Cmp(types.EQ, algebra.Col("l.k"), algebra.Col("s.k")),
		[]algebra.AggItem{{Out: "d", Spec: agg.Spec{Kind: agg.Count, Distinct: true, Star: true}}})
	pl, err := physical.NewPlanner(stats.New(cat)).Plan(plan)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		rel, err := New(cat, Options{Cache: CacheAll, Path: PathVector, Workers: 1}).RunPlan(pl)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := rel.Tuples[0][len(rel.Tuples[0])-1].IntOk(); n != 10 {
			t.Fatalf("COUNT(DISTINCT *) = %d, want 10", n)
		}
	}
	for range 3 {
		run()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Errorf("a warm run allocates %d B, budget %d B", per, budget)
	}
}
