package exec

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/types"
)

// Tests for the morsel-parallel execution paths: worker counts must not
// change results (byte-identical output, including group discovery
// order), and the abort sentinels must propagate out of parallel
// regions as the sentinel error, never as a partial result. The
// fixtures exceed the 2×morselSize parallel threshold so Workers > 1
// actually fans out; `go test -race` exercises the shared memo and the
// per-worker stats shards.

// bigCatalog builds l(k, v) and r(k, w) with enough rows to cross the
// parallel threshold. k repeats every 50 rows so joins and groupings
// produce many multi-tuple groups.
func bigCatalog(t testing.TB, rows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, name := range []string{"l", "r"} {
		col := "v"
		if name == "r" {
			col = "w"
		}
		tbl, err := cat.Create(name, []catalog.Column{
			{Name: "k", Type: types.KindInt},
			{Name: col, Type: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := tbl.Insert([]types.Value{
				types.NewInt(int64(i % 50)), types.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat
}

func bigScan(t testing.TB, cat *catalog.Catalog, name string) *algebra.Scan {
	t.Helper()
	tbl, err := cat.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.NewScan(name, name, tbl.Rel.Schema)
}

// parallelPlan joins the two tables on k, keeps a value-dependent slice
// of the pairs, and groups the survivors — scan, hash join, filter and
// grouping all run their morsel-parallel paths.
func parallelPlan(t testing.TB, cat *catalog.Catalog) algebra.Op {
	join := algebra.NewJoin(bigScan(t, cat, "l"), bigScan(t, cat, "r"),
		algebra.Cmp(types.EQ, algebra.Col("l.k"), algebra.Col("r.k")))
	filtered := algebra.NewSelect(join,
		algebra.Cmp(types.LT, algebra.Col("l.v"), algebra.Col("r.w")))
	return algebra.NewGroupBy(filtered, []string{"l.k"}, []algebra.AggItem{
		{Out: "cnt", Spec: agg.Spec{Kind: agg.Count, Star: true}},
		{Out: "total", Spec: agg.Spec{Kind: agg.Sum}, Arg: algebra.Col("r.w")},
	}, false)
}

func TestParallelResultsIdentical(t *testing.T) {
	cat := bigCatalog(t, 3000)
	plan := parallelPlan(t, cat)
	base, err := New(cat, Options{Cache: CacheAll, Workers: 1}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Tuples) == 0 {
		t.Fatal("fixture produced no rows")
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := New(cat, Options{Cache: CacheAll, Workers: workers}).Run(plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base.Tuples, got.Tuples) {
			t.Fatalf("workers=%d changed the output (%d vs %d rows, or row order)",
				workers, len(base.Tuples), len(got.Tuples))
		}
	}
}

// TestParallelDistinct: DISTINCT over an input with no duplicate, and
// over one whose only duplicate is its last row — of a row in another
// morsel — answers the sequential Relation.Distinct at every worker
// count, which evalDistinct runs whatever the count.
func TestParallelDistinct(t *testing.T) {
	cat := bigCatalog(t, 3000)
	tbl, err := cat.Lookup("l")
	if err != nil {
		t.Fatal(err)
	}
	distinct := algebra.NewDistinct(bigScan(t, cat, "l"))
	base := tbl.Rel.Distinct()
	if len(base.Tuples) != 3000 {
		t.Fatalf("fixture has duplicates: %d distinct rows", len(base.Tuples))
	}
	for _, last := range []bool{false, true} {
		if last {
			tbl.BulkLoad([][]types.Value{tbl.Rel.Tuples[5]})
			base = tbl.Rel.Distinct()
		}
		for _, workers := range []int{1, 4} {
			got, err := New(cat, Options{Cache: CacheAll, Workers: workers}).Run(distinct)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(base.Tuples, got.Tuples) {
				t.Errorf("duplicate last row %v, workers=%d: %d rows, want %d", last, workers, len(got.Tuples), len(base.Tuples))
			}
		}
	}
}

func TestParallelStatsWorkerCountIndependent(t *testing.T) {
	cat := bigCatalog(t, 3000)
	plan := parallelPlan(t, cat)
	ex1 := New(cat, Options{Cache: CacheAll, Workers: 1})
	if _, err := ex1.Run(plan); err != nil {
		t.Fatal(err)
	}
	ex4 := New(cat, Options{Cache: CacheAll, Workers: 4})
	if _, err := ex4.Run(plan); err != nil {
		t.Fatal(err)
	}
	s1, s4 := ex1.Stats(), ex4.Stats()
	// Elapsed is the lone wall-clock field; everything else must match.
	s1.Elapsed, s4.Elapsed = 0, 0
	if s1 != s4 {
		t.Errorf("stats depend on worker count:\n1 worker: %+v\n4 workers: %+v", s1, s4)
	}
}

func TestParallelTimeoutPropagates(t *testing.T) {
	cat := bigCatalog(t, 3000)
	// An unindexable inequality forces the nested-loop join: 9M pairs,
	// far more than a nanosecond budget allows.
	plan := algebra.NewJoin(bigScan(t, cat, "l"), bigScan(t, cat, "r"),
		algebra.Cmp(types.LT, algebra.Col("l.v"), algebra.Col("r.w")))
	rel, err := New(cat, Options{Workers: 4, Timeout: 1}).Run(plan)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if rel != nil {
		t.Error("timed-out query must not return a partial result")
	}
}

func TestParallelMemoryLimitPropagates(t *testing.T) {
	cat := bigCatalog(t, 3000)
	plan := parallelPlan(t, cat)
	rel, err := New(cat, Options{Cache: CacheAll, Workers: 4, MaxTuples: 100}).Run(plan)
	if !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("err = %v, want ErrMemoryLimit", err)
	}
	if rel != nil {
		t.Error("over-budget query must not return a partial result")
	}
}

func TestParallelAbortedExecutorRecovers(t *testing.T) {
	cat := bigCatalog(t, 3000)
	tiny, err := cat.Create("tiny", []catalog.Column{{Name: "x", Type: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := tiny.Insert([]types.Value{types.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ex := New(cat, Options{Cache: CacheAll, Workers: 4, MaxTuples: 100})
	if _, err := ex.Run(parallelPlan(t, cat)); !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("err = %v, want ErrMemoryLimit", err)
	}
	// The abort latch must reset between runs: a query that fits the
	// budget succeeds on the same executor afterwards.
	small := algebra.NewLimit(bigScan(t, cat, "tiny"), 5)
	rel, err := ex.Run(small)
	if err != nil {
		t.Fatalf("executor did not recover from abort: %v", err)
	}
	if len(rel.Tuples) != 5 {
		t.Errorf("got %d rows, want 5", len(rel.Tuples))
	}
}

// TestParallelSharedDAG evaluates a DAG whose bypass cascade feeds both
// inputs of a union: under -race this exercises the mutex-protected memo
// that lets concurrent workers converge on one stored instance.
func TestParallelSharedDAG(t *testing.T) {
	cat := bigCatalog(t, 3000)
	bp := algebra.NewBypassSelect(bigScan(t, cat, "l"),
		algebra.Cmp(types.LT, algebra.Col("l.v"), algebra.ConstInt(1500)))
	shared := algebra.NewUnionDisjoint(algebra.Pos(bp),
		algebra.NewSelect(algebra.Neg(bp), algebra.Cmp(types.GE, algebra.Col("l.v"), algebra.ConstInt(1500))))
	plan := algebra.NewUnionAll(shared, shared)
	base, err := New(cat, Options{Cache: CacheAll, Workers: 1}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(cat, Options{Cache: CacheAll, Workers: 8}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Tuples, got.Tuples) {
		t.Fatal("parallel bypass DAG evaluation changed the output")
	}
	if len(got.Tuples) != 6000 {
		t.Errorf("the cascade's streams must partition the input: got %d rows, want 2 × 3000", len(got.Tuples))
	}
}

// TestParallelGroupOrderDeterministic pins the group output order: the
// key partitions' groups are merged by their first row, so the output
// order equals the sequential first-appearance order at any worker
// count.
func TestParallelGroupOrderDeterministic(t *testing.T) {
	cat := bigCatalog(t, 5000)
	plan := algebra.NewGroupBy(bigScan(t, cat, "l"), []string{"l.k"},
		[]algebra.AggItem{{Out: "cnt", Spec: agg.Spec{Kind: agg.Count, Star: true}}}, false)
	base, err := New(cat, Options{Workers: 1}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	// k cycles 0..49, so first-appearance order is ascending.
	for i, row := range base.Tuples {
		want := fmt.Sprintf("%d", i)
		if got := row[0].String(); got != want {
			t.Fatalf("sequential group order: row %d key %s, want %s", i, got, want)
		}
	}
	for _, workers := range []int{2, 8} {
		got, err := New(cat, Options{Workers: workers}).Run(plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base.Tuples, got.Tuples) {
			t.Fatalf("workers=%d reordered the groups", workers)
		}
	}
}
