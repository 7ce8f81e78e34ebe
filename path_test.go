package disqo

// Differential suite for the vectorized execution path: the row path is
// the correctness oracle, and the vectorized path must reproduce its
// results byte for byte — same rows, same order — on every golden plan
// shape, at any worker count, cached or not. This is an internal test
// (package disqo) so it can reuse the chaos suite's golden shapes and
// dataset builders.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"disqo/internal/types"
)

// TestPathDifferentialGoldenShapes runs each of the six golden shapes
// (Fig. 2a–d, Fig. 3a–b) on both execution paths at worker counts
// {1, 4}, against both a caching and a cache-disabled DB over the same
// dataset, executing each combination twice (cold fill, then warm
// hit). Every fingerprint must match the first one taken.
func TestPathDifferentialGoldenShapes(t *testing.T) {
	for _, plan := range chaosPlans {
		plan := plan
		t.Run(plan.name, func(t *testing.T) {
			cached := chaosDB(t, 64, plan.highA4)
			uncached := chaosDBWith(t, 64, plan.highA4, WithoutCache())
			var baseline string
			check := func(db *DB, tier string, path ExecutionPath, workers, run int) {
				t.Helper()
				res, err := db.Query(plan.sql,
					WithStrategy(plan.strategy), WithWorkers(workers), WithExecutionPath(path))
				if err != nil {
					t.Fatalf("%s path=%s workers=%d run=%d: %v", tier, path, workers, run, err)
				}
				fp := rowsFingerprint(res)
				if baseline == "" {
					if len(res.Rows) == 0 {
						t.Fatal("baseline returned no rows; the dataset no longer exercises the plan")
					}
					baseline = fp
					return
				}
				if fp != baseline {
					t.Fatalf("%s path=%s workers=%d run=%d diverged:\n--- got ---\n%s--- baseline ---\n%s",
						tier, path, workers, run, fp, baseline)
				}
			}
			for _, path := range []ExecutionPath{PathRow, PathVector} {
				for _, workers := range []int{1, 4} {
					for run := 0; run < 2; run++ {
						check(cached, "cached", path, workers, run)
						check(uncached, "uncached", path, workers, run)
					}
				}
			}
		})
	}
}

// TestMorselSizeByteIdentity pins the WithMorselSize contract: any
// size — including out-of-range values the executor clamps — produces
// byte-identical results on both paths at any worker count.
func TestMorselSizeByteIdentity(t *testing.T) {
	db := chaosDBWith(t, 512, false, WithoutCache())
	var baseline string
	for _, path := range []ExecutionPath{PathRow, PathVector} {
		for _, ms := range []int{0, -5, 1, 64, 100, 1024, 1 << 20} {
			res, err := db.Query(chaosQ1, WithWorkers(4), WithExecutionPath(path), WithMorselSize(ms))
			if err != nil {
				t.Fatalf("path=%s morsel=%d: %v", path, ms, err)
			}
			fp := rowsFingerprint(res)
			if baseline == "" {
				if len(res.Rows) == 0 {
					t.Fatal("no rows")
				}
				baseline = fp
				continue
			}
			if fp != baseline {
				t.Fatalf("path=%s morsel=%d changed the result", path, ms)
			}
		}
	}
}

// TestGroupedFloatFoldIsSequential: a grouped float SUM or AVG is the
// left fold of its group's values in input order at every worker count
// and every morsel size. Γ folds each group once; partial sums per
// morsel, added afterwards, would round differently wherever the
// morsels cut. A DISTINCT count beside them is deduplicated per group
// in whichever key partition holds the group.
func TestGroupedFloatFoldIsSequential(t *testing.T) {
	db, _ := Open(WithoutCache())
	if err := db.CreateTable("f", []Column{{Name: "k", Type: TypeInt}, {Name: "v", Type: TypeFloat}, {Name: "b", Type: TypeInt}}); err != nil {
		t.Fatal(err)
	}
	const groups = 3
	rng := rand.New(rand.NewSource(1))
	rows := make([][]Value, 20000)
	sum, count, distinct := make([]float64, groups), make([]int, groups), make([]map[int64]bool, groups)
	for i := range rows {
		k, v, b := rng.Intn(groups), rng.Float64()*4600, rng.Int63n(int64(500*(1+i%groups)))
		rows[i] = []Value{Int(int64(k)), Float(v), Int(b)}
		sum[k] += v
		count[k]++
		if distinct[k] == nil {
			distinct[k] = map[int64]bool{}
		}
		distinct[k][b] = true
	}
	if err := db.Insert("f", rows...); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, morsel := range []int{64, 1024, 65536} {
			res, err := db.Query("SELECT k, SUM(v), AVG(v), COUNT(DISTINCT b) FROM f GROUP BY k", WithWorkers(workers), WithMorselSize(morsel))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != groups {
				t.Fatalf("workers=%d morsel=%d: %d groups, want %d", workers, morsel, len(res.Rows), groups)
			}
			for _, row := range res.Rows {
				k, _ := row[0].IntOk()
				want := []Value{Float(sum[k]), Float(sum[k] / float64(count[k])), Int(int64(len(distinct[k])))}
				if !types.Identical(row[1], want[0]) || !types.Identical(row[2], want[1]) || !types.Identical(row[3], want[2]) {
					t.Errorf("workers=%d morsel=%d group %d: SUM, AVG, COUNT(DISTINCT) = %s; the input-order fold gives %s",
						workers, morsel, k, types.FormatTuple(row[1:]), types.FormatTuple(want))
				}
			}
		}
	}
}

// TestAnalyzePathAnnotation: EXPLAIN ANALYZE tags every executed node
// with the path that served it, and the plan-level report carries the
// per-node VecCalls counter.
func TestAnalyzePathAnnotation(t *testing.T) {
	db := chaosDB(t, 64, false)
	vec, err := db.Analyze(chaosQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vec, "path=vector") {
		t.Fatalf("default-path ANALYZE shows no vectorized node:\n%s", vec)
	}
	row, err := db.Analyze(chaosQ1, WithExecutionPath(PathRow))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(row, "path=vector") {
		t.Fatalf("row-path ANALYZE claims a vectorized node:\n%s", row)
	}
	if !strings.Contains(row, "path=row") {
		t.Fatalf("row-path ANALYZE carries no path annotation:\n%s", row)
	}
}

// TestExplainPathAnnotation: EXPLAIN annotates the physical plan with
// the static path decision before anything runs.
func TestExplainPathAnnotation(t *testing.T) {
	db := chaosDB(t, 64, false)
	out, err := db.Explain(chaosQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[path=vector]") || !strings.Contains(out, "[path=row]") {
		t.Fatalf("EXPLAIN should show a mixed-path plan for Q1:\n%s", out)
	}
	out, err = db.Explain(chaosQ1, WithExecutionPath(PathRow))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "[path=vector]") {
		t.Fatalf("row-path EXPLAIN claims vectorized nodes:\n%s", out)
	}
}

// TestVecCallsMetrics: the machine-readable report distinguishes
// kernel-served calls from row-path calls, and the counter is zero
// when the row path is forced.
func TestVecCallsMetrics(t *testing.T) {
	db := chaosDBWith(t, 64, false, WithoutCache())
	res, err := db.Query(chaosQ1, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, op := range res.Metrics().Ops {
		if op.VecCalls > op.Calls {
			t.Fatalf("op %d (%s): VecCalls %d exceeds Calls %d", op.ID, op.Op, op.VecCalls, op.Calls)
		}
		total += op.VecCalls
	}
	if total == 0 {
		t.Fatal("vector-path run reports zero VecCalls")
	}
	res, err = db.Query(chaosQ1, WithMetrics(), WithExecutionPath(PathRow))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Metrics().Ops {
		if op.VecCalls != 0 {
			t.Fatalf("row-path run reports VecCalls=%d on op %d (%s)", op.VecCalls, op.ID, op.Op)
		}
	}
}

// TestWorkerCountIndependentVecCalls: VecCalls, like Calls, must not
// depend on the worker count — kernels credit once per evaluation, not
// once per morsel.
func TestWorkerCountIndependentVecCalls(t *testing.T) {
	db := chaosDBWith(t, 512, false, WithoutCache())
	counts := map[int]map[int]int64{}
	for _, workers := range []int{1, 4} {
		res, err := db.Query(chaosQ1, WithMetrics(), WithWorkers(workers), WithMorselSize(64))
		if err != nil {
			t.Fatal(err)
		}
		m := map[int]int64{}
		for _, op := range res.Metrics().Ops {
			m[op.ID] = op.VecCalls
		}
		counts[workers] = m
	}
	if fmt.Sprint(counts[1]) != fmt.Sprint(counts[4]) {
		t.Fatalf("VecCalls depend on worker count:\nw=1: %v\nw=4: %v", counts[1], counts[4])
	}
}
