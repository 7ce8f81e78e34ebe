package disqo_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"disqo"
	"disqo/internal/harness"
	"disqo/internal/strategy"
	"disqo/internal/testutil"
)

// bagOf renders a result's rows as a sorted bag.
func bagOf(res *disqo.Result) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	slices.Sort(rows)
	return rows
}

// TestRecycledTablesConcurrent runs the five Fig. 7 statements from 8
// goroutines at once, at one worker and at four over 64-row morsels, on
// an uncached database, so that queries and their morsel workers take
// DISTINCT indexes, group tables, accumulator slabs and results tables
// from the shared pools and hand them back concurrently. Each result must
// be the bag of rows a sequential run of the statement under the
// canonical strategy — nested evaluation, no binary grouping — returns.
func TestRecycledTablesConcurrent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadRST(0.05, 0.05, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTPCH(0.001); err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(fig7Stmts))
	for i, st := range fig7Stmts {
		res, err := db.Query(st.sql, disqo.WithStrategy(disqo.Canonical), disqo.WithWorkers(1))
		if err != nil {
			t.Fatalf("%s canonical: %v", st.name, err)
		}
		want[i] = bagOf(res)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range len(fig7Stmts) * 2 {
				i, workers := (g+k)%len(fig7Stmts), 1+3*((g+k/len(fig7Stmts))%2)
				st := fig7Stmts[i]
				res, err := db.Query(st.sql, disqo.WithWorkers(workers), disqo.WithMorselSize(64))
				if err != nil {
					t.Errorf("%s at %d workers: %v", st.name, workers, err)
					return
				}
				if got := bagOf(res); !slices.Equal(got, want[i]) {
					t.Errorf("%s at %d workers: %d rows differ from the canonical strategy's %d", st.name, workers, len(got), len(want[i]))
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecycledTablesAllocs bounds the bytes a warm Q1 and a warm
// quantified query allocate per run at RST SF 0.5, on one worker and
// uncached: their DISTINCT index, group tables, accumulator slabs and
// results tables come from the pools, so a run allocates its output, its
// plan and its per-morsel buffers, not its tables. With every table
// built per run they allocated 184 kB and 364 kB.
func TestRecycledTablesAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	db, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadRST(0.5, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, sql string
		budget    uint64
	}{
		{"Q1", harness.Q1, 110_000},
		{"quant", harness.QuantExists, 200_000},
	} {
		if per := warmBytes(t, db, c.name, c.sql); per > c.budget {
			t.Errorf("%s allocates %s per warm run, budget %s", c.name, kB(per), kB(c.budget))
		}
	}
}

// eqv5Texts are the three eqv5_linear statements, with fixed thresholds
// for s.b4 where the workload computes its own.
var eqv5Texts = []struct{ name, sql string }{
	{"q4_linear", `SELECT DISTINCT * FROM r
	         WHERE a3 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2
	                      OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b2 = c2))`},
	{"q2_count_distinct", `SELECT DISTINCT * FROM r
	         WHERE a1 <= (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 OR b4 > 1500)`},
	{"q2_sum_distinct", `SELECT DISTINCT * FROM r
	         WHERE a4 > (SELECT SUM(DISTINCT b3) FROM s WHERE a2 = b2 OR b4 > 2200)`},
}

// TestRecycledRowsConcurrent runs, from 8 goroutines at once, at one
// worker and at four over 64-row morsels, on an uncached database, the
// statements whose intermediate relations come back to the pools: the
// five Fig. 7 statements and the three eqv5_linear ones, whose joins and
// binary groupings hand their inputs' row lists and chunks back; a
// correlated block that stays nested, whose uncorrelated join is
// memoized across outer tuples and must not be handed back; a join that
// both branches of the S2 baseline's OR-expansion read, which must not
// be handed back either; a PassLeft binary grouping over a join, whose
// output rows are the join's, so that it hands back the join's row list
// but passes its chunks up to the Γ that sums them; and a join that
// builds on a selection and emits its columns, whose row list the join
// hands back once its probe is done. Each result must be the bag of rows
// a sequential run under the canonical strategy returns — the S2
// baseline's for q4_linear, whose doubly nested canonical run takes a
// minute under the race detector.
func TestRecycledRowsConcurrent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadRST(0.05, 0.05, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTPCH(0.001); err != nil {
		t.Fatal(err)
	}
	type stmt struct {
		name, sql string
		opts      []disqo.Option
	}
	var stmts []stmt
	for _, st := range fig7Stmts {
		stmts = append(stmts, stmt{st.name, st.sql, nil})
	}
	for _, st := range eqv5Texts {
		stmts = append(stmts, stmt{st.name, st.sql, nil})
	}
	// The block keeps its disjunctive correlation, so it is evaluated per
	// row of r, and under the unnested strategy's CacheAll its s ⋈ t is
	// evaluated once and read from the memo by every later row.
	stmts = append(stmts, stmt{"memoized_join", `SELECT DISTINCT * FROM r
	         WHERE a4 IN (SELECT b4 FROM s, t WHERE b1 = c1 AND (b2 = a2 OR c4 = a3)) OR a1 > 450`, nil})
	stmts = append(stmts, stmt{"shared_join", `SELECT DISTINCT a1, a2, c4 FROM r, t
	         WHERE a1 = c1 AND (a2 = (SELECT COUNT(*) FROM s WHERE b2 = a3) OR c4 > 1500)`,
		[]disqo.Option{disqo.WithStrategy(strategy.S2)}})
	stmts = append(stmts, stmt{"passleft_join", `SELECT SUM(a2), COUNT(*) FROM r, t
	         WHERE a1 = c1 AND (a2 = (SELECT COUNT(*) FROM s WHERE b2 = a3) OR c4 > 1500)`, nil})
	stmts = append(stmts, stmt{"filtered_build", `SELECT DISTINCT a1, b3 FROM r, s
	         WHERE a2 = b1 AND b4 > 1500 AND (a3 = (SELECT COUNT(*) FROM t WHERE c2 = b2) OR a4 > 1500)`, nil})
	// What makes each of the last four a case, in its plan.
	for i, shape := range []string{
		"⋈[(s.b1 = t.c1)](scan(s), scan(t))",                       // the block's join
		"↑ see #1 HashJoin[r.a1=t.c1]",                             // a join read twice
		"σ[((t.c4 > 1500) OR (r.a2 = g1))] → [r.a2] (1 of 4 cols)", // the Γ² emits a prefix of the join's columns
		"HashJoin[r.a2=s.b1] → [r.a1, r.a3, r.a4, s.b2, s.b3]",     // the join builds on σ(s) and emits its columns
	} {
		st := stmts[len(stmts)-4+i]
		out, err := db.Explain(st.sql, st.opts...)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !strings.Contains(out, shape) {
			t.Fatalf("%s: the plan no longer holds %q:\n%s", st.name, shape, out)
		}
	}
	want := make([][]string, len(stmts))
	for i, st := range stmts {
		ref := disqo.Canonical
		if st.name == "q4_linear" {
			ref = strategy.S2
		}
		res, err := db.Query(st.sql, disqo.WithStrategy(ref), disqo.WithWorkers(1))
		if err != nil {
			t.Fatalf("%s %s: %v", st.name, ref, err)
		}
		want[i] = bagOf(res)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range len(stmts) * 2 {
				i, workers := (g+k)%len(stmts), 1+3*((g+k/len(stmts))%2)
				st := stmts[i]
				opts := append([]disqo.Option{disqo.WithWorkers(workers), disqo.WithMorselSize(64)}, st.opts...)
				res, err := db.Query(st.sql, opts...)
				if err != nil {
					t.Errorf("%s at %d workers: %v", st.name, workers, err)
					return
				}
				if got := bagOf(res); !slices.Equal(got, want[i]) {
					t.Errorf("%s at %d workers: %d rows differ from the canonical strategy's %d", st.name, workers, len(got), len(want[i]))
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecycledRowsAllocs bounds the bytes a warm Query 2d (RST SF 0.5 and
// TPC-H SF 0.01) and a warm eqv5_linear Q4 (RST SF 0.02) allocate per
// run, on one worker and uncached: the rows and row lists their joins
// and binary groupings write for the operator above come from the pools
// and go back to them, so a run allocates its result, its plan and its
// per-morsel buffers, not its intermediate relations. With those written
// per run they allocated 323 kB and 65.7 kB.
func TestRecycledRowsAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	tpch, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer tpch.Close()
	if err := tpch.LoadRST(0.5, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := tpch.LoadTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	rst, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	if err := rst.LoadRST(0.02, 0.02, 0.02); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, sql string
		db        *disqo.DB
		budget    uint64
	}{
		{"Q2d", harness.Query2d, tpch, 160_000},
		{"q4_linear", eqv5Texts[0].sql, rst, 45_000},
	} {
		if per := warmBytes(t, c.db, c.name, c.sql); per > c.budget {
			t.Errorf("%s allocates %s per warm run, budget %s", c.name, kB(per), kB(c.budget))
		}
	}
}

// warmBytes returns the bytes a warm run of sql allocates on one worker:
// the least of three windows' averages, since an allocation the engine
// makes now and then, outside the query's operators, lands in one
// window, not in all.
func warmBytes(t *testing.T, db *disqo.DB, name, sql string) uint64 {
	t.Helper()
	run := func() {
		if _, err := db.Query(sql, disqo.WithWorkers(1)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for range 3 {
		run()
	}
	per := uint64(1 << 62)
	for range 3 {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("%s: %d bytes per run", name, per)
	return per
}

func kB(n uint64) string { return fmt.Sprintf("%.1f kB", float64(n)/1000) }
