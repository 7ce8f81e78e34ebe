package disqo

// The prepared plan suite: one value is planned once, stored by the plan
// cache and by Stmt, shared by concurrent executions and never lowered
// again; Query, Stmt.Query, Analyze and Explain are four views of it.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"disqo/internal/testutil"
)

// NormalizeSQL hands the key normalisation to FuzzNormalizeSQL, which
// lives with the other fuzz targets in the external test package.
var NormalizeSQL = normalizeSQL

// TestPreparedPlanSharedUnderConcurrency runs one cached text and one
// Stmt from 8 goroutines × 50 runs each, result cache off so every run
// executes the same shared physical plan: Unnested, Canonical (nested
// blocks resolved through the plan's frozen lookup) and a tagged
// Eqv. 5 query, at 1 and 4 workers. Rows must equal a cold run's byte
// for byte; the race detector checks the sharing.
func TestPreparedPlanSharedUnderConcurrency(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const goroutines, runs = 8, 50
	cold := chaosDBWith(t, 48, false, WithoutCache())
	db := chaosDBWith(t, 48, false, WithResultCacheSize(-1))
	for _, tc := range []struct {
		name     string
		sql      string
		strategy Strategy
	}{
		{"unnested", chaosQ1, Unnested},
		{"canonical", chaosQ1, Canonical},
		{"tagged-eqv5", chaosQ2Distinct, Unnested},
	} {
		for _, workers := range []int{1, 4} {
			tc, workers := tc, workers
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opts := []Option{WithStrategy(tc.strategy), WithWorkers(workers), withMorselSize(64)}
				ref, err := cold.Query(tc.sql, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want := rowsFingerprint(ref)
				stmt, err := db.Prepare(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					g := g
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < runs; i++ {
							var res *Result
							var err error
							if (g+i)%2 == 0 {
								res, err = db.Query(tc.sql, opts...)
							} else {
								res, err = stmt.Query(opts...)
							}
							if err != nil {
								t.Errorf("goroutine %d run %d: %v", g, i, err)
								return
							}
							if got := rowsFingerprint(res); got != want {
								t.Errorf("goroutine %d run %d: rows differ from the cold run", g, i)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
	if cs := db.CacheStats(); cs.Plan.Hits == 0 || cs.Result.Hits != 0 {
		t.Errorf("want plan-cache hits and no result-cache hits, got %+v", cs)
	}
}

// TestCachedPlanIsNotLoweredAgain bounds what a plan-cache hit and a
// prepared statement's run allocate on a Fig. 2-style statement over
// ten-row tables with the result cache off: the parent lowered the
// cached plan again on every execution (247 and 245 allocations); an
// execution of the plan as stored stays under the budget below.
func TestCachedPlanIsNotLoweredAgain(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation goldens are meaningless under the race detector")
	}
	// 139 (plan-cache hit) and 138 (prepared) measured, + 10 %. They were
	// 142 / 141 while Snapshot() copied the table map; that Snapshot()
	// itself allocates nothing is pinned in internal/catalog.
	const budget = 152
	const sql = `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500`
	db, _ := Open(WithResultCacheSize(-1))
	if err := db.LoadRST(0.001, 0.001, 0.001); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (*Result, error){
		"plan-cache hit": func() (*Result, error) { return db.Query(sql, WithWorkers(1)) },
		"prepared":       func() (*Result, error) { return stmt.Query(WithWorkers(1)) },
	} {
		if _, err := run(); err != nil { // plan it
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s allocates %.0f per run, budget %d", name, allocs, budget)
		}
	}
}

// planLabels extracts the operator labels, in print order, from the
// section of an EXPLAIN / ANALYZE rendering that starts at header and
// ends at the next blank line. A line is indentation, "#n " when the
// node is shared, the label, two spaces and the annotation; a shared
// node's later occurrences ("↑ see #n") are references, not operators.
func planLabels(t *testing.T, out, header string) []string {
	t.Helper()
	i := strings.Index(out, header)
	if i < 0 {
		t.Fatalf("no %q section in:\n%s", header, out)
	}
	sec, _, _ := strings.Cut(out[i+len(header):], "\n\n")
	var labels []string
	for _, line := range strings.Split(strings.TrimSpace(sec), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "↑") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			_, line, _ = strings.Cut(line, " ")
		}
		label, _, _ := strings.Cut(line, "  (")
		labels = append(labels, label)
	}
	return labels
}

// TestFourViewsOnePlan: for the six Fig. 2a–d / 3a–b shapes under
// Unnested, Canonical and CostBased, the operators EXPLAIN's physical
// section prints, the ones ANALYZE annotates and the ones
// Result.Metrics reports are the same list, and ANALYZE's rewrites are
// Result.Rewrites.
func TestFourViewsOnePlan(t *testing.T) {
	for _, shape := range chaosPlans[:6] {
		for _, strat := range []Strategy{Unnested, Canonical, CostBased} {
			shape, strat := shape, strat
			t.Run(fmt.Sprintf("%s/%s", shape.name, strat), func(t *testing.T) {
				db := chaosDB(t, 32, shape.highA4)
				opts := []Option{WithStrategy(strat), WithWorkers(1)}
				explained, err := db.Explain(shape.sql, opts...)
				if err != nil {
					t.Fatal(err)
				}
				analyzed, err := db.Analyze(shape.sql, opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := db.Query(shape.sql, append(opts, WithMetrics())...)
				if err != nil {
					t.Fatal(err)
				}
				// Metrics lists the main plan in pre-order, shared nodes once —
				// the order both renderings print — and then the nested blocks.
				var fromMetrics []string
				for _, op := range res.Metrics().Ops {
					fromMetrics = append(fromMetrics, op.Op)
				}
				fromExplain := planLabels(t, explained, "== physical plan ==\n")
				fromAnalyze := planLabels(t, analyzed, "== physical plan (analyzed) ==\n")
				if !equalStrings(fromExplain, fromAnalyze) {
					t.Errorf("EXPLAIN prints\n  %q\nANALYZE prints\n  %q", fromExplain, fromAnalyze)
				}
				if len(fromMetrics) < len(fromAnalyze) || !equalStrings(fromMetrics[:len(fromAnalyze)], fromAnalyze) {
					t.Fatalf("Metrics reports\n  %q\nANALYZE prints\n  %q", fromMetrics, fromAnalyze)
				}
				// ANALYZE prints each nested block whole; Metrics leaves out
				// the nodes a block shares with what it has already listed.
				rest := fromMetrics[len(fromAnalyze):]
				for n := 1; strings.Contains(analyzed, fmt.Sprintf("-- subquery plan %d ", n)); n++ {
					for _, label := range planLabels(t, analyzed,
						fmt.Sprintf("-- subquery plan %d (evaluated per outer binding) --\n", n)) {
						if len(rest) > 0 && rest[0] == label {
							rest = rest[1:]
						} else if !containsString(fromMetrics, label) {
							t.Errorf("ANALYZE's subquery plan %d prints %q, which Metrics does not report", n, label)
						}
					}
				}
				if len(rest) > 0 {
					t.Errorf("Metrics reports %q, which ANALYZE does not print", rest)
				}
				var rewrites []string
				if i := strings.Index(analyzed, "\nrewrites:\n"); i >= 0 {
					for _, line := range strings.Split(strings.TrimSpace(analyzed[i+len("\nrewrites:\n"):]), "\n") {
						rewrites = append(rewrites, strings.TrimPrefix(strings.TrimSpace(line), "- "))
					}
				}
				if !equalStrings(rewrites, res.Rewrites) {
					t.Errorf("ANALYZE rewrites %q, Result.Rewrites %q", rewrites, res.Rewrites)
				}
			})
		}
	}
}

func containsString(list []string, s string) bool {
	for _, have := range list {
		if have == s {
			return true
		}
	}
	return false
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOneLifecycle: Query, Stmt.Query and Analyze (and Explain where it
// applies) meet the same end in every lifecycle state, because one
// function admits, executes, observes and slow-logs them all.
func TestOneLifecycle(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	type view struct {
		name string
		call func(db *DB, stmt *Stmt, opts ...Option) error
	}
	executing := []view{
		{"Query", func(db *DB, _ *Stmt, opts ...Option) error { _, err := db.Query(gateQuery, opts...); return err }},
		{"Stmt.Query", func(_ *DB, stmt *Stmt, opts ...Option) error { _, err := stmt.Query(opts...); return err }},
		{"Analyze", func(db *DB, _ *Stmt, opts ...Option) error { _, err := db.Analyze(gateQuery, opts...); return err }},
	}
	explain := view{"Explain", func(db *DB, _ *Stmt, opts ...Option) error { _, err := db.Explain(gateQuery, opts...); return err }}
	open := func(t *testing.T, opts ...OpenOption) (*DB, *Stmt) {
		db := gateDB(t, 20, opts...)
		stmt, err := db.Prepare(gateQuery)
		if err != nil {
			t.Fatal(err)
		}
		return db, stmt
	}

	t.Run("closed", func(t *testing.T) {
		db, stmt := open(t)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, v := range append(executing, explain) {
			if err := v.call(db, stmt); !errors.Is(err, ErrClosed) {
				t.Errorf("%s after Close: %v, want ErrClosed", v.name, err)
			}
		}
	})

	t.Run("overloaded", func(t *testing.T) {
		// Result cache off, so every call must execute and so must pass
		// the gate, whose one slot is taken and whose queue holds nobody.
		db, stmt := open(t, WithMaxConcurrent(1), withMaxQueued(-1), WithResultCacheSize(-1))
		defer db.Close()
		if err := db.gate.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer db.gate.release()
		for i, v := range executing {
			err := v.call(db, stmt)
			var qe *QueryError
			if !errors.Is(err, ErrOverloaded) || !errors.As(err, &qe) {
				t.Errorf("%s under a full gate: %v, want a *QueryError wrapping ErrOverloaded", v.name, err)
			}
			if ws := db.WorkloadStats(); ws.Sheds != int64(i+1) || ws.Admission.Shed != int64(i+1) {
				t.Errorf("after %s: telemetry counts %d sheds, the gate %d, want %d each",
					v.name, ws.Sheds, ws.Admission.Shed, i+1)
			}
		}
		if err := explain.call(db, stmt); err != nil {
			t.Errorf("Explain executes nothing and must not be shed: %v", err)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		db, stmt := open(t)
		defer db.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i, v := range executing {
			err := v.call(db, stmt, WithContext(ctx))
			var qe *QueryError
			if !errors.Is(err, context.Canceled) || !errors.As(err, &qe) {
				t.Errorf("%s with a cancelled context: %v, want a *QueryError wrapping context.Canceled", v.name, err)
			}
			if ws := db.WorkloadStats(); ws.Errors != int64(i+1) {
				t.Errorf("after %s: telemetry counts %d errors, want %d", v.name, ws.Errors, i+1)
			}
		}
	})

	t.Run("slow-log", func(t *testing.T) {
		for _, v := range executing {
			db, stmt := open(t, WithSlowQueryThreshold(time.Nanosecond))
			if err := v.call(db, stmt); err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			ws := db.WorkloadStats()
			if ws.SlowTotal != 1 || len(ws.SlowQueries) != 1 {
				t.Fatalf("%s: slow log holds %d entries (%d ever), want 1", v.name, len(ws.SlowQueries), ws.SlowTotal)
			}
			if q := ws.SlowQueries[0]; q.SQL != gateQuery || !strings.Contains(q.Plan, "actual 20 rows") {
				t.Errorf("%s: slow entry %+v does not carry the annotated plan", v.name, q)
			}
			db.Close()
		}
	})

	t.Run("analyze executes but plans once", func(t *testing.T) {
		db, _ := open(t)
		defer db.Close()
		if _, err := db.Query(gateQuery); err != nil { // fills the result cache
			t.Fatal(err)
		}
		before := db.CacheStats()
		first, err := db.Analyze(gateQuery)
		if err != nil {
			t.Fatal(err)
		}
		second, err := db.Analyze(gateQuery)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range []string{first, second} {
			if !strings.Contains(out, "actual 20 rows, calls=1") {
				t.Errorf("Analyze did not execute:\n%s", out)
			}
		}
		after := db.CacheStats()
		if after.Result.Hits != before.Result.Hits || after.Result.Misses != before.Result.Misses ||
			after.Result.Entries != before.Result.Entries {
			t.Errorf("Analyze touched the result cache: %+v → %+v", before.Result, after.Result)
		}
		if got := after.Plan.Hits - before.Plan.Hits; got != 2 {
			t.Errorf("two Analyze calls of a planned statement hit the plan cache %d times, want 2", got)
		}
	})
}
