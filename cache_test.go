package disqo

// Cache suite for the three-tier caching subsystem (internal/cache plus
// the DB wiring in dbcache.go): warm result-cache hits must be
// byte-identical to fresh executions, DML/DDL must invalidate dependent
// entries before the writing Exec returns, single-flight must collapse
// concurrent identical cold queries into one execution, eviction must
// respect the configured byte capacities and the shared tuple budget,
// and a cache-disabled DB must produce byte-identical results. Internal
// (package disqo) to reach gateDB/chaosDB and the unexported
// withFaultInjector hook.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"disqo/internal/testutil"
)

// TestWarmHitByteIdentical runs every golden shape cold then warm: the
// second run must be a result-cache hit and identical in rows, columns,
// execution counters, and rewrite trace.
func TestWarmHitByteIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, plan := range chaosPlans {
		plan := plan
		t.Run(plan.name, func(t *testing.T) {
			db := chaosDB(t, 64, plan.highA4)
			cold, err := db.Query(plan.sql, WithStrategy(plan.strategy))
			if err != nil {
				t.Fatal(err)
			}
			before := db.CacheStats()
			warm, err := db.Query(plan.sql, WithStrategy(plan.strategy))
			if err != nil {
				t.Fatal(err)
			}
			after := db.CacheStats()
			if after.Result.Hits != before.Result.Hits+1 {
				t.Fatalf("warm run was not a result-cache hit: %+v -> %+v", before.Result, after.Result)
			}
			if got, want := rowsFingerprint(warm), rowsFingerprint(cold); got != want {
				t.Fatalf("warm hit differs from cold run:\n--- warm ---\n%s--- cold ---\n%s", got, want)
			}
			if got, want := strings.Join(warm.Columns, ","), strings.Join(cold.Columns, ","); got != want {
				t.Fatalf("warm columns %q != cold columns %q", got, want)
			}
			if warm.Stats != cold.Stats {
				t.Fatalf("warm Stats %+v != cold Stats %+v", warm.Stats, cold.Stats)
			}
			if got, want := strings.Join(warm.Rewrites, ";"), strings.Join(cold.Rewrites, ";"); got != want {
				t.Fatalf("warm rewrites %q != cold rewrites %q", got, want)
			}
		})
	}
}

// TestWarmHitAcrossWhitespace: a reformatted statement normalizes to
// the same plan-cache key and fingerprints to the same physical plan,
// so it hits both tiers.
func TestWarmHitAcrossWhitespace(t *testing.T) {
	db := chaosDB(t, 48, false)
	cold, err := db.Query(chaosQ1)
	if err != nil {
		t.Fatal(err)
	}
	reformatted := strings.Join(strings.Fields(chaosQ1), " ") + "   "
	before := db.CacheStats()
	warm, err := db.Query(reformatted)
	if err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Plan.Hits != before.Plan.Hits+1 {
		t.Fatal("reformatted statement missed the plan cache")
	}
	if after.Result.Hits != before.Result.Hits+1 {
		t.Fatal("reformatted statement missed the result cache")
	}
	if rowsFingerprint(warm) != rowsFingerprint(cold) {
		t.Fatal("reformatted statement returned different rows")
	}
}

// TestStrategiesDoNotShareResults: S1 and Canonical optimize to the
// same logical plan, but their executions count work differently, so a
// result cached under one strategy must not be served to the other.
func TestStrategiesDoNotShareResults(t *testing.T) {
	db := chaosDB(t, 48, false)
	canon, err := db.Query(chaosQ1, WithStrategy(Canonical))
	if err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	s1, err := db.Query(chaosQ1, WithStrategy(S1))
	if err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Result.Hits != before.Result.Hits {
		t.Fatal("S1 run was served the canonical strategy's cached result")
	}
	if rowsFingerprint(s1) != rowsFingerprint(canon) {
		t.Fatal("strategies disagree on rows")
	}
	if s1.Stats == canon.Stats {
		t.Fatal("S1 and canonical report identical Stats; the strategies no longer differ and the separate cache keys are untestable")
	}
}

// TestCacheDisabledByteIdentical: a WithoutCache DB must answer every
// golden shape byte-identically to a cached DB (cold and warm), and its
// counters must stay zero.
func TestCacheDisabledByteIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, plan := range chaosPlans {
		plan := plan
		t.Run(plan.name, func(t *testing.T) {
			cached := chaosDB(t, 48, plan.highA4)
			plain := chaosDBWith(t, 48, plan.highA4, WithoutCache())
			var prints []string
			for _, db := range []*DB{cached, cached, plain, plain} {
				res, err := db.Query(plan.sql, WithStrategy(plan.strategy))
				if err != nil {
					t.Fatal(err)
				}
				prints = append(prints, rowsFingerprint(res))
			}
			for i, p := range prints[1:] {
				if p != prints[0] {
					t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i+1, p, prints[0])
				}
			}
			if cs := plain.CacheStats(); cs != (CacheStats{}) {
				t.Fatalf("WithoutCache DB recorded cache activity: %+v", cs)
			}
		})
	}
}

// TestDMLInvalidatesBeforeExecReturns: a committed write drops every
// cached result referencing the written table before Exec returns, and
// entries on untouched tables survive.
func TestDMLInvalidatesBeforeExecReturns(t *testing.T) {
	db := chaosDB(t, 48, false)
	if _, err := db.Query(chaosQ1); err != nil { // references r and s
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT DISTINCT * FROM t`); err != nil {
		t.Fatal(err)
	}
	if cs := db.CacheStats(); cs.Result.Entries != 2 {
		t.Fatalf("expected 2 resident entries, have %+v", cs.Result)
	}

	mirror := chaosDB(t, 48, false)
	for _, stmt := range []string{
		`UPDATE r SET a4 = 0 WHERE a3 = 1`,
		`INSERT INTO s VALUES (999, 3, 1, 2000)`,
		`DELETE FROM r WHERE a3 = 2`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		// The write's dependents are gone the moment Exec returns; the
		// t-only entry is untouched.
		cs := db.CacheStats()
		if cs.Result.Entries != 1 {
			t.Fatalf("after %q: %d entries resident, want only the t scan", stmt, cs.Result.Entries)
		}
		if _, err := mirror.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		got, err := db.Query(chaosQ1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mirror.Query(chaosQ1)
		if err != nil {
			t.Fatal(err)
		}
		if rowsFingerprint(got) != rowsFingerprint(want) {
			t.Fatalf("after %q the cached DB diverged from the mirror", stmt)
		}
		// That re-execution refilled the cache for the next iteration.
	}
	if cs := db.CacheStats(); cs.Result.Invalidations < 3 {
		t.Fatalf("invalidations = %d, want at least one per write", cs.Result.Invalidations)
	}
	// The untouched-table entry still hits.
	before := db.CacheStats()
	if _, err := db.Query(`SELECT DISTINCT * FROM t`); err != nil {
		t.Fatal(err)
	}
	if after := db.CacheStats(); after.Result.Hits != before.Result.Hits+1 {
		t.Fatal("entry on an unwritten table was lost to invalidation")
	}
}

// TestViewRedefinitionInvalidatesPlans: view DDL writes no table, but it
// is a catalog commit like any other and bumps the version the plan
// cache keys on — a redefined view must change the answer immediately.
func TestViewRedefinitionInvalidatesPlans(t *testing.T) {
	db := gateDB(t, 8)
	if _, err := db.Exec(`CREATE VIEW kv AS SELECT DISTINCT * FROM k`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT DISTINCT * FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("view query returned %d rows, want 8", len(res.Rows))
	}
	if _, err := db.Exec(`DROP VIEW kv`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE VIEW kv AS SELECT DISTINCT * FROM k WHERE w = 0`); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`SELECT DISTINCT * FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 8 {
		t.Fatal("query through the redefined view served the stale plan's answer")
	}
}

// TestResultCacheEvictionPressure: distinct results under a tight byte
// capacity evict LRU-first; residency stays within the cap and recent
// entries survive while the oldest are gone.
func TestResultCacheEvictionPressure(t *testing.T) {
	const capBytes = 1200
	db := gateDB(t, 8, WithResultCacheSize(capBytes))
	query := func(v int) string {
		return fmt.Sprintf(`SELECT DISTINCT * FROM k WHERE v = %d`, v)
	}
	const n = 6
	for v := 0; v < n; v++ {
		if _, err := db.Query(query(v)); err != nil {
			t.Fatal(err)
		}
	}
	cs := db.CacheStats()
	if cs.Result.Bytes > capBytes {
		t.Fatalf("resident bytes %d exceed the %d cap", cs.Result.Bytes, capBytes)
	}
	if cs.Result.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", cs.Result)
	}
	if cs.Result.Entries == 0 || cs.Result.Entries >= n {
		t.Fatalf("entries = %d, want within (0, %d)", cs.Result.Entries, n)
	}
	// The most recent query is resident; the oldest was evicted.
	before := db.CacheStats()
	if _, err := db.Query(query(n - 1)); err != nil {
		t.Fatal(err)
	}
	mid := db.CacheStats()
	if mid.Result.Hits != before.Result.Hits+1 {
		t.Fatal("most recent entry was evicted before older ones")
	}
	if _, err := db.Query(query(0)); err != nil {
		t.Fatal(err)
	}
	if after := db.CacheStats(); after.Result.Hits != mid.Result.Hits {
		t.Fatal("oldest entry survived LRU pressure")
	}
}

// TestPlanCacheEvictionPressure mirrors the result-tier test for the
// plan tier.
func TestPlanCacheEvictionPressure(t *testing.T) {
	db := gateDB(t, 4, WithPlanCacheSize(4096), WithResultCacheSize(-1))
	for v := 0; v < 8; v++ {
		sql := fmt.Sprintf(`SELECT DISTINCT * FROM k WHERE v = %d`, v)
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	cs := db.CacheStats()
	if cs.Plan.Hits == 0 {
		t.Fatalf("repeated statements never hit the plan cache: %+v", cs.Plan)
	}
	if cs.Plan.Bytes > 4096 {
		t.Fatalf("plan cache holds %d bytes over its 4096 cap", cs.Plan.Bytes)
	}
	if cs.Plan.Evictions == 0 {
		t.Fatalf("no plan evictions under pressure: %+v", cs.Plan)
	}
	if cs.Result != (CacheTierStats{}) {
		t.Fatalf("disabled result tier recorded activity: %+v", cs.Result)
	}
}

// TestCachedTuplesChargeSharedBudget: cached rows are pinned against
// the WithSharedTupleLimit pool and released when invalidation drops
// the entry.
func TestCachedTuplesChargeSharedBudget(t *testing.T) {
	const rows = 50
	db := gateDB(t, rows, WithSharedTupleLimit(10000))
	if _, err := db.Query(gateQuery, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if got := db.budget.Resident(); got != rows {
		t.Fatalf("budget holds %d tuples after the fill, want the %d cached rows", got, rows)
	}
	if _, err := db.Exec(`DELETE FROM k WHERE v = 0`); err != nil {
		t.Fatal(err)
	}
	if got := db.budget.Resident(); got != 0 {
		t.Fatalf("budget still holds %d tuples after invalidation dropped the entry", got)
	}
	if _, err := db.Query(gateQuery, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if got := db.budget.Resident(); got != rows-1 {
		t.Fatalf("budget holds %d tuples after refill, want %d", got, rows-1)
	}
}

// TestSingleFlightCollapse is the acceptance criterion: of 8 concurrent
// identical cold queries exactly one executes; the rest are served the
// owner's result. Asserted through each result's metrics (the root
// operator ran exactly once; only one result's source is "execution")
// and the DB counters (hits + single-flight waits account for the other
// seven).
func TestSingleFlightCollapse(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := chaosDB(t, 96, false)
	const n = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []*Result
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := db.Query(chaosQ1, WithStrategy(Canonical), WithMetrics())
			if err != nil {
				t.Errorf("concurrent query: %v", err)
				return
			}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(results) != n {
		t.Fatalf("%d of %d queries returned", len(results), n)
	}
	executions := 0
	for _, res := range results {
		pm := res.Metrics()
		if pm == nil || pm.Cache == nil {
			t.Fatal("metrics query returned no cache report")
		}
		switch pm.Cache.Source {
		case "execution":
			executions++
		case "result-cache", "single-flight":
		default:
			t.Fatalf("unexpected cache source %q", pm.Cache.Source)
		}
		if root := pm.Op(pm.Root); root == nil || root.Calls != 1 {
			t.Fatalf("root operator report %+v, want exactly one call", root)
		}
		if rowsFingerprint(res) != rowsFingerprint(results[0]) {
			t.Fatal("concurrent identical queries disagree on rows")
		}
	}
	if executions != 1 {
		t.Fatalf("%d of %d concurrent identical queries executed, want exactly 1", executions, n)
	}
	if cs := db.CacheStats(); cs.Result.Hits+cs.Result.Waits != n-1 {
		t.Fatalf("hits(%d) + waits(%d) != %d served queries",
			cs.Result.Hits, cs.Result.Waits, n-1)
	}
}

// TestWarmHitLatency is the acceptance criterion for hit speed: a warm
// result-cache hit on a golden shape must be at least 10× faster than a
// fresh execution. The canonical strategy's quadratic re-evaluation
// makes cold runs comfortably slow at 256 rows; both sides take the
// fastest of several runs to shed scheduler noise.
func TestWarmHitLatency(t *testing.T) {
	cached := chaosDB(t, 256, false)
	plain := chaosDBWith(t, 256, false, WithoutCache())

	if _, err := cached.Query(chaosQ1, WithStrategy(Canonical)); err != nil {
		t.Fatal(err)
	}
	best := func(db *DB, runs int) time.Duration {
		min := time.Duration(1<<62 - 1)
		for i := 0; i < runs; i++ {
			begin := time.Now()
			if _, err := db.Query(chaosQ1, WithStrategy(Canonical)); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(begin); d < min {
				min = d
			}
		}
		return min
	}
	cold := best(plain, 3)
	warm := best(cached, 10)
	if cs := cached.CacheStats(); cs.Result.Hits < 10 {
		t.Fatalf("warm runs were not hits: %+v", cs.Result)
	}
	if warm*10 > cold {
		t.Fatalf("warm hit %v is not 10x faster than cold execution %v", warm, cold)
	}
}

// TestPlanKeyKeepsLiteralsApart: the plan-cache key collapses
// whitespace between tokens only. Two statements that differ inside a
// string literal are different statements — the second must not be
// served the first one's plan (and with it, the first one's rows).
func TestPlanKeyKeepsLiteralsApart(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	for _, sql := range []string{
		"CREATE TABLE p (name VARCHAR, v INTEGER)",
		"INSERT INTO p VALUES ('a b', 1), ('a  b', 2)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT v FROM p WHERE name = 'a b'", "(1)\n"},
		{"SELECT v FROM p WHERE name = 'a  b'", "(2)\n"},
		{"SELECT v FROM p WHERE name = 'a b' -- 'a  b'", "(1)\n"},
		{"SELECT v FROM p -- WHERE name = 'a b'\n WHERE name = 'a  b'", "(2)\n"},
	} {
		res, err := db.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := rowsFingerprint(res); got != tc.want {
			t.Errorf("%q returned %q, want %q", tc.sql, got, tc.want)
		}
	}
	if cs := db.CacheStats(); cs.Plan.Hits != 0 || cs.Plan.Misses != 4 {
		t.Errorf("four different statements: plan cache reports %d hits, %d misses", cs.Plan.Hits, cs.Plan.Misses)
	}
}
