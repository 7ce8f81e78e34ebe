package disqo

// Concurrency suite for the snapshot-isolated engine: golden plan shapes
// re-executed by concurrent readers against live UPDATE/DELETE/DDL
// churn (every result must match SOME committed snapshot), a mixed
// stress workload (32 readers × 9 writers × 120 iterations) whose
// whole-table-UPDATE invariant catches torn writes, lost-update checks
// on concurrent inserts, the DB-wide shared tuple budget, and chaos
// isolation — an injected fault in one of five concurrent queries must
// never abort or corrupt its neighbors. Everything runs under
// internal/testutil.VerifyNoLeaks and is designed for `go test -race`.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"disqo/internal/faultinject"
	"disqo/internal/testutil"
	"disqo/internal/types"
)

// churnScript is the deterministic DML/DDL sequence the isolation tests
// apply: UPDATEs and DELETEs that change the golden queries' answers,
// plus DDL on a bystander table. Applying it sequentially to a mirror DB
// enumerates every legal committed state.
var churnScript = []string{
	`UPDATE r SET a4 = 100 WHERE a3 = 7`,
	`DELETE FROM r WHERE a3 = 5`,
	`INSERT INTO r VALUES (3, 1, 100, 1600)`,
	`CREATE TABLE aux (x INTEGER)`,
	`UPDATE s SET b4 = 0 WHERE b3 = 1`,
	`INSERT INTO s VALUES (1000, 3, 1, 2000)`,
	`DELETE FROM s WHERE b1 = 10`,
	`INSERT INTO aux VALUES (1)`,
	`UPDATE r SET a1 = 8 WHERE a2 = 2`,
	`DROP TABLE aux`,
	`DELETE FROM r WHERE a4 = 100`,
	`UPDATE s SET b2 = 2 WHERE b3 = 2`,
}

// bagFingerprint renders a result's rows as a bag, sorted, for the
// churn legal sets below. The golden queries have no ORDER BY, and an
// unordered query's row order is a property of its plan, not of the
// data: a plan outlives DML (it is replanned on DDL or row-count drift
// only), so a reader reusing the plan built before a write may return a
// snapshot's rows in another order than a plan built fresh after it.
func bagFingerprint(res *Result) string { return strings.Join(sortedRows(res), "\n") }

// TestSnapshotIsolationGoldenShapes runs each golden plan shape from N
// goroutines while a writer applies churnScript to the live DB. A mirror
// DB applies the same script sequentially first, collecting the
// fingerprint of the query's answer at every commit boundary — the set
// of legal snapshots. Every concurrent result must be the same bag of
// rows as one of them (see bagFingerprint): a torn read (part old table
// version, part new) fails the membership check, and the final states
// of mirror and live DB must agree.
func TestSnapshotIsolationGoldenShapes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const readersPerShape = 4
	for _, plan := range chaosPlans {
		plan := plan
		t.Run(plan.name, func(t *testing.T) {
			fingerprint := func(db *DB) string {
				res, err := db.Query(plan.sql, WithStrategy(plan.strategy))
				if err != nil {
					t.Fatalf("fingerprint query: %v", err)
				}
				return bagFingerprint(res)
			}

			mirror := chaosDB(t, 48, plan.highA4)
			legal := map[string]bool{fingerprint(mirror): true}
			for _, stmt := range churnScript {
				if _, err := mirror.Exec(stmt); err != nil {
					t.Fatalf("mirror %q: %v", stmt, err)
				}
				legal[fingerprint(mirror)] = true
			}

			db := chaosDB(t, 48, plan.highA4)
			stop := make(chan struct{})
			errCh := make(chan error, readersPerShape)
			var wg sync.WaitGroup
			for i := 0; i < readersPerShape; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						res, err := db.Query(plan.sql, WithStrategy(plan.strategy))
						if err != nil {
							errCh <- fmt.Errorf("concurrent reader: %w", err)
							return
						}
						if !legal[bagFingerprint(res)] {
							errCh <- fmt.Errorf("reader observed a result matching no committed snapshot:\n%s",
								bagFingerprint(res))
							return
						}
					}
				}()
			}
			for _, stmt := range churnScript {
				if _, err := db.Exec(stmt); err != nil {
					t.Errorf("live %q: %v", stmt, err)
					break
				}
				time.Sleep(time.Millisecond)
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}
			if got, want := fingerprint(db), fingerprint(mirror); got != want {
				t.Fatalf("final states diverged:\n--- live ---\n%s--- mirror ---\n%s", got, want)
			}
		})
	}
}

// TestStressMixedWorkload is the acceptance stress test: 32 concurrent
// readers and 9 writers (8 whole-table updaters plus a DDL churner) for
// 120 iterations each. Each updater owns one table and commits
// whole-table UPDATEs, so any reader must see all eight rows carrying
// the same value — a torn write would mix two versions. Queries the
// admission gate sheds count as back-pressure, not failures, but must
// arrive as *QueryError wrapping ErrOverloaded.
func TestStressMixedWorkload(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const (
		readers    = 32
		updaters   = 8
		iterations = 120
		tableRows  = 8
	)
	db, _ := Open()
	for k := 0; k < updaters; k++ {
		name := fmt.Sprintf("w%d", k)
		if err := db.CreateTable(name, []Column{{Name: "v", Type: types.KindInt}}); err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, tableRows)
		for i := range rows {
			rows[i] = []Value{types.NewInt(0)}
		}
		if err := db.Insert(name, rows...); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fails []error
		shed  int
	)
	fail := func(err error) {
		mu.Lock()
		if len(fails) < 8 {
			fails = append(fails, err)
		}
		mu.Unlock()
	}

	for k := 0; k < updaters; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= iterations; i++ {
				if _, err := db.Exec(fmt.Sprintf("UPDATE w%d SET v = %d", k, i)); err != nil {
					fail(fmt.Errorf("updater %d iter %d: %w", k, i, err))
					return
				}
			}
		}()
	}
	// The ninth writer churns DDL: repeated CREATE/DROP of a bystander
	// table interleaves catalog version bumps with the updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations/2; i++ {
			if _, err := db.Exec("CREATE TABLE churn (x INTEGER)"); err != nil {
				fail(fmt.Errorf("ddl churner create: %w", err))
				return
			}
			if _, err := db.Exec("DROP TABLE churn"); err != nil {
				fail(fmt.Errorf("ddl churner drop: %w", err))
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				table := (r + i) % updaters
				res, err := db.Query(fmt.Sprintf("SELECT * FROM w%d", table))
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						var qe *QueryError
						if !errors.As(err, &qe) {
							fail(fmt.Errorf("reader %d: shed error is not a *QueryError: %w", r, err))
							return
						}
						mu.Lock()
						shed++
						mu.Unlock()
						continue
					}
					fail(fmt.Errorf("reader %d iter %d: %w", r, i, err))
					return
				}
				if len(res.Rows) != tableRows {
					fail(fmt.Errorf("reader %d: w%d has %d rows, want %d (torn INSERT/DELETE?)",
						r, table, len(res.Rows), tableRows))
					return
				}
				first := res.Rows[0][0]
				for _, row := range res.Rows[1:] {
					if !types.Identical(first, row[0]) {
						fail(fmt.Errorf("reader %d: torn write in w%d: saw both %s and %s",
							r, table, first, row[0]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range fails {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	// Every updater's final commit must be visible.
	for k := 0; k < updaters; k++ {
		res, err := db.Query(fmt.Sprintf("SELECT DISTINCT * FROM w%d", k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || !types.Identical(res.Rows[0][0], types.NewInt(iterations)) {
			t.Fatalf("w%d final state: %v, want all rows = %d", k, res.Rows, iterations)
		}
	}
	if shed > 0 {
		t.Logf("admission gate shed %d reads (classified, tolerated)", shed)
	}
}

// TestConcurrentInsertsNoLostUpdates drives the writer-serialization
// path: concurrent db.Insert calls and INSERT statements against one
// table must all commit — a lost copy-on-write update would drop rows.
func TestConcurrentInsertsNoLostUpdates(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := gateDB(t, 0)
	const (
		apiWriters = 8
		sqlWriters = 4
		perAPI     = 50
		perSQL     = 25
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fails []error
	for w := 0; w < apiWriters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perAPI; i++ {
				err := db.Insert("k", []Value{types.NewInt(int64(w)), types.NewInt(int64(i))})
				if err != nil {
					mu.Lock()
					fails = append(fails, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	for w := 0; w < sqlWriters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSQL; i++ {
				if _, err := db.Exec("INSERT INTO k VALUES (99, 99)"); err != nil {
					mu.Lock()
					fails = append(fails, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range fails {
		t.Fatal(err)
	}
	want := apiWriters*perAPI + sqlWriters*perSQL
	if n, err := db.RowCount("k"); err != nil || n != want {
		t.Fatalf("RowCount = %d, %v; want %d (lost updates)", n, err, want)
	}
}

// TestSharedTupleBudget covers the DB-wide resource governor end to end:
// sequential queries under a budget equal to one query's peak all
// succeed (proving the charge is released when each query closes), and a
// second query launched while the first is parked with its tuples
// resident deterministically aborts with ErrMemoryLimit — reachable as
// the documented ErrTupleLimit alias — then succeeds once the budget
// frees up.
func TestSharedTupleBudget(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const rows = 200
	base := gateDB(t, rows)
	res, err := base.Query(gateQuery, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	peak := res.Stats.PeakTuples
	if peak < int64(rows) {
		t.Fatalf("peak resident %d below table size %d; budget test assumptions broken", peak, rows)
	}

	db := gateDB(t, rows, WithSharedTupleLimit(peak))
	for i := 0; i < 3; i++ {
		if _, err := db.Query(gateQuery, WithWorkers(1)); err != nil {
			t.Fatalf("sequential run %d under exact budget failed: %v (budget leak?)", i, err)
		}
	}

	// Park query 1 after its first operator pinned output tuples.
	tr := newBlockTracer(true)
	first := make(chan error, 1)
	go func() {
		_, err := db.Query(gateQuery, WithWorkers(1), WithTracer(tr))
		first <- err
	}()
	<-tr.started
	if db.budget.Resident() == 0 {
		t.Fatal("parked query holds no resident tuples; blocking site moved")
	}

	_, err = db.Query(gateQuery, WithWorkers(1))
	if !errors.Is(err, ErrTupleLimit) || !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("over-budget query returned %v, want ErrTupleLimit (= ErrMemoryLimit)", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("budget error %T is not a *QueryError", err)
	}

	close(tr.release)
	if err := <-first; err != nil {
		t.Fatalf("parked query failed after release: %v", err)
	}
	if got := db.budget.Resident(); got != 0 {
		t.Fatalf("budget still holds %d tuples after all queries closed", got)
	}
	if _, err := db.Query(gateQuery, WithWorkers(1)); err != nil {
		t.Fatalf("query after budget freed failed: %v", err)
	}
}

// TestCachedReadersUnderChurn is the invalidation-race test: readers
// hammer ONE golden shape — so warm result-cache hits happen constantly
// — while a writer applies churnScript to the live DB. A stale hit
// would serve rows matching no committed snapshot; the legal-set
// membership check, on bags of rows, catches it. Afterwards the cache must converge: a
// refill query followed by a deterministic hit, both matching the
// mirror's final state.
func TestCachedReadersUnderChurn(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const readers = 6
	for _, plan := range []struct{ idx int }{{2}, {0}} { // fig2c unnested, fig2a canonical
		plan := chaosPlans[plan.idx]
		t.Run(plan.name, func(t *testing.T) {
			fingerprint := func(db *DB) string {
				res, err := db.Query(plan.sql, WithStrategy(plan.strategy))
				if err != nil {
					t.Fatalf("fingerprint query: %v", err)
				}
				return bagFingerprint(res)
			}

			mirror := chaosDBWith(t, 48, plan.highA4, WithoutCache())
			legal := map[string]bool{fingerprint(mirror): true}
			for _, stmt := range churnScript {
				if _, err := mirror.Exec(stmt); err != nil {
					t.Fatalf("mirror %q: %v", stmt, err)
				}
				legal[fingerprint(mirror)] = true
			}

			db := chaosDB(t, 48, plan.highA4)
			stop := make(chan struct{})
			errCh := make(chan error, readers)
			var wg sync.WaitGroup
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						res, err := db.Query(plan.sql, WithStrategy(plan.strategy))
						if err != nil {
							errCh <- fmt.Errorf("cached reader: %w", err)
							return
						}
						if !legal[bagFingerprint(res)] {
							errCh <- fmt.Errorf("cached reader observed a result matching no committed snapshot:\n%s",
								bagFingerprint(res))
							return
						}
					}
				}()
			}
			for _, stmt := range churnScript {
				if _, err := db.Exec(stmt); err != nil {
					t.Errorf("live %q: %v", stmt, err)
					break
				}
				time.Sleep(time.Millisecond)
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}

			// Churn is over: one refill, then a guaranteed warm hit, both
			// equal to the mirror's final committed state.
			final := fingerprint(mirror)
			if got := fingerprint(db); got != final {
				t.Fatalf("post-churn refill diverged from mirror:\n--- live ---\n%s--- mirror ---\n%s", got, final)
			}
			before := db.CacheStats()
			if got := fingerprint(db); got != final {
				t.Fatal("post-churn warm read diverged from mirror")
			}
			if after := db.CacheStats(); after.Result.Hits != before.Result.Hits+1 {
				t.Fatal("post-churn second read was not a result-cache hit")
			}
			if cs := db.CacheStats(); cs.Result.Invalidations == 0 {
				t.Fatal("churn produced no cache invalidations; the race was never exercised")
			}
		})
	}
}

// TestSingleFlightOwnerFault runs a fault-armed query concurrently with
// clean twins asking the exact same question. Fault-injected queries
// never read or join cleanly — but clean arrivals may coalesce behind
// the faulted owner's flight. Every legal outcome for a twin is either
// the baseline rows (it executed, hit, or waited on a clean owner) or a
// classified *QueryError resolving faultinject.ErrInjected (it waited
// on the faulted owner); the error must never be cached, so a fresh
// query afterwards always returns the baseline.
func TestSingleFlightOwnerFault(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	target := chaosPlans[2] // fig2c-q1-unnested
	const twins = 4

	// Discover injection sites on a throwaway DB.
	probe := chaosDB(t, 64, target.highA4)
	baselineRes, err := probe.Query(target.sql, WithStrategy(target.strategy))
	if err != nil {
		t.Fatal(err)
	}
	baseline := rowsFingerprint(baselineRes)
	rec := faultinject.New()
	if _, err := probe.Query(target.sql, WithStrategy(target.strategy), withFaultInjector(rec)); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(rec.Visits())
	if len(keys) == 0 {
		t.Fatal("no injection points recorded")
	}
	picks := []faultinject.Key{keys[0], keys[len(keys)-1]}

	for _, key := range picks {
		for _, panics := range []bool{false, true} {
			key, panics := key, panics
			t.Run(fmt.Sprintf("%s@%d panic=%v", key.Site, key.Node, panics), func(t *testing.T) {
				// Fresh DB per trial: an empty cache makes the faulted
				// query the flight owner whenever it registers first.
				db := chaosDB(t, 64, target.highA4)
				var wg sync.WaitGroup
				faultErr := make(chan error, 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					fi := faultinject.New()
					fi.Arm(key.Site, key.Node, 1, panics)
					_, err := db.Query(target.sql, WithStrategy(target.strategy), withFaultInjector(fi))
					faultErr <- err
				}()
				time.Sleep(100 * time.Microsecond) // bias the race toward a faulted owner
				twinErrs := make(chan error, twins)
				for i := 0; i < twins; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := db.Query(target.sql, WithStrategy(target.strategy))
						if err != nil {
							var qe *QueryError
							if !errors.As(err, &qe) {
								twinErrs <- fmt.Errorf("twin error %T is not a *QueryError: %w", err, err)
								return
							}
							if !errors.Is(err, faultinject.ErrInjected) {
								twinErrs <- fmt.Errorf("twin failed with a non-injected cause: %w", err)
							}
							return
						}
						if rowsFingerprint(res) != baseline {
							twinErrs <- errors.New("clean twin served rows differing from the baseline")
						}
					}()
				}
				wg.Wait()
				if err := <-faultErr; err == nil {
					t.Fatal("armed fault did not surface in the target query")
				} else if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("target error does not resolve the injected cause: %v", err)
				}
				close(twinErrs)
				for err := range twinErrs {
					t.Error(err)
				}
				// No poisoned entry: the next clean query re-executes (or
				// hits a clean twin's fill) and matches the baseline.
				res, err := db.Query(target.sql, WithStrategy(target.strategy))
				if err != nil {
					t.Fatalf("query after faulted flight: %v", err)
				}
				if rowsFingerprint(res) != baseline {
					t.Fatal("faulted flight poisoned the cache")
				}
			})
		}
	}
}

// TestChaosConcurrentIsolation arms a deterministic fault in one query
// while four clean queries (the other golden shapes) run concurrently
// against the same DB, repeatedly: the injected error or panic must
// surface only in the faulted query, every neighbor must return its
// exact baseline rows, and the DB must stay fully usable afterwards.
func TestChaosConcurrentIsolation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := chaosDB(t, 64, false)

	// The five shapes that share the low-a4 dataset; the first is the
	// fault target, the rest run clean alongside it.
	var plans []struct {
		name     string
		sql      string
		strategy Strategy
		highA4   bool
	}
	for _, p := range chaosPlans {
		if !p.highA4 {
			plans = append(plans, p)
		}
	}
	target := plans[0]
	neighbors := plans[1:]
	if len(neighbors)+1 < 5 {
		t.Fatalf("need at least 5 concurrent queries, have %d", len(neighbors)+1)
	}

	baselines := make(map[string]string, len(plans))
	for _, p := range plans {
		res, err := db.Query(p.sql, WithStrategy(p.strategy), WithWorkers(2))
		if err != nil {
			t.Fatalf("%s baseline: %v", p.name, err)
		}
		baselines[p.name] = rowsFingerprint(res)
	}

	rec := faultinject.New()
	if _, err := db.Query(target.sql, WithStrategy(target.strategy), WithWorkers(2),
		withFaultInjector(rec)); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(rec.Visits())
	if len(keys) == 0 {
		t.Fatal("no injection points recorded")
	}
	picks := []faultinject.Key{keys[0], keys[len(keys)/2], keys[len(keys)-1]}

	for _, key := range picks {
		for _, panics := range []bool{false, true} {
			key, panics := key, panics
			t.Run(fmt.Sprintf("%s@%d panic=%v", key.Site, key.Node, panics), func(t *testing.T) {
				var wg sync.WaitGroup
				wg.Add(1)
				faultErr := make(chan error, 1)
				go func() {
					defer wg.Done()
					fi := faultinject.New()
					fi.Arm(key.Site, key.Node, 1, panics)
					_, err := db.Query(target.sql, WithStrategy(target.strategy),
						WithWorkers(2), withFaultInjector(fi))
					faultErr <- err
				}()
				for _, p := range neighbors {
					p := p
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := db.Query(p.sql, WithStrategy(p.strategy), WithWorkers(2))
						if err != nil {
							t.Errorf("neighbor %s aborted by a fault in another query: %v", p.name, err)
							return
						}
						if got := rowsFingerprint(res); got != baselines[p.name] {
							t.Errorf("neighbor %s corrupted by a fault in another query", p.name)
						}
					}()
				}
				wg.Wait()
				err := <-faultErr
				if err == nil {
					t.Fatal("armed fault did not surface in the target query")
				}
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("target error does not resolve the injected cause: %v", err)
				}
			})
		}
	}

	// After every trial the DB answers all shapes correctly.
	for _, p := range plans {
		res, err := db.Query(p.sql, WithStrategy(p.strategy), WithWorkers(2))
		if err != nil {
			t.Fatalf("%s after chaos: %v", p.name, err)
		}
		if rowsFingerprint(res) != baselines[p.name] {
			t.Fatalf("%s drifted after chaos", p.name)
		}
	}
}

// TestViewRedefinitionRacesReaders: tables and views are one committed
// state, so a reader can never expand a view definition from one commit
// over table rows from another. One writer loops INSERT marker i →
// DROP VIEW v → CREATE VIEW v … WHERE a >= i while four readers query
// the view, ad hoc and prepared, with the caches on and off. Between
// two commits the legal answers are {i-1} (old filter, old rows),
// {i-1, i} (old filter, new row), the dropped view's error, and {i}
// (new filter, new rows): always one marker or two adjacent ones. The
// new filter over the old rows would answer nothing, the old filter
// over later rows three markers or more — as would a plan built from a
// definition but cached under a key older than it.
func TestViewRedefinitionRacesReaders(t *testing.T) {
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			var opts []OpenOption
			if !cached {
				opts = append(opts, WithoutCache())
			}
			db, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			execAll(t, db,
				"CREATE TABLE t (a INTEGER)",
				"INSERT INTO t VALUES (0)",
				"CREATE VIEW v AS SELECT a FROM t WHERE a >= 0")
			const query = "SELECT a FROM v"
			stmt, err := db.Prepare(query)
			if err != nil {
				t.Fatal(err)
			}
			defer stmt.Close()

			const rounds = 40
			stop := make(chan struct{})
			var wg, warm sync.WaitGroup // warm: every reader has answered once
			for r := 0; r < 4; r++ {
				run := func() (*Result, error) { return db.Query(query) }
				if r%2 == 1 {
					run = func() (*Result, error) { return stmt.Query() }
				}
				wg.Add(1)
				warm.Add(1)
				go func(r int) {
					defer wg.Done()
					var once sync.Once
					defer once.Do(warm.Done)
					floor := int64(0) // markers only move forward
					for n := 0; ; n++ {
						if n == 1 {
							once.Do(warm.Done)
						}
						select {
						case <-stop:
							return
						default:
						}
						res, err := run()
						if err != nil {
							if !strings.Contains(err.Error(), `no table "v"`) {
								t.Errorf("reader %d: %v", r, err)
								return
							}
							continue
						}
						lo, hi := int64(math.MaxInt64), int64(-1)
						for _, row := range res.Rows {
							lo, hi = min(lo, row[0].Int()), max(hi, row[0].Int())
						}
						if n := int64(len(res.Rows)); n < 1 || n > 2 || hi-lo != n-1 || lo < floor {
							t.Errorf("reader %d: answer %v (after marker %d) mixes a view definition and table rows of different commits", r, res.Rows, floor)
							return
						}
						floor = lo
					}
				}(r)
			}
			warm.Wait()
			for i := 1; i <= rounds; i++ {
				for _, sql := range []string{
					fmt.Sprintf("INSERT INTO t VALUES (%d)", i),
					"DROP VIEW v",
					fmt.Sprintf("CREATE VIEW v AS SELECT a FROM t WHERE a >= %d", i),
				} {
					if _, err := db.Exec(sql); err != nil {
						t.Errorf("%s: %v", sql, err)
					}
					runtime.Gosched()
				}
			}
			close(stop)
			wg.Wait()
			res, err := db.Query(query)
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != rounds {
				t.Errorf("final answer %v, %v; want the one marker %d", res, err, rounds)
			}
		})
	}
}
