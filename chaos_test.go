package disqo

// Chaos suite for the fault-injection layer (internal/faultinject): for
// each of the golden plan shapes (Fig. 2a–d, Fig. 3a–b, tagged Eqv. 5)
// at worker counts {1, 4}, a recording pass enumerates every reachable injection
// point — operator entries, morsel boundaries, memo fills — and then
// each point is armed in turn, first as an error and again as a panic.
// Every armed run must surface a *QueryError whose chain resolves the
// injected cause, never crash, and never leak a goroutine; runs with
// the injector present but silent must be byte-identical to
// uninstrumented runs; and after the whole sweep (dozens of recovered
// panics) the DB must still answer the query correctly.
//
// This is an internal test (package disqo) so it can reach the
// unexported withFaultInjector option: injection is a test facility,
// not public API.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"disqo/internal/exec"
	"disqo/internal/faultinject"
	"disqo/internal/testutil"
	"disqo/internal/types"
)

// chaosDB builds the RST catalog with a small deterministic dataset.
// With highA4 the r.a4 column lands entirely above 1500, which flips
// the selectivity rank of Q1's cheap disjunct — the data regime of
// Fig. 2(d) versus the low-a4 regime of Fig. 2(b/c).
func chaosDB(t testing.TB, rows int, highA4 bool) *DB {
	t.Helper()
	return chaosDBWith(t, rows, highA4)
}

// chaosDBWith is chaosDB with Open options (the cache suite compares
// cached and cache-disabled databases over the same dataset).
func chaosDBWith(t testing.TB, rows int, highA4 bool, opts ...OpenOption) *DB {
	t.Helper()
	db, _ := Open(opts...)
	for _, spec := range []struct{ name, p string }{{"r", "a"}, {"s", "b"}, {"t", "c"}} {
		cols := []Column{
			{Name: spec.p + "1", Type: types.KindInt},
			{Name: spec.p + "2", Type: types.KindInt},
			{Name: spec.p + "3", Type: types.KindInt},
			{Name: spec.p + "4", Type: types.KindInt},
		}
		if err := db.CreateTable(spec.name, cols); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		a4 := int64((i * 37) % 2000)
		if highA4 {
			a4 = int64(1600 + i)
		}
		// a1 ∈ 0..39 covers both subquery count regimes: Q1's COUNT
		// DISTINCT per b2 group is 8, Q2's disjunctive COUNT(*) lands
		// around 32 — both reachable, so both queries return rows.
		// a2 ∈ 0..7 joins s.b2 and a4 decides the cheap disjunct.
		if err := db.Insert("r", []Value{
			types.NewInt(int64(i % 40)), types.NewInt(int64(i % 8)),
			types.NewInt(int64(i)), types.NewInt(a4),
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("s", []Value{
			types.NewInt(int64(i)), types.NewInt(int64(i % 8)),
			types.NewInt(int64(i % 3)), types.NewInt(int64((i * 53) % 3000)),
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("t", []Value{
			types.NewInt(int64(i)), types.NewInt(int64(i % 4)),
			types.NewInt(int64(i % 5)), types.NewInt(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// rowsFingerprint renders a result's rows in order; byte-identical
// fingerprints are the suite's determinism check.
func rowsFingerprint(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(types.FormatTuple(row))
		b.WriteByte('\n')
	}
	return b.String()
}

// chaosPlans are the golden shapes: Fig. 2(a) canonical Q1,
// Fig. 2(b) conjunctive+bypass Q1 (S2's OR-expansion regime),
// Fig. 2(c) fully unnested Q1, Fig. 2(d) the same plan under the
// flipped-rank data, Fig. 3(a) canonical Q2, Fig. 3(b) unnested Q2, and
// Q2 with a non-decomposable aggregate, whose tagged Eqv. 5 plan puts
// the tagged Γ²'s sites (operator entry, the hash build over the
// untagged tuples, the probe morsels) into the sweep.
var chaosPlans = []struct {
	name     string
	sql      string
	strategy Strategy
	highA4   bool
}{
	{"fig2a-q1-canonical", chaosQ1, Canonical, false},
	{"fig2b-q1-s2", chaosQ1, S2, false},
	{"fig2c-q1-unnested", chaosQ1, Unnested, false},
	{"fig2d-q1-unnested-flipped", chaosQ1, Unnested, true},
	{"fig3a-q2-canonical", chaosQ2, Canonical, false},
	{"fig3b-q2-unnested", chaosQ2, Unnested, false},
	{"eqv5-q2-distinct-unnested", chaosQ2Distinct, Unnested, false},
}

const (
	chaosQ1 = `SELECT DISTINCT * FROM r
	           WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	              OR a4 > 1500`
	chaosQ2 = `SELECT DISTINCT * FROM r
	           WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)`
	chaosQ2Distinct = `SELECT DISTINCT * FROM r
	           WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s WHERE a2 = b2 OR b4 > 1500)`
)

// sortedKeys orders an injection-point map for deterministic sweeps.
func sortedKeys(visits map[faultinject.Key]int64) []faultinject.Key {
	keys := make([]faultinject.Key, 0, len(visits))
	for k := range visits {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Node < keys[j].Node
	})
	return keys
}

func TestChaosGoldenPlans(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, plan := range chaosPlans {
		plan := plan
		t.Run(plan.name, func(t *testing.T) {
			db := chaosDB(t, 64, plan.highA4)
			for _, path := range []ExecutionPath{PathVector, PathRow} {
				for _, workers := range []int{1, 4} {
					path, workers := path, workers
					t.Run(fmt.Sprintf("path=%s/workers=%d", path, workers), func(t *testing.T) {
						runChaosSweep(t, db, plan.sql, plan.strategy, workers, path)
					})
				}
			}
		})
	}
}

// runChaosSweep is one (plan, path, workers) cell of the chaos matrix.
// On the vector path the recording pass must reach at least one
// vectorized-kernel entry (SiteVec) — every golden shape has an
// eligible node — and on the row path none, so the sweep covers faults
// striking inside vectorized kernels as soon as any node runs one.
func runChaosSweep(t *testing.T, db *DB, sql string, s Strategy, workers int, path ExecutionPath) {
	t.Helper()
	opts := func(extra ...Option) []Option {
		return append([]Option{WithStrategy(s), WithWorkers(workers), WithExecutionPath(path)}, extra...)
	}

	baseRes, err := db.Query(sql, opts()...)
	if err != nil {
		t.Fatalf("baseline query failed: %v", err)
	}
	baseline := rowsFingerprint(baseRes)
	if len(baseRes.Rows) == 0 {
		t.Fatal("baseline returned no rows; the dataset no longer exercises the plan")
	}

	// Recording pass: the injector is wired in but fires nothing, so the
	// result must be byte-identical to the uninstrumented run.
	rec := faultinject.New()
	recRes, err := db.Query(sql, opts(withFaultInjector(rec))...)
	if err != nil {
		t.Fatalf("recording query failed: %v", err)
	}
	if got := rowsFingerprint(recRes); got != baseline {
		t.Fatalf("injector in recording mode changed the result:\n--- with ---\n%s--- without ---\n%s", got, baseline)
	}
	if rec.Fired() != 0 {
		t.Fatalf("recording injector fired %d faults", rec.Fired())
	}
	visits := rec.Visits()
	if len(visits) == 0 {
		t.Fatal("recording pass saw no injection points")
	}
	vecPoints := 0
	for k := range visits {
		if k.Site == faultinject.SiteVec {
			vecPoints++
		}
	}
	if path == PathVector && vecPoints == 0 {
		t.Fatal("vector path recorded no vectorized-kernel injection points")
	}
	if path == PathRow && vecPoints != 0 {
		t.Fatalf("row path recorded %d vectorized-kernel injection points", vecPoints)
	}

	for _, key := range sortedKeys(visits) {
		// Arm the first visit always, and the last one too where the
		// point is hit repeatedly — the error-in-shared-subplan case
		// (DAG consumers, per-outer-tuple re-evaluation) aborts cleanly
		// regardless of how deep into the query it strikes.
		nths := []int64{1}
		if n := visits[key]; n > 1 {
			nths = append(nths, n)
		}
		for _, nth := range nths {
			for _, panics := range []bool{false, true} {
				assertInjectedFault(t, db, sql, opts, key, nth, panics)
			}
		}
	}

	// After dozens of injected errors and recovered panics the engine
	// must still answer the same query with the same rows.
	afterRes, err := db.Query(sql, opts()...)
	if err != nil {
		t.Fatalf("query after chaos sweep failed: %v", err)
	}
	if got := rowsFingerprint(afterRes); got != baseline {
		t.Fatalf("result drifted after chaos sweep:\n--- after ---\n%s--- baseline ---\n%s", got, baseline)
	}
}

// assertInjectedFault runs the query with one armed fault and checks the
// full error contract.
func assertInjectedFault(t *testing.T, db *DB, sql string, opts func(...Option) []Option,
	key faultinject.Key, nth int64, panics bool) {
	t.Helper()
	fi := faultinject.New()
	fi.Arm(key.Site, key.Node, nth, panics)
	res, err := db.Query(sql, opts(withFaultInjector(fi))...)
	mode := "error"
	if panics {
		mode = "panic"
	}
	if err == nil {
		t.Fatalf("%s@%d nth=%d mode=%s: fault did not surface (got %d rows)",
			key.Site, key.Node, nth, mode, len(res.Rows))
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("%s nth=%d mode=%s: error %T is not a *QueryError: %v", key, nth, mode, err, err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("%s nth=%d mode=%s: errors.Is cannot resolve the injected cause: %v", key, nth, mode, err)
	}
	if panics {
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s nth=%d: injected panic did not surface as *PanicError: %v", key, nth, err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("%s nth=%d: recovered panic carries no stack", key, nth)
		}
	}
	if fired := fi.Fired(); fired != 1 {
		t.Fatalf("%s nth=%d mode=%s: injector fired %d times, want 1", key, nth, mode, fired)
	}
}

// TestChaosParallelFanout covers injection under genuine morsel
// parallelism: 3000-row relations exceed the fan-out threshold, so at 4
// workers the morsel-boundary faults strike inside concurrently running
// worker goroutines — in Q1's bypass plan and in the tagged Eqv. 5
// plan, whose Γ² probes its outer tuples in parallel over one shared
// base fold. Error mode only — the small-plan sweep already covers
// panic recovery at every site.
func TestChaosParallelFanout(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, _ := Open()
	if err := db.LoadRST(0.3, 0.3, 0.3); err != nil {
		t.Fatal(err)
	}
	opts := func(extra ...Option) []Option {
		return append([]Option{WithStrategy(Unnested), WithWorkers(4)}, extra...)
	}
	for _, sql := range []string{chaosQ1, chaosQ2Distinct} {
		baseRes, err := db.Query(sql, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		baseline := rowsFingerprint(baseRes)

		rec := faultinject.New()
		recRes, err := db.Query(sql, opts(withFaultInjector(rec))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsFingerprint(recRes); got != baseline {
			t.Fatal("recording injector changed the parallel result")
		}
		visits := rec.Visits()
		sawMorsel := false
		for _, key := range sortedKeys(visits) {
			if key.Site == faultinject.SiteMorsel {
				sawMorsel = true
			}
			assertInjectedFault(t, db, sql, opts, key, 1, false)
		}
		if !sawMorsel {
			t.Fatal("parallel plan recorded no morsel-boundary injection points")
		}
		afterRes, err := db.Query(sql, opts()...)
		if err != nil {
			t.Fatalf("query after parallel chaos failed: %v", err)
		}
		if got := rowsFingerprint(afterRes); got != baseline {
			t.Fatal("parallel result drifted after chaos sweep")
		}
	}
}

// TestPanicRecoveryLeavesDBUsable pins the acceptance criterion
// directly: a worker panic mid-query is isolated to that query, and the
// same DB answers the next query correctly with no leaked goroutines.
func TestPanicRecoveryLeavesDBUsable(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := chaosDB(t, 64, false)
	want, err := db.Query(chaosQ1, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	rec := faultinject.New()
	if _, err := db.Query(chaosQ1, WithWorkers(4), withFaultInjector(rec)); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(rec.Visits())
	if len(keys) == 0 {
		t.Fatal("no injection points recorded")
	}
	fi := faultinject.New()
	fi.Arm(keys[len(keys)/2].Site, keys[len(keys)/2].Node, 1, true)
	if _, err := db.Query(chaosQ1, WithWorkers(4), withFaultInjector(fi)); err == nil {
		t.Fatal("armed panic did not surface")
	}
	got, err := db.Query(chaosQ1, WithWorkers(4))
	if err != nil {
		t.Fatalf("query after recovered panic failed: %v", err)
	}
	if rowsFingerprint(got) != rowsFingerprint(want) {
		t.Fatal("result changed after a recovered panic")
	}
}
