package disqo

import (
	"errors"
	"regexp"
	"strings"
	"testing"
	"time"
)

const q1SQL = `SELECT DISTINCT * FROM r
	WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	   OR a4 > 1500`

const q2SQL = `SELECT DISTINCT * FROM r
	WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)`

func smallDB(t testing.TB) *DB {
	t.Helper()
	db, _ := Open()
	if err := db.LoadRST(0.02, 0.02, 0.02); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenCreateInsertQuery(t *testing.T) {
	db, _ := Open()
	if err := db.CreateTable("emp", []Column{
		{Name: "id", Type: TypeInt},
		{Name: "name", Type: TypeString},
		{Name: "sal", Type: TypeFloat},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("emp",
		[]Value{Int(1), String("ada"), Float(100)},
		[]Value{Int(2), String("bob"), Float(200)},
	); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT name FROM emp WHERE sal > 150")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "bob" {
		t.Errorf("rows = %v", res.Rows)
	}
	if n, _ := db.RowCount("emp"); n != 2 {
		t.Errorf("RowCount = %d", n)
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "emp" {
		t.Errorf("Tables = %v", got)
	}
	if err := db.DropTable("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT * FROM emp"); err == nil {
		t.Error("query after drop must fail")
	}
}

func TestAllStrategiesAgreeOnQ1AndQ2(t *testing.T) {
	db := smallDB(t)
	for _, sql := range []string{q1SQL, q2SQL} {
		var baseline []string
		for _, s := range Strategies() {
			res, err := db.Query(sql, WithStrategy(s))
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			rows := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				parts := make([]string, len(r))
				for j, v := range r {
					parts[j] = v.String()
				}
				rows[i] = strings.Join(parts, ",")
			}
			// Order-insensitive comparison.
			sortStrings(rows)
			if baseline == nil {
				baseline = rows
				continue
			}
			if strings.Join(baseline, ";") != strings.Join(rows, ";") {
				t.Errorf("strategy %s disagrees on %q:\n%v\nvs\n%v", s, sql, baseline, rows)
			}
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestUnnestedDoesLessWork(t *testing.T) {
	db := smallDB(t)
	canonical, err := db.Query(q1SQL, WithStrategy(Canonical))
	if err != nil {
		t.Fatal(err)
	}
	unnested, err := db.Query(q1SQL, WithStrategy(Unnested))
	if err != nil {
		t.Fatal(err)
	}
	if unnested.Stats.Comparisons*2 > canonical.Stats.Comparisons {
		t.Errorf("unnested should do far fewer comparisons: %d vs %d",
			unnested.Stats.Comparisons, canonical.Stats.Comparisons)
	}
	if unnested.Stats.SubqueryEvals != 0 {
		t.Errorf("unnested Q1 must not evaluate subqueries, got %d", unnested.Stats.SubqueryEvals)
	}
	if canonical.Stats.SubqueryEvals == 0 {
		t.Error("canonical Q1 must evaluate subqueries")
	}
}

func TestS3EvaluatesFewerSubqueriesThanCanonical(t *testing.T) {
	db := smallDB(t)
	canonical, err := db.Query(q1SQL, WithStrategy(Canonical))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := db.Query(q1SQL, WithStrategy(S3))
	if err != nil {
		t.Fatal(err)
	}
	// Q1's SQL puts the subquery disjunct first; S3 reorders so the cheap
	// a4 predicate short-circuits roughly half of the rows.
	if s3.Stats.SubqueryEvals >= canonical.Stats.SubqueryEvals {
		t.Errorf("S3 must evaluate fewer subqueries: %d vs %d",
			s3.Stats.SubqueryEvals, canonical.Stats.SubqueryEvals)
	}
}

func TestRewritesReported(t *testing.T) {
	db := smallDB(t)
	res, err := db.Query(q1SQL)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Rewrites, ";")
	if !strings.Contains(joined, "Eqv. 1") || !strings.Contains(joined, "bypass cascade") {
		t.Errorf("Rewrites = %v", res.Rewrites)
	}
}

func TestExplainOutputs(t *testing.T) {
	db := smallDB(t)
	out, err := db.Explain(q1SQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"canonical plan", "optimized plan", "applied rewrites", "σ±", "⟕", "Γ", "simple"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
	out, err = db.Explain(q1SQL, WithStrategy(Canonical))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "optimized plan") {
		t.Error("canonical explain must not print an optimized plan")
	}
}

func TestAnalyze(t *testing.T) {
	db := smallDB(t)
	out, err := db.Analyze(q1SQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"physical plan (analyzed)", "strategy: unnested", "comparisons:",
		"peak resident:", "actual", "est", "calls=1", "time=", "Filter±",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Analyze missing %q:\n%s", frag, out)
		}
	}
	if regexp.MustCompile(`calls=([2-9]|\d\d)`).MatchString(out) {
		t.Errorf("unnested plan must evaluate each operator once:\n%s", out)
	}
	// Canonical: the nested block is evaluated per outer tuple, visible
	// in the subquery-evals counter and in calls>1 annotations.
	out, err = db.Analyze(q1SQL, WithStrategy(Canonical))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "subquery evals: 0") {
		t.Errorf("canonical analyze must show nested evaluations:\n%s", out)
	}
	if !regexp.MustCompile(`calls=([2-9]|\d\d)`).MatchString(out) {
		t.Errorf("canonical analyze must show repeated evaluations:\n%s", out)
	}
}

// maskTimes blanks the two wall-clock fields of an Analyze report;
// everything else — est/actual rows, calls, memo hits, morsels, build
// sizes, the Stats header — must be byte-identical across worker counts.
func maskTimes(s string) string {
	s = regexp.MustCompile(`elapsed: \S+`).ReplaceAllString(s, "elapsed: <t>")
	return regexp.MustCompile(`time=[^,)]+`).ReplaceAllString(s, "time=<t>")
}

func TestAnalyzeWorkerCountIndependent(t *testing.T) {
	db, _ := Open()
	// 3000-row tables cross the 2×1024-tuple parallel threshold, so
	// Workers=4 genuinely fans out.
	if err := db.LoadRST(0.3, 0.3, 0.1); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Unnested, Canonical} {
		w1, err := db.Analyze(q1SQL, WithStrategy(strat), WithWorkers(1))
		if err != nil {
			t.Fatalf("%s workers=1: %v", strat, err)
		}
		w4, err := db.Analyze(q1SQL, WithStrategy(strat), WithWorkers(4))
		if err != nil {
			t.Fatalf("%s workers=4: %v", strat, err)
		}
		if m1, m4 := maskTimes(w1), maskTimes(w4); m1 != m4 {
			t.Errorf("%s: EXPLAIN ANALYZE depends on worker count:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
				strat, m1, m4)
		}
	}
}

func TestResultMetrics(t *testing.T) {
	db := smallDB(t)
	res, err := db.Query(q1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics() != nil {
		t.Error("Metrics present without WithMetrics")
	}
	res, err = db.Query(q1SQL, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	pm := res.Metrics()
	if pm == nil {
		t.Fatal("WithMetrics query returned no Metrics")
	}
	root := pm.Op(pm.Root)
	if root == nil {
		t.Fatalf("report has no entry for root ID %d", pm.Root)
	}
	if root.RowsOut != int64(len(res.Rows)) {
		t.Errorf("root RowsOut = %d, want %d", root.RowsOut, len(res.Rows))
	}
	if root.Calls != 1 {
		t.Errorf("root Calls = %d, want 1", root.Calls)
	}
	if pm.TotalWall() <= 0 {
		t.Error("root wall time not recorded")
	}
	ids := map[int]bool{}
	for _, op := range pm.Ops {
		if ids[op.ID] {
			t.Errorf("node #%d reported twice", op.ID)
		}
		ids[op.ID] = true
		for _, c := range op.Children {
			if !ids[c] {
				// Children may appear later in pre-order only when shared;
				// they must at least exist somewhere in the report.
				if pm.Op(c) == nil {
					t.Errorf("node #%d references missing child #%d", op.ID, c)
				}
			}
		}
	}
	// Canonical keeps the subquery as a separate plan evaluated per
	// outer tuple: its report must include ops with Calls > 1.
	res, err = db.Query(q1SQL, WithMetrics(), WithStrategy(Canonical))
	if err != nil {
		t.Fatal(err)
	}
	repeated := false
	for _, op := range res.Metrics().Ops {
		if op.Calls > 1 {
			repeated = true
		}
	}
	if !repeated {
		t.Error("canonical metrics show no per-outer-tuple re-evaluation")
	}
}

func TestTimeoutOption(t *testing.T) {
	db, _ := Open()
	if err := db.LoadRST(0.5, 0.5, 0.1); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(q1SQL, WithStrategy(S1), WithTimeout(time.Millisecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
}

func TestCostBasedPicksWinners(t *testing.T) {
	db := smallDB(t)
	// Q1: unnesting is a clear win.
	res, err := db.Query(q1SQL, WithStrategy(CostBased))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Rewrites, ";")
	if !strings.Contains(joined, "cost-based choice: unnested") {
		t.Errorf("Q1 should choose unnested: %v", res.Rewrites)
	}
	// Non-decomposable disjunctive correlation: tagged Eqv. 5 is linear
	// in its inputs, so it too estimates far below canonical.
	eqv5SQL := `SELECT DISTINCT * FROM r
	            WHERE a1 = (SELECT COUNT(DISTINCT b1) FROM s WHERE a2 = b2 OR b4 > 1500)`
	res, err = db.Query(eqv5SQL, WithStrategy(CostBased))
	if err != nil {
		t.Fatal(err)
	}
	joined = strings.Join(res.Rewrites, ";")
	if !strings.Contains(joined, "cost-based choice: unnested") || !strings.Contains(joined, "Eqv. 5") {
		t.Errorf("Eqv. 5 case should choose unnested: %v", res.Rewrites)
	}
	// Results must match the forced strategies either way.
	forced, err := db.Query(eqv5SQL, WithStrategy(Unnested))
	if err != nil {
		t.Fatal(err)
	}
	if len(forced.Rows) != len(res.Rows) {
		t.Errorf("cost-based result differs: %d vs %d rows", len(res.Rows), len(forced.Rows))
	}
}

func TestTupleLimitOption(t *testing.T) {
	db := smallDB(t)
	_, err := db.Query(q1SQL, WithStrategy(Canonical), WithTupleLimit(50))
	if !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("expected ErrMemoryLimit, got %v", err)
	}
	// A generous limit succeeds.
	if _, err := db.Query(q1SQL, WithTupleLimit(1_000_000)); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownStrategy(t *testing.T) {
	db := smallDB(t)
	if _, err := db.Query("SELECT * FROM r", WithStrategy("bogus")); err == nil {
		t.Error("unknown strategy must error")
	}
}

// TestUnknownNullModeIsThreeValued checks that a zero or unparsed null
// mode runs, and is reported, as the default three-valued logic.
func TestUnknownNullModeIsThreeValued(t *testing.T) {
	db, _ := Open()
	for _, stmt := range []string{"CREATE TABLE t (a INTEGER)", "INSERT INTO t VALUES (1), (NULL)"} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []NullMode{"", "3VL"} {
		out, err := db.Explain("SELECT a FROM t WHERE NOT (a = 1)", WithNullMode(m))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "nulls: 3vl\n") || strings.Contains(out, "IS TRUE") {
			t.Errorf("mode %q: want a 3VL header and plan, got\n%s", m, out)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	db := smallDB(t)
	if _, err := db.Query("SELEC nonsense"); err == nil {
		t.Error("parse error expected")
	}
	if _, err := db.Query("SELECT zz FROM r"); err == nil {
		t.Error("resolution error expected")
	}
	if _, err := db.Explain("SELEC nonsense"); err == nil {
		t.Error("explain parse error expected")
	}
}

func TestResultString(t *testing.T) {
	db := smallDB(t)
	res, err := db.Query("SELECT a1, a2 FROM r WHERE a1 < 3 ORDER BY a1")
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "r.a1") || !strings.Contains(out, "rows)") {
		t.Errorf("Result.String = %s", out)
	}
}

func TestExecDDLAndDML(t *testing.T) {
	db, _ := Open()
	if _, err := db.Exec("CREATE TABLE emp (id INT, name VARCHAR(10), sal DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	n, err := db.Exec("INSERT INTO emp VALUES (1, 'ada', 100.5), (2, NULL, -3.25)")
	if err != nil || n != 2 {
		t.Fatalf("insert = %d, %v", n, err)
	}
	res, err := db.Query("SELECT id FROM emp WHERE sal > 0")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("select after insert: %v, %v", res, err)
	}
	if _, err := db.Exec("DROP TABLE emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO emp VALUES (1, 'x', 1)"); err == nil {
		t.Error("insert into dropped table must fail")
	}
	if _, err := db.Exec("SELECT * FROM emp"); err == nil {
		t.Error("Exec must reject SELECT")
	}
	if _, err := db.Exec("INSERT INTO nope VALUES (1)"); err == nil {
		t.Error("insert into missing table must fail")
	}
}

func TestLoadTPCHThroughAPI(t *testing.T) {
	db, _ := Open()
	if err := db.LoadTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) AS n FROM partsupp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 8000 {
		t.Errorf("partsupp count = %v", res.Rows[0][0])
	}
	db2, _ := Open()
	if err := db2.LoadTPCH(0.001, "all"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Query("SELECT COUNT(*) AS n FROM lineitem"); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadOnlyQueries(t *testing.T) {
	db := smallDB(t)
	// Warm statistics once; afterwards concurrent read-only queries must
	// be safe (each executor is private; the catalog is read-only).
	if _, err := db.Query(q1SQL); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(strategy Strategy) {
			for i := 0; i < 5; i++ {
				if _, err := db.Query(q1SQL, WithStrategy(strategy)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(Strategies()[w%len(Strategies())])
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
