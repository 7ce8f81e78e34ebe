package disqo_test

import (
	"strings"
	"sync"
	"testing"

	"disqo"
)

// Integration tests: real TPC-H queries (adapted to the dialect — dates
// are day numbers, no GROUP BY expressions) run end-to-end on generated
// data, with every strategy required to agree with canonical evaluation.

var (
	tpchOnce sync.Once
	tpchDBv  *disqo.DB
	tinyOnce sync.Once
	tinyDBv  *disqo.DB
)

func tpchTestDB(t *testing.T) *disqo.DB {
	t.Helper()
	tpchOnce.Do(func() {
		db, _ := disqo.Open()
		if err := db.LoadTPCH(0.01, "all"); err != nil {
			t.Fatal(err)
		}
		tpchDBv = db
	})
	return tpchDBv
}

// tinyTPCHDB is used by tests that compare against canonical evaluation
// of queries quadratic in |lineitem| — a smaller instance keeps the
// nested-loop reference runs fast.
func tinyTPCHDB(t *testing.T) *disqo.DB {
	t.Helper()
	tinyOnce.Do(func() {
		db, _ := disqo.Open()
		if err := db.LoadTPCH(0.002, "all"); err != nil {
			t.Fatal(err)
		}
		tinyDBv = db
	})
	return tinyDBv
}

// canonicalRows runs the query under a strategy and returns sorted rows.
func canonicalRows(t *testing.T, db *disqo.DB, sql string, s disqo.Strategy) []string {
	t.Helper()
	res, err := db.Query(sql, disqo.WithStrategy(s))
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	// Order-insensitive unless the query sorts; cheap insertion sort.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j] < rows[j-1]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	return rows
}

func assertStrategiesAgree(t *testing.T, db *disqo.DB, name, sql string) {
	t.Helper()
	want := canonicalRows(t, db, sql, disqo.Canonical)
	if len(want) == 0 {
		t.Logf("%s returned no rows — still checking agreement", name)
	}
	for _, s := range []disqo.Strategy{disqo.Unnested, disqo.S2, disqo.S3, disqo.CostBased} {
		got := canonicalRows(t, db, sql, s)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: %s disagrees with canonical (%d vs %d rows)", name, s, len(got), len(want))
		}
	}
}

// TPC-H Q1 (pricing summary), adapted: l_shipdate is a day number;
// the threshold 2350 ≈ 1998-09-02.
func TestTPCHQ1PricingSummary(t *testing.T) {
	db := tpchTestDB(t)
	sql := `SELECT l_returnflag, l_linestatus,
	               SUM(l_quantity) AS sum_qty,
	               SUM(l_extendedprice) AS sum_base,
	               AVG(l_quantity) AS avg_qty,
	               AVG(l_discount) AS avg_disc,
	               COUNT(*) AS count_order
	        FROM lineitem
	        WHERE l_shipdate <= 2350
	        GROUP BY l_returnflag, l_linestatus
	        ORDER BY l_returnflag, l_linestatus`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) > 6 {
		t.Fatalf("Q1 groups = %d", len(res.Rows))
	}
	assertStrategiesAgree(t, db, "Q1", sql)
}

// TPC-H Q2 (minimum cost supplier) — the original, conjunctive form the
// paper derived Query 2d from. Classical Eqv. 1 territory.
func TestTPCHQ2MinimumCostSupplier(t *testing.T) {
	db := tpchTestDB(t)
	sql := `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr
	        FROM part, supplier, partsupp, nation, region
	        WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
	          AND p_size = 15 AND p_type LIKE '%BRASS'
	          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	          AND r_name = 'EUROPE'
	          AND ps_supplycost = (SELECT MIN(ps_supplycost)
	                               FROM partsupp, supplier, nation, region
	                               WHERE s_suppkey = ps_suppkey
	                                 AND p_partkey = ps_partkey
	                                 AND s_nationkey = n_nationkey
	                                 AND n_regionkey = r_regionkey
	                                 AND r_name = 'EUROPE')
	        ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(res.Rewrites, ";"), "Eqv. 1") {
		t.Errorf("Q2 must unnest via Eqv. 1: %v", res.Rewrites)
	}
	assertStrategiesAgree(t, db, "Q2", sql)
}

// TPC-H Q6 (forecasting revenue change): pure scan + aggregate.
func TestTPCHQ6Revenue(t *testing.T) {
	db := tpchTestDB(t)
	sql := `SELECT SUM(l_extendedprice * l_discount) AS revenue
	        FROM lineitem
	        WHERE l_shipdate >= 365 AND l_shipdate < 730
	          AND l_discount BETWEEN 0.05 AND 0.07
	          AND l_quantity < 24`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("Q6 rows = %d", len(res.Rows))
	}
}

// TPC-H Q17 (small-quantity-order revenue): the classic correlated
// scalar-subquery query — conjunctive JA, Eqv. 1. The dialect has no
// scalar expressions around aggregates in subquery select lists, so the
// 0.2·AVG comparison is algebraically moved to the left side.
func TestTPCHQ17SmallQuantityOrders(t *testing.T) {
	db := tinyTPCHDB(t)
	sql := `SELECT SUM(l_extendedprice) AS total
	        FROM lineitem, part
	        WHERE p_partkey = l_partkey
	          AND (p_brand = 'Brand#11' OR p_brand = 'Brand#12')
	          AND l_quantity * 5 < (SELECT AVG(l_quantity) FROM lineitem
	                                WHERE l_partkey = p_partkey)`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(res.Rewrites, ";"), "Eqv. 1") {
		t.Errorf("Q17 must unnest via Eqv. 1: %v", res.Rewrites)
	}
	// Compare canonical vs unnested values.
	canon, err := db.Query(sql, disqo.WithStrategy(disqo.Canonical))
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Rows[0][0], canon.Rows[0][0]
	if a.String() != b.String() {
		t.Errorf("Q17: unnested %v vs canonical %v", a, b)
	}
}

// TPC-H Q4-like (order priority with EXISTS): semijoin territory.
func TestTPCHQ4OrderPriority(t *testing.T) {
	db := tinyTPCHDB(t)
	sql := `SELECT o_orderpriority, COUNT(*) AS order_count
	        FROM orders
	        WHERE o_orderdate >= 1100 AND o_orderdate < 1200
	          AND EXISTS (SELECT * FROM lineitem
	                      WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
	        GROUP BY o_orderpriority
	        ORDER BY o_orderpriority`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(res.Rewrites, ";"), "semijoin") {
		t.Errorf("Q4 must use a semijoin: %v", res.Rewrites)
	}
	assertStrategiesAgree(t, db, "Q4", sql)
}

// The paper's Query 2d itself across all strategies (small SF): the
// flagship integration check.
func TestQuery2dAllStrategiesAgree(t *testing.T) {
	db := tpchTestDB(t)
	sql := `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
	        FROM part, supplier, partsupp, nation, region
	        WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
	          AND p_size = 15 AND p_type LIKE '%BRASS'
	          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	          AND r_name = 'EUROPE'
	          AND (ps_supplycost = (SELECT MIN(ps_supplycost)
	                                FROM partsupp, supplier, nation, region
	                                WHERE s_suppkey = ps_suppkey
	                                  AND p_partkey = ps_partkey
	                                  AND s_nationkey = n_nationkey
	                                  AND n_regionkey = r_regionkey
	                                  AND r_name = 'EUROPE')
	               OR ps_availqty > 2000)
	        ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`
	assertStrategiesAgree(t, db, "Query 2d", sql)
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Rewrites, ";")
	if !strings.Contains(joined, "bypass cascade") {
		t.Errorf("Query 2d must use the bypass cascade: %v", res.Rewrites)
	}
}

// query2d spells Query 2d with the given outer and inner FROM lists.
func query2d(outer, inner []string) string {
	return `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
	        FROM ` + strings.Join(outer, ", ") + `
	        WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
	          AND p_size = 15 AND p_type LIKE '%BRASS'
	          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	          AND r_name = 'EUROPE'
	          AND (ps_supplycost = (SELECT MIN(ps_supplycost)
	                                FROM ` + strings.Join(inner, ", ") + `
	                                WHERE s_suppkey = ps_suppkey
	                                  AND p_partkey = ps_partkey
	                                  AND s_nationkey = n_nationkey
	                                  AND n_regionkey = r_regionkey
	                                  AND r_name = 'EUROPE')
	               OR ps_availqty > 2000)
	        ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`
}

// permutations returns every ordering of xs.
func permutations(xs []string) [][]string {
	if len(xs) <= 1 {
		return [][]string{append([]string(nil), xs...)}
	}
	var out [][]string
	for i := range xs {
		rest := append(append([]string(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{xs[i]}, p...))
		}
	}
	return out
}

// TestQuery2dJoinOrderIgnoresFromOrder: the join order and build sides
// come from the estimates, not from how the FROM lists are written —
// every permutation of Query 2d's outer FROM list (120) and of its inner
// one (24) lowers to the same physical plan, byte for byte, and returns
// canonical evaluation's rows.
func TestQuery2dJoinOrderIgnoresFromOrder(t *testing.T) {
	db := tpchTestDB(t)
	outer := []string{"part", "supplier", "partsupp", "nation", "region"}
	inner := []string{"partsupp", "supplier", "nation", "region"}
	physicalPlan := func(sql string) string {
		out, err := db.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		_, plan, ok := strings.Cut(out, "== physical plan ==\n")
		if !ok {
			t.Fatalf("no physical plan in\n%s", out)
		}
		plan, _, _ = strings.Cut(plan, "\n== ")
		return plan
	}
	want := strings.Join(canonicalRows(t, db, query2d(outer, inner), disqo.Canonical), "\n")
	wantPlan := physicalPlan(query2d(outer, inner))
	var sqls []string
	for _, p := range permutations(outer) {
		sqls = append(sqls, query2d(p, inner))
	}
	for _, p := range permutations(inner) {
		sqls = append(sqls, query2d(outer, p))
	}
	for _, sql := range sqls {
		if got := physicalPlan(sql); got != wantPlan {
			t.Fatalf("the physical plan follows the FROM order:\n%s\n--- got ---\n%s\n--- want ---\n%s", sql, got, wantPlan)
		}
		if got := strings.Join(canonicalRows(t, db, sql, disqo.Unnested), "\n"); got != want {
			t.Fatalf("rows differ from canonical evaluation:\n%s", sql)
		}
	}
}

// TestQuery2dBuildsOnTheSmallerInput reads Query 2d's EXPLAIN ANALYZE:
// no hash join builds its table on partsupp, the largest input — each
// one hashes the filtered or joined side, and partsupp probes it.
func TestQuery2dBuildsOnTheSmallerInput(t *testing.T) {
	db := tpchTestDB(t)
	out, err := db.Analyze(query2d([]string{"part", "supplier", "partsupp", "nation", "region"},
		[]string{"partsupp", "supplier", "nation", "region"}))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	depth := func(l string) int { return (len(l) - len(strings.TrimLeft(l, " "))) / 2 }
	joins := 0
	for i, l := range lines {
		if !strings.Contains(l, "HashJoin[") {
			continue
		}
		joins++
		// The build side is the join's second child: its subtree runs from
		// the second line one level deeper to the next at the join's level.
		d, children := depth(l), 0
		var build []string
		for _, c := range lines[i+1:] {
			if strings.TrimSpace(c) == "" || depth(c) <= d {
				break
			}
			if depth(c) == d+1 {
				children++
			}
			if children == 2 {
				build = append(build, c)
			}
		}
		sub := strings.Join(build, "\n")
		if strings.Contains(sub, "Scan(partsupp)") && !strings.Contains(sub, "Join") {
			t.Errorf("a hash join builds on partsupp:\n%s\n%s", l, sub)
		}
	}
	if joins == 0 {
		t.Fatalf("no hash join in Query 2d's plan:\n%s", out)
	}
}
