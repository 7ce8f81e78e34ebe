package disqo

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"disqo/internal/testutil"
	"disqo/internal/types"
)

// sortedRows renders a result order-insensitively.
func sortedRows(res *Result) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = types.FormatTuple(r)
	}
	sort.Strings(rows)
	return rows
}

// TestPrunedPlansAgreeWithCanonical: queries whose unnested plans carry
// emit lists, pruned inputs, dissolved and aliasing projections answer
// as the canonical strategy does, in both null modes — and their plans
// do show what the case is about.
func TestPrunedPlansAgreeWithCanonical(t *testing.T) {
	db, _ := Open(WithoutCache())
	if err := db.LoadRST(0.02, 0.02, 0.02); err != nil {
		t.Fatal(err)
	}
	// NULLs in keys, correlation columns and aggregate inputs.
	for _, stmt := range []string{
		"INSERT INTO r VALUES (NULL, 3, 7, 2000), (1, NULL, 7, 100), (2, 3, NULL, NULL), (0, 9999, 1, 1)",
		"INSERT INTO s VALUES (NULL, 3, 7, 2000), (1, NULL, 7, 100), (2, 3, NULL, NULL), (2, 3, NULL, NULL)",
		"INSERT INTO t VALUES (NULL, 3, 7, 2000), (1, NULL, 7, 100)",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, sql string
		// plan holds fragments the physical plan must show: the canonical
		// strategy's when canonical is set, else the unnested one's.
		plan      []string
		canonical bool
	}{
		{"the σ± streams' consumers read different columns", // Π[a1..a4] over Stream+, an outerjoin on a2 over Stream-: σ± stays whole
			`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)`,
			[]string{"#1 Filter±[", "↑ see #1", "→ [r.a1, r.a2, r.a3, r.a4, g1] (5 of 6 cols)", "→ [r.a1, r.a2, r.a3, r.a4, g2] (5 of 7 cols)"}, false},
		{"a free attribute read only inside the nested block", // a3 reaches the block through the pruned join
			`SELECT a1 FROM r, t WHERE a2 = c2 AND a1 < ALL (SELECT b1 FROM s WHERE b3 > a3)`,
			[]string{"HashJoin[r.a2=t.c2] → [r.a1, r.a3] (2 of 8 cols)"}, true},
		{"sorted Γ² with an emit list", // the same query unnested: θ-correlation, ALL as two counts and a MIN
			`SELECT a1 FROM r, t WHERE a2 = c2 AND a1 < ALL (SELECT b1 FROM s WHERE b3 > a3)`,
			[]string{"SortBinaryGroup[r.a3 < s.b3][g2:COUNT(*)] → ["}, false},
		{"COUNT(DISTINCT *) over a pruned join", // the * tuple is s ◦ t's columns, by name
			`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s, t WHERE b1 = c1 AND a2 = b2) OR a4 > 2900`,
			[]string{"COUNT(DISTINCT *)", "HashOuterJoin[r.a2=s.b2] → [r.a1, r.a2, r.a3, r.a4, g1]"}, false},
		{"COUNT(DISTINCT col) and COUNT(*) over pruned joins",
			`SELECT a2, a4 FROM r WHERE a1 = (SELECT COUNT(DISTINCT c3) FROM s, t WHERE b1 = c1 AND a2 = b2) AND a3 >= (SELECT COUNT(*) FROM s, t WHERE b2 = c2 AND b4 = a4)`,
			[]string{"→ [s.b2, t.c3] (2 of 8 cols)", "→ [s#2.b4] (1 of 8 cols)"}, false},
		{"outer-join padding with f(∅) defaults after pruning", // unmatched r rows get g1 = 0 and count
			`SELECT a4 FROM r WHERE 0 = (SELECT COUNT(*) FROM s WHERE a2 = b2)`,
			[]string{"HashOuterJoin[r.a2=s.b2] → [r.a4, g1] (2 of 6 cols)"}, false},
		{"semi join with a residual",
			`SELECT a1, a3 FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > a4)`,
			[]string{"HashJoin(semi)[r.a2=s.b2] residual[(s.b4 > r.a4)]"}, false},
		{"anti join with a residual",
			`SELECT a1, a3 FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > a4)`,
			[]string{"HashJoin(anti)[r.a2=s.b2] residual[(s.b4 > r.a4)]"}, false},
		{"Eqv. 5's tagged Γ² over a pruned χ",
			`SELECT a1, a2 FROM r WHERE a1 <= (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 OR b4 > 1500)`,
			[]string{"TagBinaryGroup"}, false},
	} {
		strategy := Unnested
		if c.canonical {
			strategy = Canonical
		}
		plan, err := db.Explain(c.sql, WithStrategy(strategy))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, plan, _ = strings.Cut(plan, "== physical plan ==")
		plan, _, _ = strings.Cut(plan, "\n==")
		for _, frag := range c.plan {
			if !strings.Contains(plan, frag) {
				t.Errorf("%s: the plan does not show %q:\n%s", c.name, frag, plan)
			}
		}
		for _, nulls := range []NullMode{ThreeValuedNulls, TwoValuedNulls} {
			want, err := db.Query(c.sql, WithStrategy(Canonical), WithNullMode(nulls))
			if err != nil {
				t.Fatalf("%s (canonical, %s): %v", c.name, nulls, err)
			}
			got, err := db.Query(c.sql, WithNullMode(nulls))
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, nulls, err)
			}
			if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Errorf("%s (%s): unnested %d rows, canonical %d rows\n got %v\nwant %v", c.name, nulls, len(g), len(w), g, w)
			}
			if len(want.Rows) == 0 {
				t.Errorf("%s (%s): the canonical answer is empty; the case checks nothing", c.name, nulls)
			}
		}
	}
}

// TestOuterAggregateArgumentAgreesWithCanonical: a scalar subquery whose
// aggregate argument reads the outer row cannot become a Γ over the
// inner block, which has no outer column to read; it stays nested, and
// every strategy answers as the canonical one does.
func TestOuterAggregateArgumentAgreesWithCanonical(t *testing.T) {
	db, _ := Open(WithoutCache())
	if err := db.LoadRST(0.02, 0.02, 0.02); err != nil {
		t.Fatal(err)
	}
	// r's first row matches SUM(b1 + a3) = (5+1) + (6+1) over its two s
	// partners; the second has a NULL a3, the third no partner.
	for _, stmt := range []string{
		"INSERT INTO r VALUES (13, 77777, 1, 0), (13, 77777, NULL, 0), (0, 88888, 1, 0)",
		"INSERT INTO s VALUES (5, 77777, 0, 0), (6, 77777, 0, 0)",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		`SELECT * FROM r WHERE a1 = (SELECT SUM(b1 + a3) FROM s WHERE a2 = b2)`,
		`SELECT * FROM r WHERE a1 = (SELECT SUM(b1 + a3) FROM s WHERE a2 = b2) OR a4 > 2900`,
		`SELECT * FROM r WHERE a1 = (SELECT SUM(b1 + a3) FROM s WHERE a2 = b2 OR b4 < 0)`,
	} {
		for _, nulls := range []NullMode{ThreeValuedNulls, TwoValuedNulls} {
			want, err := db.Query(sql, WithStrategy(Canonical), WithNullMode(nulls))
			if err != nil {
				t.Fatalf("%s (canonical, %s): %v", sql, nulls, err)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("%s (%s): the canonical answer is empty; the case checks nothing", sql, nulls)
			}
			for _, strategy := range []Strategy{Unnested, CostBased} {
				got, err := db.Query(sql, WithStrategy(strategy), WithNullMode(nulls))
				if err != nil {
					t.Fatalf("%s (%s, %s): %v", sql, strategy, nulls, err)
				}
				if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Errorf("%s (%s, %s): %d rows, canonical %d\n got %v\nwant %v", sql, strategy, nulls, len(g), len(w), g, w)
				}
			}
		}
	}
}

// TestResultRowsSurviveWrites: a projection onto a prefix of a base
// table's columns returns the table's own rows, cut short — and they,
// like the copy the result cache keeps, stay what they were when the
// table is updated and deleted from, because a write builds new rows
// and never touches the old ones. Appending to a result row, a prefix
// or one cut from an operator's slab, changes no other row.
func TestResultRowsSurviveWrites(t *testing.T) {
	db, _ := Open()
	for _, stmt := range []string{
		"CREATE TABLE k (a INT, b INT, c INT)",
		"INSERT INTO k VALUES (1, 10, 100), (2, 20, 200), (3, 30, 300)",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT a, b FROM k WHERE c >= 100"
	first, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	before := strings.Join(sortedRows(first), ";")
	if before != "(1, 10);(2, 20);(3, 30)" || cap(first.Rows[0]) != 2 {
		t.Fatalf("rows = %s with capacity %d, want the three 2-column prefixes", before, cap(first.Rows[0]))
	}
	cached, err := db.Query(sql) // served by the result cache
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{"UPDATE k SET a = a + 40, b = 0 WHERE c < 300", "DELETE FROM k WHERE c = 300"} {
		if n, err := db.Exec(stmt); err != nil || n == 0 {
			t.Fatalf("%s: %d rows, %v", stmt, n, err)
		}
	}
	for name, res := range map[string]*Result{"first": first, "cached": cached} {
		if got := strings.Join(sortedRows(res), ";"); got != before {
			t.Errorf("%s result changed under the writes: %s → %s", name, before, got)
		}
	}
	after, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedRows(after), ";"); got != "(41, 0);(42, 0)" {
		t.Errorf("rows after the writes = %s, want (41, 0);(42, 0)", got)
	}
	// Rows built by an operator share a backing chunk; appending to one
	// must leave its neighbours alone, as it does a table row's prefix.
	grouped, err := db.Query("SELECT a, SUM(c) FROM k GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"prefix": after, "grouped": grouped} {
		before := sortedRows(res)
		for i := range res.Rows {
			_ = append(res.Rows[i], Int(-1), Int(-1))
			if got := sortedRows(res); strings.Join(got, ";") != strings.Join(before, ";") {
				t.Fatalf("%s: appending to row %d changed the rows %v → %v", name, i, before, got)
			}
		}
	}
}

// TestQueryBytesGolden pins what one uncached execution of Fig. 7's Q1
// (RST at SF 0.05) and of TPC-H Query 2d (SF 0.01) allocates, planning
// included, in bytes and in objects, at the measured reading + 10 %: the
// guard on the 32-byte Value, the row index, the emit lists, the row
// slabs, Γ's one fold per group, the estimated join order and the
// memoized estimator together. Measured: Q1 187.5 kB in 460 objects and
// Query 2d 1 549 kB in 1 560 objects, against 186.1 kB in 492 and
// 4 047 kB in 2 302 with joins in FROM order, each built on its right
// input, and every estimate recomputed; 218.7 kB and 5 443 kB before the
// slabs, 560.9 kB and 20 049 kB before the index.
func TestQueryBytesGolden(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation goldens are meaningless under the race detector")
	}
	rst, _ := Open(WithoutCache())
	if err := rst.LoadRST(0.05, 0.05, 0.05); err != nil {
		t.Fatal(err)
	}
	tpch, _ := Open(WithoutCache())
	if err := tpch.LoadTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		db      *DB
		sql     string
		bytes   uint64
		mallocs uint64
	}{
		{"Fig. 7 Q1 at RST SF 0.05", rst, q1SQL, 206_300, 506},
		{"Query 2d at TPC-H SF 0.01", tpch, `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
		  FROM part, supplier, partsupp, nation, region
		  WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15 AND p_type LIKE '%BRASS'
		    AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
		    AND (ps_supplycost = (SELECT MIN(ps_supplycost) FROM partsupp, supplier, nation, region
		                          WHERE s_suppkey = ps_suppkey AND p_partkey = ps_partkey AND s_nationkey = n_nationkey
		                            AND n_regionkey = r_regionkey AND r_name = 'EUROPE')
		         OR ps_availqty > 8000)
		  ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`, 1_704_000, 1_716},
	} {
		run := func() {
			if res, err := c.db.Query(c.sql, WithWorkers(1)); err != nil || len(res.Rows) == 0 {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		run()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes, mallocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
		t.Logf("%s: %d bytes, %d objects per run", c.name, bytes, mallocs)
		if bytes > c.bytes || mallocs > c.mallocs {
			t.Errorf("%s allocates %d bytes and %d objects per run, budget %d and %d", c.name, bytes, mallocs, c.bytes, c.mallocs)
		}
	}
}
