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
		{"a cascade's Γ² chain reads the union's columns", // Γ²₁ emits every column, so Γ²₂ absorbs it, and their fused disjunction emits the union's
			`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)`,
			[]string{"HashBinaryGroup[r.a4=t.c2][g1:COUNT(DISTINCT *)] ∘ HashBinaryGroup[r.a2=s.b2][g2:COUNT(DISTINCT *)] σ[((r.a3 = g1) OR (r.a1 = g2))] → [r.a1, r.a2, r.a3, r.a4] (4 of 6 cols)  (est"}, false},
		{"a shared operator's consumers read different columns", // the counts read s ⋈ t's b3, the MIN b1 too: the join stays whole
			`SELECT a1 FROM r WHERE a1 < ALL (SELECT b1 FROM s, t WHERE b2 = c2 AND b3 > a3)`,
			[]string{"#1 HashJoin[s.b2=t.c2]  (est", "↑ see #1 HashJoin[s.b2=t.c2]"}, false},
		{"a free attribute read only inside the nested block", // a3 reaches the block through the pruned join
			`SELECT a1 FROM r, t WHERE a2 = c2 AND a1 < ALL (SELECT b1 FROM s WHERE b3 > a3)`,
			[]string{"HashJoin[r.a2=t.c2] → [r.a1, r.a3] (2 of 8 cols)"}, true},
		{"sorted Γ² with an emit list", // the same query unnested: θ-correlation, ALL as two counts and a MIN
			`SELECT a1 FROM r, t WHERE a2 = c2 AND a1 < ALL (SELECT b1 FROM s WHERE b3 > a3)`,
			[]string{"SortBinaryGroup[r.a3 < s.b3][g3:MIN(s.b1)] σ[((0 = g1) OR ((0 = g2) AND (r.a1 < g3)))] → [r.a1] (1 of 5 cols)"}, false},
		{"COUNT(DISTINCT *) over a pruned join", // the * tuple is s ◦ t's columns, by name
			`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s, t WHERE b1 = c1 AND a2 = b2) OR a4 > 2900`,
			[]string{"HashBinaryGroup[r.a2=s.b2][g1:COUNT(DISTINCT *)] σ[((r.a4 > 2900) OR (r.a1 = g1))] → [r.a1, r.a2, r.a3, r.a4]", "HashJoin[s.b1=t.c1]  (est"}, false},
		{"COUNT(DISTINCT col) and COUNT(*) over pruned joins",
			`SELECT a2, a4 FROM r WHERE a1 = (SELECT COUNT(DISTINCT c3) FROM s, t WHERE b1 = c1 AND a2 = b2) AND a3 >= (SELECT COUNT(*) FROM s, t WHERE b2 = c2 AND b4 = a4)`,
			[]string{"→ [s.b2, t.c3] (2 of 8 cols)", "→ [s#2.b4] (1 of 8 cols)"}, false},
		{"Eqv. 1's f(∅) defaults after pruning", // unmatched r rows read the empty group, g1 = 0, and count
			`SELECT a4 FROM r WHERE 0 = (SELECT COUNT(*) FROM s WHERE a2 = b2)`,
			[]string{"HashBinaryGroup[r.a2=s.b2][g1:COUNT(*)] σ[(0 = g1)] → [r.a4] (1 of 5 cols)"}, false},
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

// TestQueryBytesGolden pins what one uncached execution of Fig. 7's Q1,
// Q2, Q3 and quantified EXISTS statement and of the Eqv. 5 family's
// COUNT(DISTINCT *) statement (RST at SF 0.05) and of TPC-H Query 2d
// (SF 0.01) allocates, planning included, in bytes and in objects, at
// the measured reading + 10 %: the guard on the 32-byte Value, the row
// index, the emit lists, the row slabs, Γ's one fold per group, the
// estimated join order, the memoized estimator, the linking σ fused into
// the Γ², Eqv. 5's tag fused into the Γ², hash tables of row numbers,
// Eqv. 1's ⟕ over Γ run as one hashed Γ² folded through Γ's presized
// group tables, the bypass cascade run in one pass, in that Γ², and
// planning allocating per plan rather than per node visit, together.
// The objects column is set from: Q1 197 objects, Q2 170, COUNT(DISTINCT
// *) 190, Q3 286, quant_exists 219 and Query 2d 711, against 367, 328,
// 345, 556, 412 and 1 460 with the estimator walking the plan for each
// column, traversals and split helpers building a slice per call and
// every rebuilt operator deriving its schema again. Before that: Q1
// 71.5 kB in 367 objects, Q3 182.7 kB in 556, quant_exists 84.8 kB in
// 411 and Query 2d 847 kB in 1 458, against 84.2 kB in 377, 198.4 kB in 575, 103.0 kB in 423 and 871 kB in 1 452
// with σ± splitting the outer rows into two streams and ∪̇ concatenating
// them; before that Q1 84.2 kB in 377 objects, Q3 198.4 kB in 575 and
// Query 2d 871 kB in 1 453, against 89.3 kB in 384, 208.8 kB in 595 and
// 1 027 kB in 1 461 with the ⟕ a hash join over Γ's output; before that
// Q1 89.4 kB in 384 objects, Q2 54.9 kB in 335, COUNT(DISTINCT *)
// 101.0 kB in 347 and Query 2d 1 028 kB in 1 463, against 123.3 kB in
// 414, 65.3 kB in 331, 136.4 kB in 492 and 1 533 kB in 1 505 with every
// index entry holding its row and hash, Γ's tables doubling from empty,
// Γ²'s per-key fold indexing every row of R⁻ and keeping a DISTINCT set
// per key, and selection vectors grown by appending; before that Q1
// 123.4 kB in 414 objects and Q2 65.3 kB in 331, against 132.8 kB in 423
// and 137.1 kB in 354 with every operator copying the left rows it emits
// a prefix of, DISTINCT growing its output by appending and Eqv. 5's χ
// building a tagged copy of s; before that Q1 132.9 kB in 428 objects
// and Query 2d 1 540 kB in 1 526 objects, against 187.1 kB in 460 with
// the σ a Filter over every joined row; 187.5 kB and 1 549 kB before
// that, against 186.1 kB in 492 and 4 047 kB in 2 302 with joins in FROM
// order, each built on its right input, and every estimate recomputed;
// 218.7 kB and 5 443 kB before the slabs, 560.9 kB and 20 049 kB before
// the index.
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
		{"Fig. 7 Q1 at RST SF 0.05", rst, q1SQL, 78_700, 217},
		{"Fig. 7 Q2 (Eqv. 5) at RST SF 0.05", rst, q2SQL, 60_400, 187},
		{"q2_count_distinct (Eqv. 5, DISTINCT) at RST SF 0.05", rst, `SELECT DISTINCT * FROM r
		  WHERE a1 <= (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 OR b4 > 1500)`, 111_100, 209},
		{"Fig. 7 Q3 (two Eqv. 1 blocks) at RST SF 0.05", rst, `SELECT DISTINCT * FROM r
		  WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
		     OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)`, 201_100, 315},
		{"quant_exists (EXISTS as a count) at RST SF 0.05", rst, `SELECT DISTINCT * FROM r
		  WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 2500) OR a4 > 1500`, 93_300, 241},
		{"Query 2d at TPC-H SF 0.01", tpch, `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
		  FROM part, supplier, partsupp, nation, region
		  WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15 AND p_type LIKE '%BRASS'
		    AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
		    AND (ps_supplycost = (SELECT MIN(ps_supplycost) FROM partsupp, supplier, nation, region
		                          WHERE s_suppkey = ps_suppkey AND p_partkey = ps_partkey AND s_nationkey = n_nationkey
		                            AND n_regionkey = r_regionkey AND r_name = 'EUROPE')
		         OR ps_availqty > 8000)
		  ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`, 931_700, 783},
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
