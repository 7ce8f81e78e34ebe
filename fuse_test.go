package disqo

import (
	"strings"
	"testing"

	"disqo/internal/exec"
	"disqo/internal/physical"
)

// fuseDB is a DB without caches, after the given statements ran on it.
func fuseDB(t *testing.T, stmts ...string) *DB {
	t.Helper()
	db, _ := Open(WithoutCache())
	for _, stmt := range stmts {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return db
}

// physicalPlan plans sql as Query would and returns the main plan's root
// and the roots of its nested blocks.
func physicalPlan(t *testing.T, db *DB, sql string, opts ...Option) (*prepared, []physical.Node) {
	t.Helper()
	cfg, err := db.enter(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.end()
	pp, _, err := db.preparedFor(db.cat.Snapshot(), sql, cfg)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return pp, append([]physical.Node{pp.phys.Root}, pp.blocks...)
}

// TestFusedSelectionIsNotMemoizedAcrossOuterTuples: a selection fused
// into an outer join inside a nested block can read the outer tuple (here
// a4, through b4 >= a4), so the fused node is correlated although the
// join below it is not. Memoizing it across outer tuples — which CacheAll
// does for every uncorrelated node of a block — would hand the second r
// row the first one's s rows. Every strategy's plan, run under CacheAll
// at one and four workers in both null modes, answers as Canonical does.
func TestFusedSelectionIsNotMemoizedAcrossOuterTuples(t *testing.T) {
	db := fuseDB(t,
		"CREATE TABLE r (a1 INT, a2 INT, a3 VARCHAR, a4 INT)",
		"CREATE TABLE s (b1 INT, b2 INT, b3 VARCHAR, b4 INT)",
		"CREATE TABLE t (c1 INT, c2 INT, c3 VARCHAR, c4 INT)",
		// Every r row sees s's b1 = 2 row, which answers a2 <> ANY only
		// for a2 <> 2; the first r row also sees b1 = 5 through b4 >= a4,
		// and the second, with the same a2 and a larger a4, does not.
		"INSERT INTO r VALUES (1, 2, 'x', 10), (2, 2, 'x', 100), (3, 5, 'x', 100), (4, 7, 'a', 100), (5, NULL, 'x', 10), (6, 2, 'x', 2000)",
		"INSERT INTO s VALUES (5, 1, 'y', 50), (2, 1, 'y', 0), (9, 3, 'y', 60), (NULL, 1, 'y', 70)",
		"INSERT INTO t VALUES (1, 1, 'z', 0), (2, 1, 'z', 0), (3, 2, 'z', 0)",
	)
	const sql = `SELECT DISTINCT * FROM r WHERE a3 = 'a' OR a2 <> ANY (SELECT b1 FROM s WHERE (b4 >= a4 OR b1 = 2) AND b2 <= (SELECT COUNT(*) FROM t WHERE c2 = b2)) OR a4 >= 1000`
	fused := false
	for _, nulls := range []NullMode{ThreeValuedNulls, TwoValuedNulls} {
		want, err := db.Query(sql, WithStrategy(Canonical), WithNullMode(nulls))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) < 2 || len(want.Rows) == 6 {
			t.Fatalf("%s: canonical answer %v separates nothing", nulls, sortedRows(want))
		}
		for _, strategy := range append(Strategies(), CostBased) {
			pp, roots := physicalPlan(t, db, sql, WithStrategy(strategy), WithNullMode(nulls))
			for _, root := range roots {
				physical.Walk(root, func(n physical.Node) bool {
					if oj, ok := n.(*physical.OuterJoin); ok && oj.Keep != nil && strings.Contains(oj.Keep.String(), "r.a4") {
						fused = true
					}
					return true
				})
			}
			for _, workers := range []int{1, 4} {
				ex := exec.New(db.cat.Snapshot(), exec.Options{Cache: exec.CacheAll, Workers: workers, Path: PathVector})
				rel, err := ex.RunPlan(pp.phys)
				ex.Close()
				if err != nil {
					t.Fatalf("%s, %s, %d workers: %v", strategy, nulls, workers, err)
				}
				got := &Result{Rows: rel.Tuples}
				if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Errorf("%s, %s, %d workers: %d rows, canonical %d\n got %v\nwant %v", strategy, nulls, workers, len(g), len(w), g, w)
				}
			}
		}
	}
	if !fused {
		t.Error("no plan fused a selection reading r.a4 into an outer join; the case checks nothing")
	}
}

// TestFusedSelectionOnThePadRow: a linking selection fused into Eqv. 1's
// outer join sees an unmatched r row paired with the g:f(∅) pad. COUNT's
// default 0 passes a1 = g1 where a1 = 0; MIN's NULL default drops the
// row; a negated link keeps or drops it by the null mode's logic — the
// two-valued translation makes NOT (NULL = 0) TRUE. Each answer is the
// hand-worked one, and Canonical's, in both null modes.
func TestFusedSelectionOnThePadRow(t *testing.T) {
	db := fuseDB(t,
		"CREATE TABLE r (a1 INT, a2 INT, a3 VARCHAR, a4 INT)",
		"CREATE TABLE s (b1 INT, b2 INT, b3 VARCHAR, b4 INT)",
		// (0, 99) and (NULL, 98) match no s row; the rest have counts 2
		// and 1 and minima 3 and 4.
		"INSERT INTO r VALUES (0, 10, 'x', 0), (0, 99, 'x', 0), (NULL, 98, 'x', 0), (2, 10, 'x', 0), (1, 20, 'x', 0), (5, 20, 'x', 0), (3, 10, 'x', 0), (4, 20, 'x', 0)",
		"INSERT INTO s VALUES (7, 10, 'y', 0), (3, 10, 'y', 0), (4, 20, 'y', 0)",
	)
	for _, c := range []struct {
		name, sql string
		want3     string // in three-valued logic
		want2     string // in two-valued logic, when it differs
	}{
		{"COUNT's 0 default passes",
			`SELECT a1, a2 FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)`,
			"(0, 99);(1, 20);(2, 10)", ""},
		{"MIN's NULL default drops",
			`SELECT a1, a2 FROM r WHERE a1 = (SELECT MIN(b1) FROM s WHERE a2 = b2)`,
			"(3, 10);(4, 20)", ""},
		{"a link against the NULL default is never TRUE",
			`SELECT a1, a2 FROM r WHERE a1 <> (SELECT MIN(b1) FROM s WHERE a2 = b2)`,
			"(0, 10);(1, 20);(2, 10);(5, 20)", ""},
		{"a negated link follows the null mode",
			`SELECT a1, a2 FROM r WHERE NOT (a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2))`,
			"(0, 10);(3, 10);(4, 20);(5, 20)", "(0, 10);(3, 10);(4, 20);(5, 20);(NULL, 98)"},
	} {
		plan, err := db.Explain(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(plan, "HashOuterJoin[r.a2=s.b2] σ[") || strings.Contains(plan, "  Filter[") {
			t.Errorf("%s: the three-valued plan does not fuse the link into the outer join:\n%s", c.name, plan)
		}
		for _, nulls := range []NullMode{ThreeValuedNulls, TwoValuedNulls} {
			want := c.want3
			if nulls == TwoValuedNulls && c.want2 != "" {
				want = c.want2
			}
			canonical, err := db.Query(c.sql, WithStrategy(Canonical), WithNullMode(nulls))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(sortedRows(canonical), ";"); got != want {
				t.Fatalf("%s (%s): canonical answers %s, want %s", c.name, nulls, got, want)
			}
			for _, workers := range []int{1, 4} {
				res, err := db.Query(c.sql, WithNullMode(nulls), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(sortedRows(res), ";"); got != want {
					t.Errorf("%s (%s, %d workers): %s, want %s", c.name, nulls, workers, got, want)
				}
			}
		}
	}
}

// TestUnnestedPlansFuseLinkingSelections: under unnested, no Filter sits
// on an outer join or a Γ², directly or through a Π, in the physical
// plans of Fig. 7's five statements and the Eqv. 5 family's three — each
// linking selection runs inside the operator below it. The plans still
// answer as Canonical does; the linking operators and constants are
// chosen, as the benchmark's are, so that every answer holds rows.
func TestUnnestedPlansFuseLinkingSelections(t *testing.T) {
	rst, _ := Open(WithoutCache())
	if err := rst.LoadRST(0.02, 0.02, 0.02); err != nil {
		t.Fatal(err)
	}
	tpch, _ := Open(WithoutCache())
	if err := tpch.LoadTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	stmts := []struct {
		db  *DB
		sql string
	}{
		{rst, q1SQL},
		{rst, `SELECT DISTINCT * FROM r WHERE a1 <= (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 2950)`},
		{rst, `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
		          OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)`},
		{rst, `SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 2500) OR a4 > 1500`},
		{tpch, `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
		  FROM part, supplier, partsupp, nation, region
		  WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15 AND p_type LIKE '%BRASS'
		    AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
		    AND (ps_supplycost = (SELECT MIN(ps_supplycost) FROM partsupp, supplier, nation, region
		                          WHERE s_suppkey = ps_suppkey AND p_partkey = ps_partkey AND s_nationkey = n_nationkey
		                            AND n_regionkey = r_regionkey AND r_name = 'EUROPE')
		         OR ps_availqty > 8000)
		  ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`},
		{rst, `SELECT DISTINCT * FROM r WHERE a3 <= (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2
		          OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b2 = c2))`},
		{rst, `SELECT DISTINCT * FROM r WHERE a1 <= (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 OR b4 > 1500)`},
		{rst, `SELECT DISTINCT * FROM r WHERE a4 > (SELECT SUM(DISTINCT b3) FROM s WHERE a2 = b2 OR b4 > 2970)`},
	}
	writes := func(n physical.Node) bool {
		switch n.(type) {
		case *physical.OuterJoin, *physical.BinaryGroup, *physical.BinaryGroupSort:
			return true
		}
		return false
	}
	for _, st := range stmts {
		fused := 0
		_, roots := physicalPlan(t, st.db, st.sql)
		for _, root := range roots {
			physical.Walk(root, func(n physical.Node) bool {
				switch x := n.(type) {
				case *physical.Filter:
					below := x.Child
					if p, ok := below.(*physical.Project); ok {
						below = p.Child
					}
					if writes(below) {
						t.Errorf("%s: Filter over %s", st.sql, below.Label())
					}
				case *physical.OuterJoin:
					if x.Keep != nil {
						fused++
					}
				case *physical.BinaryGroup:
					if x.Keep != nil {
						fused++
					}
				}
				return true
			})
		}
		if fused == 0 {
			t.Errorf("%s: no selection was fused", st.sql)
		}
		want, err := st.db.Query(st.sql, WithStrategy(Canonical))
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.db.Query(st.sql)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") || len(w) == 0 {
			t.Errorf("%s: unnested %d rows, canonical %d", st.sql, len(g), len(w))
		}
	}
}
