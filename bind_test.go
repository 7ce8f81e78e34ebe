package disqo

import (
	"strings"
	"testing"
)

// TestBindingVotes votes the statements whose column references the
// planner binds to frames of more than one depth: correlation two blocks
// deep (Q4's t-block reads s's b4 inside r's block, and r's a3 too), one
// column name in two frames by a self-correlated alias, one block shape
// embedded in a σ and a χ over different inputs, a θ predicate a
// nested-loop binary grouping evaluates on the pair of its rows, and
// aggregate arguments that are expressions — over r, s and t with NULLs
// and duplicate rows. Canonical on the row path at one worker is the
// reference; canonical and unnested each answer as it does, as bags, in
// both null modes, on both paths, at one worker and four.
func TestBindingVotes(t *testing.T) {
	db := collapseDB(t)
	for _, sql := range []string{
		`SELECT DISTINCT * FROM r WHERE a1 + 9 < (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2
		   OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))`,
		`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2
		   OR b3 = (SELECT COUNT(*) FROM t WHERE b4 > c4 AND c3 = a3))`,
		`SELECT DISTINCT * FROM r AS x WHERE x.a1 <= (SELECT COUNT(*) FROM r WHERE r.a2 = x.a2 AND r.a3 >= x.a3)`,
		`SELECT a1, a4 FROM r AS x WHERE EXISTS (SELECT * FROM r WHERE r.a3 = x.a2 AND r.a4 > x.a4)`,
		`SELECT a1, (SELECT COUNT(*) FROM s WHERE b2 = a2) FROM r WHERE a1 >= (SELECT COUNT(*) FROM s WHERE b2 = a2)`,
		`SELECT r.a1, (SELECT COUNT(*) FROM s WHERE b2 = r.a2) FROM t, r WHERE t.c1 = r.a1`,
		`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE b2 < a2 AND b3 <> a3)`,
		`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE b2 < a2 OR b4 > 2500)`,
		`SELECT DISTINCT * FROM r WHERE a1 = (SELECT SUM(b1 + b3) FROM s WHERE b2 = a2) OR a4 > 2000`,
		`SELECT DISTINCT * FROM r WHERE a4 > (SELECT MAX(b4 - a4) FROM s WHERE b2 = a2)`,
		`SELECT a2, SUM(a1 * a3), COUNT(DISTINCT a4 - a1) FROM r GROUP BY a2`,
	} {
		for _, nulls := range []NullMode{ThreeValuedNulls, TwoValuedNulls} {
			ref, err := db.Query(sql, WithStrategy(Canonical), WithNullMode(nulls), WithExecutionPath(PathRow), WithWorkers(1))
			if err != nil {
				t.Fatalf("%s (%s): %v", sql, nulls, err)
			}
			want := strings.Join(sortedRows(ref), ";")
			if len(ref.Rows) == 0 {
				t.Fatalf("%s (%s): canonical answers no row, which separates nothing", sql, nulls)
			}
			for _, s := range []Strategy{Canonical, Unnested} {
				for _, path := range []ExecutionPath{PathRow, PathVector} {
					for _, workers := range []int{1, 4} {
						res, err := db.Query(sql, WithStrategy(s), WithNullMode(nulls), WithExecutionPath(path), WithWorkers(workers))
						if err != nil {
							t.Fatalf("%s (%s, %s, %s, %d workers): %v", sql, s, nulls, path, workers, err)
						}
						if got := strings.Join(sortedRows(res), ";"); got != want {
							t.Errorf("%s (%s, %s, %s, %d workers):\n%s\ncanonical:\n%s", sql, s, nulls, path, workers, got, want)
						}
					}
				}
			}
		}
	}
}

// TestUpdateBindsSetOnce: a SET expression holding a correlated block is
// bound once over the table's rows, its block reading the row each time
// it runs, and writes the hand-counted values.
func TestUpdateBindsSetOnce(t *testing.T) {
	db := fuseDB(t,
		"CREATE TABLE s (b1 INT, b2 INT)",
		"CREATE TABLE t (c1 INT, c2 INT, c3 INT, c4 INT)",
		"INSERT INTO s VALUES (5, 1), (7, 1), (2, 2), (9, NULL)",
		"INSERT INTO t VALUES (0, 1, 1, 0), (0, 2, 1, 0), (0, 3, 1, 0), (0, NULL, 1, 0), (9, 1, 0, 0)",
	)
	n, err := db.Exec(`UPDATE t SET c1 = (SELECT COUNT(*) FROM s WHERE b2 = t.c2),
		c4 = c2 + (SELECT MAX(b1) FROM s WHERE b2 = c2) WHERE c3 = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("updated %d rows, want 4", n)
	}
	res, err := db.Query("SELECT c1, c2, c3, c4 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"(0, 3, 1, NULL)", "(0, NULL, 1, NULL)", "(1, 2, 1, 4)", "(2, 1, 1, 8)", "(9, 1, 0, 0)"}
	if got := sortedRows(res); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("after UPDATE: %v, want %v", got, want)
	}
}
