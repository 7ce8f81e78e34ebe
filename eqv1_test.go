package disqo

import (
	"strings"
	"testing"
)

// TestEqv1EdgesAgreeWithCanonical votes on Eqv. 1's binary grouping at
// its edges: NULL keys on both sides, an INT column equated with a
// FLOAT one (1 = 1.0), duplicate inner rows, a correlation column named
// twice, COUNT's 0 and the NULL of MIN and AVG on the empty group, a
// bypass above the link and a non-DISTINCT outer block. Each statement
// answers as Canonical does, as a bag, in both null modes at one worker
// and four, and its unnested plan runs the ⟕ over Γ as one hashed Γ².
func TestEqv1EdgesAgreeWithCanonical(t *testing.T) {
	db := fuseDB(t,
		"CREATE TABLE r (a1 INT, a2 INT, a3 INT)",
		"CREATE TABLE s (b1 INT, b2 FLOAT, b3 INT)",
		"INSERT INTO r VALUES (0, 1, 1), (2, 1, 1), (2, 1, 1), (1, 2, 2), (0, NULL, 3), (3, 3, 3), (NULL, 2, 2), (1, 5, 5), (0, 4, 9), (2, 2, 3)",
		"INSERT INTO s VALUES (1, 1.0, 1), (1, 1.0, 1), (2, 2.0, 2), (NULL, 2.0, 3), (5, NULL, 3), (3, 3.0, 3), (4, 1.5, 1), (7, 5.0, NULL)",
	)
	for _, sql := range []string{
		`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)`,
		`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 AND a3 = b3)`,
		`SELECT DISTINCT * FROM r WHERE a1 = (SELECT SUM(b1) FROM s WHERE a2 = b2 AND a3 = b2)`,
		`SELECT DISTINCT * FROM r WHERE a1 = (SELECT SUM(b1) FROM s WHERE a2 = b2 AND a3 = b2) OR a3 = 3`,
		`SELECT DISTINCT * FROM r WHERE NOT (a1 = (SELECT MIN(b1) FROM s WHERE a2 = b2))`,
		`SELECT DISTINCT * FROM r WHERE NOT (a1 < (SELECT AVG(b3) FROM s WHERE a3 = b2))`,
		`SELECT a1, a2 FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a3 = 3`,
	} {
		plan, err := db.Explain(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !strings.Contains(plan, "HashBinaryGroup[") || strings.Contains(plan, "OuterJoin") {
			t.Errorf("%s: the ⟕ over Γ is not one hashed Γ²:\n%s", sql, plan)
		}
		for _, nulls := range []NullMode{ThreeValuedNulls, TwoValuedNulls} {
			canonical, err := db.Query(sql, WithStrategy(Canonical), WithNullMode(nulls))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Join(sortedRows(canonical), ";")
			if len(canonical.Rows) == 0 || len(canonical.Rows) == 10 {
				t.Fatalf("%s (%s): canonical answers %s, which separates nothing", sql, nulls, want)
			}
			for _, workers := range []int{1, 4} {
				res, err := db.Query(sql, WithNullMode(nulls), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(sortedRows(res), ";"); got != want {
					t.Errorf("%s (%s, %d workers): %s, canonical %s", sql, nulls, workers, got, want)
				}
			}
		}
	}
}
