package translate

import (
	"strings"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/exec"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
	"disqo/internal/types"
)

// finishCatalog is six rows: r(a1, a2, a3) with groups a2 = 10, 20, 30
// and NULLs in a3, and s(b1, b2).
//
//	r: (1, 10, 5) (2, 10, NULL) (3, 20, NULL) (4, 30, 7)
//	s: (2, 10) (4, 30)
func finishCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	ints := func(names ...string) []catalog.Column {
		cols := make([]catalog.Column, len(names))
		for i, n := range names {
			cols[i] = catalog.Column{Name: n, Type: types.KindInt}
		}
		return cols
	}
	n := types.Null()
	i := types.NewInt
	for name, rows := range map[string][][]types.Value{
		"r": {{i(1), i(10), i(5)}, {i(2), i(10), n}, {i(3), i(20), n}, {i(4), i(30), i(7)}},
		"s": {{i(2), i(10)}, {i(4), i(30)}},
	} {
		cols := ints("a1", "a2", "a3")
		if name == "s" {
			cols = ints("b1", "b2")
		}
		tbl, err := cat.Create(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat
}

// runVoters runs a statement's canonical and unnested plans in both null
// modes and returns each voter's rows: in result order when the statement
// sorts, sorted otherwise.
func runVoters(t *testing.T, cat *catalog.Catalog, sql string) (map[string][]string, error) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	plan, err := New(cat).Translate(stmt)
	if err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for _, nulls := range []string{"3vl", "2vl"} {
		p := plan
		if nulls == "2vl" {
			if p, err = TwoValued(plan); err != nil {
				t.Fatalf("%s: 2vl: %v", sql, err)
			}
		}
		unnested, err := rewrite.New(cat, rewrite.AllCaps()).Rewrite(p)
		if err != nil {
			t.Fatalf("%s: rewrite: %v", sql, err)
		}
		for strategy, q := range map[string]algebra.Op{"canonical": p, "unnested": unnested} {
			rel, err := exec.New(cat, exec.Options{Cache: exec.CacheAll}).Run(q)
			if err != nil {
				t.Fatalf("%s: %s/%s: %v", sql, strategy, nulls, err)
			}
			rows := rel.Canonical()
			if len(stmt.OrderBy) > 0 {
				rows = rows[:0]
				for _, tup := range rel.Tuples {
					rows = append(rows, types.FormatTuple(tup))
				}
			}
			out[strategy+"/"+nulls] = rows
		}
	}
	return out, nil
}

// TestFinishShapes runs plain, global-aggregate and grouped blocks through
// every clause of a SELECT's tail, against rows written out by hand. A
// want of nil expects a translate error containing errPart.
func TestFinishShapes(t *testing.T) {
	cat := finishCatalog(t)
	cases := []struct {
		sql     string
		cols    string
		want    []string
		errPart string
	}{
		// Plain.
		{"SELECT a1 AS x FROM r", "[x]", []string{"(1)", "(2)", "(3)", "(4)"}, ""},
		{"SELECT a1 AS x FROM r ORDER BY x DESC", "[x]", []string{"(4)", "(3)", "(2)", "(1)"}, ""},
		{"SELECT a1 AS x FROM r ORDER BY a1 DESC", "[x]", []string{"(4)", "(3)", "(2)", "(1)"}, ""},
		{"SELECT DISTINCT a2 FROM r", "[r.a2]", []string{"(10)", "(20)", "(30)"}, ""},
		{"SELECT a1 FROM r LIMIT 0", "[r.a1]", []string{}, ""},
		{"SELECT a1 FROM r ORDER BY a1 LIMIT 1", "[r.a1]", []string{"(1)"}, ""},
		// An output name comes before the FROM column it shadows.
		{"SELECT a1 AS a2, a2 AS a1 FROM r ORDER BY a1 DESC, a2", "[a2, a1]",
			[]string{"(4, 30)", "(3, 20)", "(1, 10)", "(2, 10)"}, ""},
		{"SELECT a1 FROM r ORDER BY a2", "", nil, "must appear in the select list"},
		// A column output again under an alias is a copy, not a rename.
		{"SELECT a1, a1 AS x FROM r ORDER BY x DESC", "[r.a1, x]",
			[]string{"(4, 4)", "(3, 3)", "(2, 2)", "(1, 1)"}, ""},
		{"SELECT a1, a1 FROM r", "", nil, "duplicate output column"},
		{"SELECT a1 AS x, a2 AS x FROM r", "", nil, "duplicate output column"},
		{"SELECT a1 AS _col2, a2 + 1 FROM r", "", nil, "duplicate output column"},

		// Global aggregate: grouped by no keys.
		{"SELECT COUNT(*) AS n FROM r", "[n]", []string{"(4)"}, ""},
		{"SELECT COUNT(*) AS n, MAX(a1) AS m FROM r ORDER BY n", "[n, m]", []string{"(4, 4)"}, ""},
		{"SELECT COUNT(*) AS n FROM r ORDER BY a1", "", nil, "must appear in the select list"},
		{"SELECT DISTINCT COUNT(*) FROM r", "[_agg1]", []string{"(4)"}, ""},
		{"SELECT COUNT(*) FROM r LIMIT 0", "[_agg1]", []string{}, ""},
		{"SELECT COUNT(*) FROM r LIMIT 1", "[_agg1]", []string{"(4)"}, ""},
		{"SELECT COUNT(*) + 1 AS c FROM r", "[c]", []string{"(5)"}, ""},
		{"SELECT a1, COUNT(*) FROM r", "", nil, "must appear in GROUP BY"},
		{"SELECT COUNT(*) AS n, MAX(a1) AS n FROM r", "", nil, "duplicate output column"},
		{"SELECT MAX(a1) - a1 FROM r", "", nil, "must appear in GROUP BY"},

		// Grouped.
		{"SELECT a2 AS k, COUNT(*) AS n FROM r GROUP BY a2", "[k, n]",
			[]string{"(10, 2)", "(20, 1)", "(30, 1)"}, ""},
		{"SELECT a2 AS k, COUNT(*) AS n FROM r GROUP BY a2 ORDER BY k DESC", "[k, n]",
			[]string{"(30, 1)", "(20, 1)", "(10, 2)"}, ""},
		{"SELECT a2 AS k, COUNT(*) AS n FROM r GROUP BY a2 ORDER BY a2 DESC", "[k, n]",
			[]string{"(30, 1)", "(20, 1)", "(10, 2)"}, ""},
		{"SELECT DISTINCT COUNT(*) AS n FROM r GROUP BY a2", "[n]", []string{"(1)", "(2)"}, ""},
		{"SELECT a2 FROM r GROUP BY a2 LIMIT 0", "[r.a2]", []string{}, ""},
		{"SELECT a2 FROM r GROUP BY a2 ORDER BY a2 LIMIT 1", "[r.a2]", []string{"(10)"}, ""},
		{"SELECT a2 + 1 AS k, COUNT(*) + 1 AS n FROM r GROUP BY a2 ORDER BY k", "[k, n]",
			[]string{"(11, 3)", "(21, 2)", "(31, 2)"}, ""},
		{"SELECT a2 AS k FROM r GROUP BY a2 ORDER BY a1", "", nil, "must appear in the select list"},

		// HAVING over aggregates, in every expression form.
		{"SELECT a2 FROM r GROUP BY a2 HAVING COUNT(*) > 1", "[r.a2]", []string{"(10)"}, ""},
		{"SELECT a2 FROM r GROUP BY a2 HAVING SUM(a1) BETWEEN 2 AND 3", "[r.a2]", []string{"(10)", "(20)"}, ""},
		{"SELECT a2 FROM r GROUP BY a2 HAVING MAX(a1) IN (SELECT b1 FROM s)", "[r.a2]", []string{"(10)", "(30)"}, ""},
		{"SELECT a2 FROM r GROUP BY a2 HAVING MAX(a3) IS NULL", "[r.a2]", []string{"(20)"}, ""},
		// ... and a column outside an aggregate that is not grouped.
		{"SELECT a2 FROM r GROUP BY a2 HAVING a1 > 1", "", nil, "must appear in GROUP BY"},
		{"SELECT a2 FROM r GROUP BY a2 HAVING a1 BETWEEN 1 AND 3", "", nil, "must appear in GROUP BY"},
		{"SELECT a2 FROM r GROUP BY a2 HAVING a1 IN (SELECT b1 FROM s)", "", nil, "must appear in GROUP BY"},
		{"SELECT a2 FROM r GROUP BY a2 HAVING a3 IS NULL", "", nil, "must appear in GROUP BY"},
		{"SELECT a2 FROM r GROUP BY a2 HAVING EXISTS (SELECT * FROM s WHERE b1 = a1)", "", nil, "must appear in GROUP BY"},
		{"SELECT a2, a1 + 1 FROM r GROUP BY a2", "", nil, "must appear in GROUP BY"},
	}
	for _, c := range cases {
		votes, err := runVoters(t, cat, c.sql)
		if c.want == nil {
			if err == nil || !strings.Contains(err.Error(), c.errPart) {
				t.Errorf("%s: error %v, want one containing %q", c.sql, err, c.errPart)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if plan := translateSQL(t, cat, c.sql); plan.Schema().String() != c.cols {
			t.Errorf("%s: columns %s, want %s", c.sql, plan.Schema(), c.cols)
		}
		for voter, got := range votes {
			if strings.Join(got, " ") != strings.Join(c.want, " ") {
				t.Errorf("%s: %s rows %v, want %v", c.sql, voter, got, c.want)
			}
		}
	}
}

// TestFinishNestedClauses holds every nested form to one clause rule:
// GROUP BY (and so HAVING) and LIMIT are errors naming the clause, and
// DISTINCT and ORDER BY leave the answer as it is without them.
func TestFinishNestedClauses(t *testing.T) {
	cat := finishCatalog(t)
	for _, c := range []struct {
		form, block, sorted string
		want                []string
	}{
		{"a1 = (%s)", "SELECT COUNT(*) AS c FROM s WHERE b2 = a2",
			"SELECT DISTINCT COUNT(*) AS c FROM s WHERE b2 = a2 ORDER BY c", []string{"(1)"}},
		{"a1 IN (%s)", "SELECT b1 FROM s", "SELECT DISTINCT b1 FROM s ORDER BY b1 DESC", []string{"(2)", "(4)"}},
		{"a1 < ALL (%s)", "SELECT b1 FROM s", "SELECT DISTINCT b1 FROM s ORDER BY b1", []string{"(1)"}},
		{"a1 > ANY (%s)", "SELECT b1 FROM s", "SELECT DISTINCT b1 FROM s ORDER BY b1", []string{"(3)", "(4)"}},
		{"EXISTS (%s)", "SELECT * FROM s WHERE b2 = a2", "SELECT DISTINCT * FROM s WHERE b2 = a2 ORDER BY b1",
			[]string{"(1)", "(2)", "(4)"}},
	} {
		query := func(block string) string {
			return "SELECT a1 FROM r WHERE " + strings.Replace(c.form, "%s", block, 1)
		}
		for _, block := range []string{c.block, c.sorted} {
			votes, err := runVoters(t, cat, query(block))
			if err != nil {
				t.Errorf("%s: %v", query(block), err)
				continue
			}
			for voter, got := range votes {
				if strings.Join(got, " ") != strings.Join(c.want, " ") {
					t.Errorf("%s: %s rows %v, want %v", query(block), voter, got, c.want)
				}
			}
		}
		for clause, block := range map[string]string{
			"GROUP BY": c.block + " GROUP BY b1",
			"LIMIT":    c.block + " LIMIT 1",
		} {
			if _, err := runVoters(t, cat, query(block)); err == nil || !strings.Contains(err.Error(), clause) {
				t.Errorf("%s: error %v, want one naming %s", query(block), err, clause)
			}
		}
	}
	// A LIMIT that would empty the block is an error too, not ignored.
	if _, err := runVoters(t, cat, "SELECT COUNT(*) FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 LIMIT 0)"); err == nil {
		t.Error("EXISTS (... LIMIT 0) must be a translate error")
	}
}
