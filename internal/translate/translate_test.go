package translate

import (
	"strings"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/exec"
	"disqo/internal/sqlparser"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// rstCatalog creates the paper's R, S, T tables with a handful of rows.
func rstCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name, prefix string) *catalog.Table {
		tbl, err := cat.Create(name, []catalog.Column{
			{Name: prefix + "1", Type: types.KindInt},
			{Name: prefix + "2", Type: types.KindInt},
			{Name: prefix + "3", Type: types.KindInt},
			{Name: prefix + "4", Type: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	r := mk("r", "a")
	s := mk("s", "b")
	tt := mk("t", "c")
	load := func(tbl *catalog.Table, rows [][]int64) {
		for _, row := range rows {
			vals := make([]types.Value, len(row))
			for i, v := range row {
				vals[i] = types.NewInt(v)
			}
			if err := tbl.Insert(vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(r, [][]int64{{1, 10, 5, 1000}, {2, 20, 6, 2000}, {2, 10, 7, 1200}, {0, 30, 8, 1501}})
	load(s, [][]int64{{1, 10, 5, 1400}, {2, 10, 6, 1600}, {3, 20, 7, 1700}, {4, 40, 8, 100}})
	load(tt, [][]int64{{1, 5, 10, 9}, {2, 6, 10, 9}, {3, 7, 20, 9}})
	return cat
}

// tpchLiteCatalog creates the five TPC-H tables Query 2d touches, with
// just the columns the query uses.
func tpchLiteCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	must := func(_ *catalog.Table, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cat.Create("region", []catalog.Column{
		{Name: "r_regionkey", Type: types.KindInt},
		{Name: "r_name", Type: types.KindString},
	}))
	must(cat.Create("nation", []catalog.Column{
		{Name: "n_nationkey", Type: types.KindInt},
		{Name: "n_regionkey", Type: types.KindInt},
		{Name: "n_name", Type: types.KindString},
	}))
	must(cat.Create("supplier", []catalog.Column{
		{Name: "s_suppkey", Type: types.KindInt},
		{Name: "s_nationkey", Type: types.KindInt},
		{Name: "s_acctbal", Type: types.KindFloat},
		{Name: "s_name", Type: types.KindString},
		{Name: "s_address", Type: types.KindString},
		{Name: "s_phone", Type: types.KindString},
		{Name: "s_comment", Type: types.KindString},
	}))
	must(cat.Create("part", []catalog.Column{
		{Name: "p_partkey", Type: types.KindInt},
		{Name: "p_mfgr", Type: types.KindString},
		{Name: "p_size", Type: types.KindInt},
		{Name: "p_type", Type: types.KindString},
	}))
	must(cat.Create("partsupp", []catalog.Column{
		{Name: "ps_partkey", Type: types.KindInt},
		{Name: "ps_suppkey", Type: types.KindInt},
		{Name: "ps_supplycost", Type: types.KindFloat},
		{Name: "ps_availqty", Type: types.KindInt},
	}))
	return cat
}

func translateSQL(t *testing.T, cat *catalog.Catalog, sql string) algebra.Op {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(cat).Translate(stmt)
	if err != nil {
		t.Fatalf("Translate(%s): %v", sql, err)
	}
	return plan
}

func runSQL(t *testing.T, cat *catalog.Catalog, sql string) *storage.Relation {
	t.Helper()
	plan := translateSQL(t, cat, sql)
	ex := exec.New(cat, exec.Options{Cache: exec.CacheAll})
	rel, err := ex.Run(plan)
	if err != nil {
		t.Fatalf("run(%s): %v", sql, err)
	}
	return rel
}

func TestTranslateSimpleSelect(t *testing.T) {
	cat := rstCatalog(t)
	rel := runSQL(t, cat, "SELECT a1, a4 FROM r WHERE a4 > 1500")
	got := rel.Canonical()
	if len(got) != 2 || got[0] != "(0, 1501)" || got[1] != "(2, 2000)" {
		t.Errorf("rows = %v", got)
	}
}

func TestTranslateStarAndDistinct(t *testing.T) {
	cat := rstCatalog(t)
	rel := runSQL(t, cat, "SELECT DISTINCT a2 FROM r")
	if rel.Cardinality() != 3 {
		t.Errorf("DISTINCT a2 = %d rows", rel.Cardinality())
	}
	rel = runSQL(t, cat, "SELECT * FROM r")
	if rel.Schema.Len() != 4 || rel.Cardinality() != 4 {
		t.Errorf("star: %s", rel.Schema)
	}
}

func TestTranslateOrderBy(t *testing.T) {
	cat := rstCatalog(t)
	rel := runSQL(t, cat, "SELECT a1, a4 FROM r ORDER BY a4 DESC, a1")
	if !types.Identical(rel.Tuples[0][1], types.NewInt(2000)) {
		t.Errorf("order by desc first row: %v", rel.Tuples[0])
	}
	if !types.Identical(rel.Tuples[3][1], types.NewInt(1000)) {
		t.Errorf("order by last row: %v", rel.Tuples[3])
	}
}

func TestTranslateAlias(t *testing.T) {
	cat := rstCatalog(t)
	rel := runSQL(t, cat, "SELECT a1 AS k FROM r WHERE a1 = 1")
	if rel.Schema.Attr(0) != "k" {
		t.Errorf("alias schema = %s", rel.Schema)
	}
}

func TestTranslateExpressionItem(t *testing.T) {
	cat := rstCatalog(t)
	rel := runSQL(t, cat, "SELECT a1 + a2 AS s FROM r WHERE a1 = 2 AND a2 = 20")
	if rel.Cardinality() != 1 || !types.Identical(rel.Tuples[0][0], types.NewInt(22)) {
		t.Errorf("expr item: %s", rel)
	}
}

func TestTranslateJoinTreeUsesJoins(t *testing.T) {
	cat := rstCatalog(t)
	plan := translateSQL(t, cat, "SELECT * FROM r, s WHERE a2 = b2 AND a4 > 1500")
	// The equality must become a join, not a block-level selection, and
	// the a4 filter must be pushed onto the r scan.
	joins := 0
	algebra.Walk(plan, func(op algebra.Op) bool {
		if _, ok := op.(*algebra.Join); ok {
			joins++
		}
		if _, ok := op.(*algebra.CrossProduct); ok {
			t.Error("cross product left in plan despite join predicate")
		}
		return true
	})
	if joins != 1 {
		t.Errorf("joins = %d, want 1", joins)
	}
}

func TestTranslateCrossWhenUnconnected(t *testing.T) {
	cat := rstCatalog(t)
	plan := translateSQL(t, cat, "SELECT * FROM r, s")
	crosses := 0
	algebra.Walk(plan, func(op algebra.Op) bool {
		if _, ok := op.(*algebra.CrossProduct); ok {
			crosses++
		}
		return true
	})
	if crosses != 1 {
		t.Errorf("crosses = %d, want 1", crosses)
	}
}

// TestTranslateStarKeepsFromOrder: the join tree puts the smaller
// estimated input on the right — here the filtered s, or the derived
// table over it — yet SELECT * lists the FROM clause's columns in FROM
// order.
func TestTranslateStarKeepsFromOrder(t *testing.T) {
	cat := rstCatalog(t)
	for _, c := range []struct {
		sql, right string
		cols       []string
		row        string
	}{
		{"SELECT * FROM s, r WHERE a2 = b2 AND b4 > 1650", "s",
			[]string{"s.b1", "s.b2", "s.b3", "s.b4", "r.a1", "r.a2", "r.a3", "r.a4"},
			"(3, 20, 7, 1700, 2, 20, 6, 2000)"},
		{"SELECT * FROM (SELECT b1, b2 FROM s WHERE b4 > 1650) d, r WHERE a2 = d.b2", "d",
			[]string{"d.b1", "d.b2", "r.a1", "r.a2", "r.a3", "r.a4"},
			"(3, 20, 2, 20, 6, 2000)"},
	} {
		plan := translateSQL(t, cat, c.sql)
		var join *algebra.Join
		algebra.Walk(plan, func(op algebra.Op) bool {
			if j, ok := op.(*algebra.Join); ok && join == nil {
				join = j
			}
			return true
		})
		if join == nil || !strings.HasPrefix(join.R.Schema().Attr(0), c.right+".") {
			t.Errorf("%s: want %s on the join's right:\n%s", c.sql, c.right, algebra.Explain(plan))
		}
		if got := plan.Schema().Attrs(); strings.Join(got, ",") != strings.Join(c.cols, ",") {
			t.Errorf("%s: columns %v, want %v", c.sql, got, c.cols)
		}
		rel := runSQL(t, cat, c.sql)
		if got := rel.Canonical(); len(got) != 1 || got[0] != c.row {
			t.Errorf("%s: rows %v, want [%s]", c.sql, got, c.row)
		}
	}
}

func TestTranslateGlobalAggregate(t *testing.T) {
	cat := rstCatalog(t)
	rel := runSQL(t, cat, "SELECT COUNT(*) AS c, MIN(a4) AS m FROM r")
	got := rel.Canonical()
	if len(got) != 1 || got[0] != "(4, 1000)" {
		t.Errorf("global agg = %v", got)
	}
	// Global aggregate over an empty selection still yields one row.
	rel = runSQL(t, cat, "SELECT COUNT(*) AS c, MIN(a4) AS m FROM r WHERE a1 = 99")
	got = rel.Canonical()
	if len(got) != 1 || got[0] != "(0, NULL)" {
		t.Errorf("empty global agg = %v", got)
	}
}

func TestTranslateCanonicalQ1(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r
	        WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	           OR a4 > 1500`
	plan := translateSQL(t, cat, sql)
	if !algebra.ContainsSubquery(plan) {
		t.Fatal("canonical plan must keep the nested block")
	}
	infos := ClassifySubqueries(plan)
	if len(infos) != 1 || infos[0].Type != TypeJA {
		t.Fatalf("classification = %+v, want one JA block", infos)
	}
	ex := exec.New(cat, exec.Options{Cache: exec.CacheAll})
	rel, err := ex.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	// counts per a2: 10→2, 20→1, 30→0, per R row:
	// (1,10,5,1000): count=2≠1, a4≤1500 → out
	// (2,20,6,2000): count=1≠2, but a4>1500 → in
	// (2,10,7,1200): count=2=2 → in
	// (0,30,8,1501): count=0≠0? 0=0 ✓ → in (and a4>1500 also true)
	got := rel.Canonical()
	want := []string{"(0, 30, 8, 1501)", "(2, 10, 7, 1200)", "(2, 20, 6, 2000)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("Q1 = %v, want %v", got, want)
	}
}

func TestTranslateCanonicalQ2(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r
	        WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)`
	rel := runSQL(t, cat, sql)
	// Inner counts: matches on a2 plus all b4>1500 rows (s2:1600, s3:1700).
	// a2=10: rows s1,s2 match eq; b4>1500 adds s3 → count 3 (s2 counted once).
	// a2=20: s3 matches eq; plus s2 → ... recompute per R row:
	// S rows: (1,10,5,1400) (2,10,6,1600) (3,20,7,1700) (4,40,8,100)
	// pred: a2=b2 OR b4>1500.
	// a2=10 → {s1,s2} ∪ {s2,s3} = 3. a2=20 → {s3} ∪ {s2,s3} = 2.
	// a2=30 → {} ∪ {s2,s3} = 2. a2=40 → n/a.
	// R rows: (1,10,..): a1=1≠3. (2,20,..): a1=2=2 ✓. (2,10,..): 2≠3.
	// (0,30,..): 0≠2.
	got := rel.Canonical()
	if len(got) != 1 || got[0] != "(2, 20, 6, 2000)" {
		t.Errorf("Q2 = %v", got)
	}
}

func TestTranslateQuery2dEndToEnd(t *testing.T) {
	cat := tpchLiteCatalog(t)
	ins := func(table string, rows ...[]types.Value) {
		tbl, err := cat.Lookup(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	i, f, s := types.NewInt, types.NewFloat, types.NewString
	ins("region", []types.Value{i(0), s("EUROPE")}, []types.Value{i(1), s("ASIA")})
	ins("nation", []types.Value{i(0), i(0), s("GERMANY")}, []types.Value{i(1), i(1), s("JAPAN")})
	ins("supplier",
		[]types.Value{i(1), i(0), f(100), s("sup1"), s("addr1"), s("ph1"), s("c1")},
		[]types.Value{i(2), i(0), f(200), s("sup2"), s("addr2"), s("ph2"), s("c2")},
		[]types.Value{i(3), i(1), f(300), s("sup3"), s("addr3"), s("ph3"), s("c3")})
	ins("part",
		[]types.Value{i(10), s("mfgr1"), i(15), s("LARGE BRASS")},
		[]types.Value{i(20), s("mfgr2"), i(15), s("SMALL STEEL")})
	ins("partsupp",
		[]types.Value{i(10), i(1), f(5.0), i(100)},  // min cost for part 10 in EUROPE
		[]types.Value{i(10), i(2), f(7.0), i(5000)}, // not min, but availqty > 2000
		[]types.Value{i(10), i(3), f(1.0), i(100)},  // ASIA supplier: not in inner min scope
		[]types.Value{i(20), i(1), f(2.0), i(9000)}) // wrong part type
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
	rel := runSQL(t, cat, sql)
	// Expect suppliers 1 (min cost 5.0 among EUROPE suppliers of part 10)
	// and 2 (availqty 5000 > 2000), ordered by acctbal desc: sup2, sup1.
	if rel.Cardinality() != 2 {
		t.Fatalf("Query 2d rows = %d:\n%s", rel.Cardinality(), rel)
	}
	if !types.Identical(rel.Tuples[0][1], types.NewString("sup2")) ||
		!types.Identical(rel.Tuples[1][1], types.NewString("sup1")) {
		t.Errorf("Query 2d order: %s", rel)
	}
}

func TestTranslateCorrelationStaysAtBlockLevel(t *testing.T) {
	cat := rstCatalog(t)
	plan := translateSQL(t, cat,
		"SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 AND b4 > 100)")
	// Find the subquery plan and check its top is a Select containing the
	// correlation predicate (b4 filter may be pushed to the scan).
	var sub *algebra.ScalarSubquery
	algebra.Walk(plan, func(op algebra.Op) bool {
		if sel, ok := op.(*algebra.Select); ok {
			for _, e := range algebra.SplitConjuncts(sel.Pred) {
				if cmp, ok := e.(*algebra.CmpExpr); ok {
					if sq, ok := cmp.R.(*algebra.ScalarSubquery); ok {
						sub = sq
					}
				}
			}
		}
		return true
	})
	if sub == nil {
		t.Fatal("no scalar subquery found")
	}
	top, ok := sub.Plan.(*algebra.Select)
	if !ok {
		t.Fatalf("subquery top = %T, want Select with correlation", sub.Plan)
	}
	free := algebra.FreeColumns(sub.Plan)
	if len(free) != 1 || free[0] != "r.a2" {
		t.Errorf("free columns = %v, want [r.a2]", free)
	}
	if !strings.Contains(top.Pred.String(), "r.a2") {
		t.Errorf("correlation predicate not at block level: %s", top.Pred)
	}
}

func TestTranslateDuplicateRangeVariablesAcrossBlocks(t *testing.T) {
	cat := rstCatalog(t)
	// s appears in both blocks unaliased; the translator must
	// disambiguate qualifiers.
	rel := runSQL(t, cat, `SELECT DISTINCT b1 FROM s
	        WHERE b4 > (SELECT MAX(b4) FROM s WHERE b2 = 40)`)
	got := rel.Canonical()
	if len(got) != 3 { // b4 > 100: rows 1,2,3
		t.Errorf("self-nested rows = %v", got)
	}
}

func TestTranslateErrors(t *testing.T) {
	cat := rstCatalog(t)
	bad := []string{
		"SELECT * FROM missing",
		"SELECT zz FROM r",
		"SELECT a1 FROM r, s WHERE b1 = 1 ORDER BY zz",
		"SELECT a1 FROM r WHERE a1 = (SELECT b1 FROM s)",          // scalar subquery must aggregate
		"SELECT a1 FROM r WHERE a1 = (SELECT COUNT(*), 1 FROM s)", // single item
		"SELECT a1, COUNT(*) FROM r",                              // mixed agg
		"SELECT * FROM r, r",                                      // duplicate range var
		"SELECT a1 FROM r WHERE a2 IN (SELECT b1, b2 FROM s)",     // IN arity
	}
	for _, sql := range bad {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			continue // parse-level failure also fine
		}
		if _, err := New(cat).Translate(stmt); err == nil {
			t.Errorf("Translate(%q) should fail", sql)
		}
	}
}

func TestTranslateAmbiguousColumn(t *testing.T) {
	cat := catalog.New()
	cat.Create("x", []catalog.Column{{Name: "v", Type: types.KindInt}})
	cat.Create("y", []catalog.Column{{Name: "v", Type: types.KindInt}})
	stmt, _ := sqlparser.Parse("SELECT v FROM x, y")
	if _, err := New(cat).Translate(stmt); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column must error, got %v", err)
	}
}

func TestClassifyStructure(t *testing.T) {
	cases := []struct {
		sql  string
		want Structure
	}{
		{"SELECT * FROM r", Flat},
		{"SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)", Simple},
		{`SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2
		   OR b3 = (SELECT COUNT(*) FROM t WHERE b4 = c2))`, Linear},
		{`SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)
		   OR a3 = (SELECT COUNT(*) FROM t WHERE a4 = c2)`, Tree},
	}
	for _, c := range cases {
		stmt, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := ClassifyStructure(stmt); got != c.want {
			t.Errorf("structure(%q) = %s, want %s", c.sql, got, c.want)
		}
	}
}

func TestClassifyTypes(t *testing.T) {
	cat := rstCatalog(t)
	// Type A: uncorrelated scalar.
	plan := translateSQL(t, cat, "SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s)")
	infos := ClassifySubqueries(plan)
	if len(infos) != 1 || infos[0].Type != TypeA {
		t.Errorf("type A: %+v", infos)
	}
	// Type J: correlated EXISTS.
	plan = translateSQL(t, cat, "SELECT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2)")
	infos = ClassifySubqueries(plan)
	if len(infos) != 1 || infos[0].Type != TypeJ {
		t.Errorf("type J: %+v", infos)
	}
	// Type N: uncorrelated IN.
	plan = translateSQL(t, cat, "SELECT * FROM r WHERE a2 IN (SELECT b2 FROM s)")
	infos = ClassifySubqueries(plan)
	if len(infos) != 1 || infos[0].Type != TypeN {
		t.Errorf("type N: %+v", infos)
	}
}

func TestBlockTypeAndStructureStrings(t *testing.T) {
	if TypeJA.String() != "JA" || TypeN.String() != "N" || TypeA.String() != "A" || TypeJ.String() != "J" {
		t.Error("BlockType strings")
	}
	if Flat.String() != "flat" || Simple.String() != "simple" ||
		Linear.String() != "linear" || Tree.String() != "tree" {
		t.Error("Structure strings")
	}
}

func TestLimit(t *testing.T) {
	cat := rstCatalog(t)
	rel := runSQL(t, cat, "SELECT a1, a4 FROM r ORDER BY a4 DESC LIMIT 2")
	if rel.Cardinality() != 2 {
		t.Fatalf("limit rows = %d", rel.Cardinality())
	}
	if !types.Identical(rel.Tuples[0][1], types.NewInt(2000)) ||
		!types.Identical(rel.Tuples[1][1], types.NewInt(1501)) {
		t.Errorf("top-2 = %s", rel)
	}
	// LIMIT larger than the input passes everything through.
	rel = runSQL(t, cat, "SELECT a1 FROM r LIMIT 100")
	if rel.Cardinality() != 4 {
		t.Errorf("oversized limit = %d", rel.Cardinality())
	}
	// LIMIT 0 is empty; grouped queries support LIMIT too.
	rel = runSQL(t, cat, "SELECT a1 FROM r LIMIT 0")
	if rel.Cardinality() != 0 {
		t.Errorf("limit 0 = %d", rel.Cardinality())
	}
	rel = runSQL(t, cat, "SELECT a2, COUNT(*) AS n FROM r GROUP BY a2 ORDER BY a2 LIMIT 1")
	if rel.Cardinality() != 1 {
		t.Errorf("grouped limit = %d", rel.Cardinality())
	}
	// Negative limits are rejected at parse time.
	if _, err := sqlparser.Parse("SELECT a1 FROM r LIMIT -1"); err == nil {
		t.Error("negative limit must fail")
	}
}
