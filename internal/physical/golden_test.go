package physical_test

import (
	"strings"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/physical"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/translate"
	"disqo/internal/types"
)

// Golden physical-plan tests for the paper's Fig. 2(a–d) and Fig. 3(a–b):
// the physical EXPLAIN rendering of Q1 and Q2 under the strategy each
// panel corresponds to. Where the rewrite package's goldens pin the
// logical shapes, these pin what the lowering pass makes of them — the
// chosen join/grouping algorithms, what each row-writing operator emits
// ("→ [columns]") and which projections that leaves standing, the DAG
// sharing markers and the cardinality annotations.

const (
	goldenQ1 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	         OR a4 > 1500`
	goldenQ2 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)`
)

// emptyRST builds the three RST tables with no rows: empty inputs keep
// the rank ordering fixed so the golden shapes are purely structural.
func emptyRST(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, spec := range []struct{ name, prefix string }{{"r", "a"}, {"s", "b"}, {"t", "c"}} {
		if _, err := cat.Create(spec.name, []catalog.Column{
			{Name: spec.prefix + "1", Type: types.KindInt},
			{Name: spec.prefix + "2", Type: types.KindInt},
			{Name: spec.prefix + "3", Type: types.KindInt},
			{Name: spec.prefix + "4", Type: types.KindInt},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// physGolden lowers a query (optionally rewritten under caps), pins its
// plan (see pinned) and returns the rewrite trace.
func physGolden(t *testing.T, cat *catalog.Catalog, sql string, caps *rewrite.Caps, fp uint64, want string) []string {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := translate.New(cat).Translate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	if caps != nil {
		rw := rewrite.New(cat, *caps)
		if plan, err = rw.Rewrite(plan); err != nil {
			t.Fatal(err)
		}
		trace = rw.Trace
	}
	pl, err := physical.NewPlanner(stats.New(cat)).Plan(plan)
	if err != nil {
		t.Fatal(err)
	}
	roots := []physical.Node{pl.Root}
	for _, b := range algebra.WalkNested(plan, func(algebra.Op) {}) {
		n, _ := pl.BlockFor(b)
		roots = append(roots, n)
	}
	pinned(t, roots, fp, want)
	return trace
}

// pinned compares the physical EXPLAIN of roots[0] against the expected
// rendering, and the fingerprint of the roots — the main plan, then its
// nested blocks: what the result cache keys on — against fp.
func pinned(t *testing.T, roots []physical.Node, fp uint64, want string) {
	t.Helper()
	got := strings.TrimSpace(physical.Explain(roots[0]))
	want = strings.TrimSpace(want)
	if got != want {
		t.Errorf("physical plan drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if got := physical.Fingerprint(roots...); got != fp {
		t.Errorf("physical fingerprint drifted: got %#x, want %#x", got, fp)
	}
}

// Fig. 2(a): the canonical plan — one filter carrying the disjunction,
// the nested subquery evaluated per tuple (its plan is pre-lowered by
// the planner but only surfaces in the filter's label). SELECT *'s
// projection is the identity on the filter's rows and is gone.
func TestGoldenPhysicalFig2aQ1Canonical(t *testing.T) {
	physGolden(t, emptyRST(t), goldenQ1, nil, 0x23a63ee9567a48d9, `
Distinct  (est 0 rows)
  Filter[((r.a1 = COUNT(DISTINCT *){σ[(r.a2 = s.b2)](scan(s))}) OR (r.a4 > 1500))]  (est 0 rows)
    Scan(r)  (est 0 rows)
`)
}

// Fig. 2(b): the bypass cascade and Eqv. 1 carry Q1 on their own — the
// plan of Fig. 2(c) applies no Eqv. 5.
func TestGoldenPhysicalFig2bQ1BypassCaps(t *testing.T) {
	all := rewrite.AllCaps()
	trace := physGolden(t, emptyRST(t), goldenQ1, &all, 0x3d3cf0d138f4d143, goldenPhysicalQ1Unnested)
	if tr := strings.Join(trace, "; "); !strings.Contains(tr, "bypass cascade") || strings.Contains(tr, "Eqv. 5") {
		t.Errorf("Q1 wants the bypass cascade and no Eqv. 5, trace = %v", trace)
	}
}

// Fig. 2(c): the fully-capped plan. With empty tables the simple
// disjunct ranks first, so the bypass selection tests r.a4 > 1500 and
// only the negative stream pays for the unnested subquery — Eqv. 2's
// ordering. The cascade runs in one pass: the outerjoin over the unary
// grouping runs as one hashed binary grouping over s, and the cascade's
// disjunction, in its order, is fused into it. r.a4 > 1500 reads only r,
// so it decides its rows before the probe and only the others — the
// negative stream's — look their count up and are kept when a1 = g1
// holds. The Γ² emits what the union above it kept (g1 is not written);
// no σ±, stream or union is built.
func TestGoldenPhysicalFig2cQ1Unnested(t *testing.T) {
	all := rewrite.AllCaps()
	physGolden(t, emptyRST(t), goldenQ1, &all, 0x3d3cf0d138f4d143, goldenPhysicalQ1Unnested)
}

const goldenPhysicalQ1Unnested = `
Distinct  (est 0 rows)
  HashBinaryGroup[r.a2=s.b2][g1:COUNT(DISTINCT *)] σ[((r.a4 > 1500) OR (r.a1 = g1))] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 0 rows)
    Scan(r)  (est 0 rows)
    Scan(s)  (est 0 rows)
`

// Fig. 2(d): the same query under statistics that make r.a4 > 1500
// decide no row (no a4 exceeds 1500), flipping the order: the subquery
// disjunct accepts more rows per unit of cost, so it is unnested and
// bypassed first and the simple predicate filters only the negative
// stream — Eqv. 3's ordering, which is now the order of the fused
// disjunction's operands. The Γ² still tests r.a4 > 1500 before the
// probe, the one operand that reads r alone.
func TestGoldenPhysicalFig2dQ1SubqueryFirst(t *testing.T) {
	all := rewrite.AllCaps()
	physGolden(t, smallRST(t, 1000), goldenQ1, &all, 0xdf42b9aca0bdb3c3, `
Distinct  (est 1 rows)
  HashBinaryGroup[r.a2=s.b2][g1:COUNT(DISTINCT *)] σ[((r.a1 = g1) OR (r.a4 > 1500))] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 1 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`)
}

// The opposite statistics keep Eqv. 2: when every a4 exceeds 1500 the
// simple predicate decides every row, so it is bypassed first and the
// unnested subquery probes no row.
func TestGoldenPhysicalQ1DecidingComparisonFirst(t *testing.T) {
	all := rewrite.AllCaps()
	physGolden(t, smallRST(t, 2000), goldenQ1, &all, 0x3d3cf0d138f4d143, `
Distinct  (est 4 rows)
  HashBinaryGroup[r.a2=s.b2][g1:COUNT(DISTINCT *)] σ[((r.a4 > 1500) OR (r.a1 = g1))] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 4 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`)
}

// smallRST is emptyRST with four rows in r and in s; r.a4 runs from
// a4 up.
func smallRST(t *testing.T, a4 int64) *catalog.Catalog {
	t.Helper()
	cat := emptyRST(t)
	r, err := cat.Lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.Lookup("s")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := r.Insert([]types.Value{
			types.NewInt(i), types.NewInt(i * 10), types.NewInt(i), types.NewInt(a4 + i)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert([]types.Value{
			types.NewInt(i), types.NewInt(i * 10), types.NewInt(i), types.NewInt(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// Fig. 3(a): canonical Q2 — the disjunctively correlated subquery stays
// inside the filter.
func TestGoldenPhysicalFig3aQ2Canonical(t *testing.T) {
	physGolden(t, emptyRST(t), goldenQ2, nil, 0x6daefa42dd69981b, `
Distinct  (est 0 rows)
  Filter[(r.a1 = COUNT(*){σ[((r.a2 = s.b2) OR (s.b4 > 1500))](scan(s))})]  (est 0 rows)
    Scan(r)  (est 0 rows)
`)
}

// Q2 unnested via Eqv. 5 (the paper's Fig. 3(b) is Eqv. 4's plan, which
// is not built): one hashed Γ² on the correlation key splits s on the
// uncorrelated disjunct — the χ that would tag each s row with it is
// fused into the Γ² — folds the rows it holds on once and each key's
// group once, and writes only the r rows its fused linking selection
// a1 = g2 keeps.
func TestGoldenPhysicalQ2Eqv5(t *testing.T) {
	all := rewrite.AllCaps()
	physGolden(t, emptyRST(t), goldenQ2, &all, 0x65e939899f419a6f, `
Distinct  (est 0 rows)
  TagBinaryGroup(hash)[(r.a2 = s.b2) ∨ (s.b4 > 1500)][g2:COUNT(*)] σ[(r.a1 = g2)] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 0 rows)
    Scan(r)  (est 0 rows)
    Scan(s)  (est 0 rows)
`)
}

// Eqv. 5's q4_linear: the nested block's disjunct is itself a
// correlated subquery, unnested by Eqv. 1 below the tagged Γ².
func TestGoldenPhysicalQ4Linear(t *testing.T) {
	all := rewrite.AllCaps()
	physGolden(t, emptyRST(t), `SELECT DISTINCT * FROM r
	         WHERE a3 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2
	                      OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b2 = c2))`, &all, 0xbffd97889c401888, `
Distinct  (est 0 rows)
  TagBinaryGroup(hash)[(r.a2 = s.b2) ∨ (s.b3 = g3)][g2:COUNT(DISTINCT *)] σ[(r.a3 = g2)] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 0 rows)
    Scan(r)  (est 0 rows)
    HashBinaryGroup[s.b2=t.c2][g3:COUNT(DISTINCT *)]  (est 0 rows)
      Scan(s)  (est 0 rows)
      Scan(t)  (est 0 rows)
`)
}

// Fig. 7(b)'s Query 2d on a small TPC-H instance: a chain of hash joins
// under the bypass cascade's one Γ², each join emitting only what is read
// above it, the Sort's columns and the disjunction's.
func TestGoldenPhysicalQuery2d(t *testing.T) {
	cat := catalog.New()
	if err := datagen.LoadTPCH(cat, datagen.TPCHConfig{SF: 0.001, Seed: 1, Tables: datagen.TPCHQuery2dTables}); err != nil {
		t.Fatal(err)
	}
	all := rewrite.AllCaps()
	physGolden(t, cat, `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
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
	           ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`, &all, 0xb01f58bc449921bf, `
Sort[supplier.s_acctbal DESC, nation.n_name, supplier.s_name, part.p_partkey]  (est 1 rows)
  HashBinaryGroup[part.p_partkey=partsupp#2.ps_partkey][g1:MIN(partsupp#2.ps_supplycost)] σ[((partsupp.ps_availqty > 2000) OR (partsupp.ps_supplycost = g1))] → [supplier.s_acctbal, supplier.s_name, nation.n_name, part.p_partkey, part.p_mfgr, supplier.s_address, supplier.s_phone, supplier.s_comment] (8 of 11 cols)  (est 1 rows)
    HashJoin[nation.n_regionkey=region.r_regionkey] → [nation.n_name, supplier.s_name, supplier.s_address, supplier.s_phone, supplier.s_acctbal, supplier.s_comment, partsupp.ps_availqty, partsupp.ps_supplycost, part.p_partkey, part.p_mfgr] (10 of 14 cols)  (est 1 rows)
      HashJoin[nation.n_nationkey=supplier.s_nationkey] → [nation.n_name, nation.n_regionkey, supplier.s_name, supplier.s_address, supplier.s_phone, supplier.s_acctbal, supplier.s_comment, partsupp.ps_availqty, partsupp.ps_supplycost, part.p_partkey, part.p_mfgr] (11 of 14 cols)  (est 4 rows)
        Scan(nation)  (est 25 rows)
        HashJoin[supplier.s_suppkey=partsupp.ps_suppkey] → [supplier.s_name, supplier.s_address, supplier.s_nationkey, supplier.s_phone, supplier.s_acctbal, supplier.s_comment, partsupp.ps_availqty, partsupp.ps_supplycost, part.p_partkey, part.p_mfgr] (10 of 12 cols)  (est 4 rows)
          Scan(supplier)  (est 10 rows)
          HashJoin[partsupp.ps_partkey=part.p_partkey] → [partsupp.ps_suppkey, partsupp.ps_availqty, partsupp.ps_supplycost, part.p_partkey, part.p_mfgr] (5 of 14 cols)  (est 4 rows)
            Scan(partsupp)  (est 800 rows)
            Filter[((part.p_size = 15) AND (part.p_type LIKE '%BRASS'))]  (est 1 rows)
              Scan(part)  (est 200 rows)
      Filter[(region.r_name = 'EUROPE')]  (est 1 rows)
        Scan(region)  (est 5 rows)
    HashJoin[partsupp#2.ps_suppkey=supplier#2.s_suppkey] → [partsupp#2.ps_partkey, partsupp#2.ps_supplycost] (2 of 6 cols)  (est 160 rows)
      Scan(partsupp)  (est 800 rows)
      HashJoin[supplier#2.s_nationkey=nation#2.n_nationkey] → [supplier#2.s_suppkey] (1 of 8 cols)  (est 2 rows)
        Scan(supplier)  (est 10 rows)
        HashJoin[nation#2.n_regionkey=region#2.r_regionkey] → [nation#2.n_nationkey] (1 of 7 cols)  (est 5 rows)
          Scan(nation)  (est 25 rows)
          Filter[(region#2.r_name = 'EUROPE')]  (est 1 rows)
            Scan(region)  (est 5 rows)
`)
}

// The join and binary-grouping algorithms a rewritten statement picks:
// hash joins with and without a residual, nested-loop joins, the cross
// product, and Γ² sort-based on a θ-correlation, by nested loops and
// tagged.
func TestGoldenPhysicalAlgorithms(t *testing.T) {
	all := rewrite.AllCaps()
	for _, c := range []struct {
		sql  string
		fp   uint64
		want string
	}{
		{`SELECT a1, (SELECT SUM(b1) FROM s WHERE a2 <= b2) FROM r`, 0xcb559f764c92b6dd, `
Map[_col2:g1] → [r.a1, _col2] (2 of 3 cols)  (est 4 rows)
  SortBinaryGroup[r.a2 <= s.b2][g1:SUM(s.b1)] → [r.a1, g1] (2 of 5 cols)  (est 4 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`},
		{`SELECT DISTINCT * FROM r WHERE a1 < (SELECT COUNT(*) FROM s WHERE b2 >= a2)`, 0xaabf0b284ef1c79c, `
Distinct  (est 1 rows)
  SortBinaryGroup[r.a2 <= s.b2][g1:COUNT(*)] σ[(r.a1 < g1)] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 1 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`},
		{`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 < b2 AND a3 = b3)`, 0x68c955244ff40bd1, `
Distinct  (est 1 rows)
  NLBinaryGroup[((r.a2 < s.b2) AND (r.a3 = s.b3))][g1:COUNT(*)] σ[(r.a1 = g1)] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 1 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`},
		{`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 < b2 OR b4 > 1500)`, 0x3640614d539ed6a0, `
Distinct  (est 1 rows)
  TagBinaryGroup(nl)[(r.a2 < s.b2) ∨ (s.b4 > 1500)][g2:COUNT(*)] σ[(r.a1 = g2)] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 1 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`},
		{`SELECT DISTINCT * FROM r WHERE a1 = (SELECT MIN(b1) FROM s WHERE a2 < b2)`, 0x61d90abaadd50341, `
Distinct  (est 1 rows)
  SortBinaryGroup[r.a2 < s.b2][g1:MIN(s.b1)] σ[(r.a1 = g1)] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 1 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`},
		{`SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 < b2)`, 0x1b4cb0fa16292fc, `
Distinct  (est 2 rows)
  NLJoin(semi)[(r.a2 < s.b2)]  (est 2 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`},
		{`SELECT DISTINCT * FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > a4)`, 0x71707b97346da980, `
Distinct  (est 2 rows)
  HashJoin(anti)[r.a2=s.b2] residual[(s.b4 > r.a4)]  (est 2 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`},
		{`SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > a4)`, 0xc81b60e75dfea2c2, `
Distinct  (est 2 rows)
  HashJoin(semi)[r.a2=s.b2] residual[(s.b4 > r.a4)]  (est 2 rows)
    Scan(r)  (est 4 rows)
    Scan(s)  (est 4 rows)
`},
		{`SELECT r.a1, s.b1 FROM r, s WHERE a2 < b2`, 0x88305c78e51b7657, `
NLJoin[(r.a2 < s.b2)] → [r.a1, s.b1] (2 of 8 cols)  (est 5 rows)
  Scan(r)  (est 4 rows)
  Scan(s)  (est 4 rows)
`},
		{`SELECT r.a1, s.b1 FROM r, s`, 0x6a49ba326946f792, `
NLJoin[cross] → [r.a1, s.b1] (2 of 8 cols)  (est 16 rows)
  Scan(r)  (est 4 rows)
  Scan(s)  (est 4 rows)
`},
		{`SELECT r.a1, t.c1 FROM r, s, t WHERE a2 = b2 AND b4 = c2`, 0x1a2e3a7cb2aa467a, `
HashJoin[r.a2=s.b2] → [r.a1, t.c1] (2 of 6 cols)  (est 0 rows)
  Scan(r)  (est 4 rows)
  HashJoin[s.b4=t.c2] → [s.b2, t.c1] (2 of 8 cols)  (est 0 rows)
    Scan(s)  (est 4 rows)
    Scan(t)  (est 0 rows)
`},
	} {
		t.Run(c.sql, func(t *testing.T) { physGolden(t, smallRST(t, 1000), c.sql, &all, c.fp, c.want) })
	}
}

// The algorithms no rewrite of a SQL statement picks, lowered from
// algebra: Eqv. 1's ⟕ with MIN's NULL default and a key its predicate
// names twice (a hashed Γ² over the Γ's input, keyed twice on it), the
// hashed inner join with a residual, the nested-loop antijoin and the
// untagged hashed Γ². Other ⟕s have no physical plan
// (TestLowerRejectsOtherOuterJoins).
func TestGoldenPhysicalAlgebraAlgorithms(t *testing.T) {
	cat := testCat(t)
	r, s := scanOf(t, cat, "r"), scanOf(t, cat, "s")
	lt := algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2"))
	minB2 := []algebra.AggItem{{Out: "g1", Spec: agg.Spec{Kind: agg.Min}, Arg: algebra.Col("s.b2")}}
	for _, c := range []struct {
		op   algebra.Op
		fp   uint64
		want string
	}{
		{algebra.NewProject(algebra.NewLeftOuterJoin(r, algebra.NewGroupBy(s, []string{"s.b1"}, minB2, false),
			algebra.And(eq("r.a1", "s.b1"), eq("r.a2", "s.b1")), nil), []string{"r.a1", "g1"}), 0x2eef8cda92163d87, `
HashBinaryGroup[r.a1=s.b1 ∧ r.a2=s.b1][g1:MIN(s.b2)] → [r.a1, g1] (2 of 3 cols)  (est 3 rows)
  Scan(r)  (est 3 rows)
  Scan(s)  (est 3 rows)
`},
		{algebra.NewJoin(r, s, algebra.And(eq("r.a1", "s.b1"), lt)), 0x817713185ef54efe, `
HashJoin[r.a1=s.b1] residual[(r.a2 < s.b2)]  (est 1 rows)
  Scan(r)  (est 3 rows)
  Scan(s)  (est 3 rows)
`},
		{algebra.NewAntiJoin(r, s, lt), 0x39cdbfe46f92ea7, `
NLJoin(anti)[(r.a2 < s.b2)]  (est 2 rows)
  Scan(r)  (est 3 rows)
  Scan(s)  (est 3 rows)
`},
		{algebra.NewBinaryGroup(r, s, eq("r.a1", "s.b1"), countAgg()), 0xffa094265f0c8f32, `
HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)]  (est 3 rows)
  Scan(r)  (est 3 rows)
  Scan(s)  (est 3 rows)
`},
	} {
		pinned(t, []physical.Node{lower(t, cat, c.op)}, c.fp, c.want)
	}
}
