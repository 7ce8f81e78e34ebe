package physical_test

import (
	"strings"
	"testing"

	"disqo/internal/catalog"
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

// physGolden lowers a query (optionally rewritten under caps) and
// compares the physical EXPLAIN against the expected rendering.
func physGolden(t *testing.T, cat *catalog.Catalog, sql string, caps *rewrite.Caps, want string) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := translate.New(cat).Translate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if caps != nil {
		plan, err = rewrite.New(cat, *caps).Rewrite(plan)
		if err != nil {
			t.Fatal(err)
		}
	}
	n, err := physical.NewPlanner(stats.New(cat)).Lower(plan)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(physical.Explain(n))
	want = strings.TrimSpace(want)
	if got != want {
		t.Errorf("physical plan drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// Fig. 2(a): the canonical plan — one filter carrying the disjunction,
// the nested subquery evaluated per tuple (its plan is pre-lowered by
// the planner but only surfaces in the filter's label). SELECT *'s
// projection is the identity on the filter's rows and is gone.
func TestGoldenPhysicalFig2aQ1Canonical(t *testing.T) {
	physGolden(t, emptyRST(t), goldenQ1, nil, `
Distinct  (est 0 rows)
  Filter[((r.a1 = COUNT(DISTINCT *){σ[(r.a2 = s.b2)](scan(s))}) OR (r.a4 > 1500))]  (est 0 rows)
    Scan(r)  (est 0 rows)
`)
}

// Fig. 2(b): the bypass cascade needs only the Conjunctive and Bypass
// caps — Eqv. 2/3 carry Q1 on their own, without Eqv. 5.
func TestGoldenPhysicalFig2bQ1BypassCaps(t *testing.T) {
	caps := rewrite.Caps{Conjunctive: true, Bypass: true}
	physGolden(t, emptyRST(t), goldenQ1, &caps, goldenPhysicalQ1Unnested)
}

// Fig. 2(c): the fully-capped plan. With empty tables the simple
// disjunct ranks first, so the bypass selection tests r.a4 > 1500 and
// only the negative stream pays for the unnested subquery — Eqv. 2's
// ordering. The outerjoin and unary grouping both hash (equality keys),
// the linking selection a1 = g1 is fused into the outerjoin, which
// evaluates it on each pair and emits what the projection over it kept
// (neither the grouping key s.b2 nor g1 is written), and the σ± node is
// shared between the two streams (#1 marker).
func TestGoldenPhysicalFig2cQ1Unnested(t *testing.T) {
	all := rewrite.AllCaps()
	physGolden(t, emptyRST(t), goldenQ1, &all, goldenPhysicalQ1Unnested)
}

const goldenPhysicalQ1Unnested = `
Distinct  (est 0 rows)
  UnionDisjoint  (est 0 rows)
    Stream+  (est 0 rows)
      #1 Filter±[(r.a4 > 1500)]  (est 0 rows)
        Scan(r)  (est 0 rows)
    HashOuterJoin[r.a2=s.b2] σ[(r.a1 = g1)] → [r.a1, r.a2, r.a3, r.a4] (4 of 6 cols)  (est 0 rows)
      Stream-  (est 0 rows)
        ↑ see #1 Filter±[(r.a4 > 1500)]
      HashGroup[[s.b2]][g1:COUNT(DISTINCT *)]  (est 1 rows)
        Scan(s)  (est 0 rows)
`

// Fig. 2(d): the same query under statistics that make r.a4 > 1500
// unselective (every a4 exceeds 1500), flipping the rank order: the
// subquery disjunct is unnested and bypassed first and the simple
// predicate filters only the negative stream — Eqv. 3's ordering.
func TestGoldenPhysicalFig2dQ1SubqueryFirst(t *testing.T) {
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
			types.NewInt(i), types.NewInt(i * 10), types.NewInt(i), types.NewInt(2000 + i)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert([]types.Value{
			types.NewInt(i), types.NewInt(i * 10), types.NewInt(i), types.NewInt(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	all := rewrite.AllCaps()
	physGolden(t, cat, goldenQ1, &all, `
Distinct  (est 4 rows)
  UnionDisjoint  (est 4 rows)
    Project[r.a1, r.a2, r.a3, r.a4]  (est 1 rows)
      Stream+  (est 1 rows)
        #1 Filter±[(r.a1 = g1)]  (est 4 rows)
          HashOuterJoin[r.a2=s.b2] → [r.a1, r.a2, r.a3, r.a4, g1] (5 of 6 cols)  (est 4 rows)
            Scan(r)  (est 4 rows)
            HashGroup[[s.b2]][g1:COUNT(DISTINCT *)]  (est 4 rows)
              Scan(s)  (est 4 rows)
    Project[r.a1, r.a2, r.a3, r.a4]  (est 3 rows)
      Filter[(r.a4 > 1500)]  (est 3 rows)
        Stream-  (est 3 rows)
          ↑ see #1 Filter±[(r.a1 = g1)]
`)
}

// Fig. 3(a): canonical Q2 — the disjunctively correlated subquery stays
// inside the filter.
func TestGoldenPhysicalFig3aQ2Canonical(t *testing.T) {
	physGolden(t, emptyRST(t), goldenQ2, nil, `
Distinct  (est 0 rows)
  Filter[(r.a1 = COUNT(*){σ[((r.a2 = s.b2) OR (s.b4 > 1500))](scan(s))})]  (est 0 rows)
    Scan(r)  (est 0 rows)
`)
}

// Q2 unnested via Eqv. 5 (the paper's Fig. 3(b) is Eqv. 4's plan, which
// is not built): the χ tags each s row with the uncorrelated disjunct,
// and one hashed Γ² on the correlation key folds the tagged rows once and
// each key's group once, and writes only the r rows its fused linking
// selection a1 = g2 keeps.
func TestGoldenPhysicalQ2Eqv5(t *testing.T) {
	all := rewrite.AllCaps()
	physGolden(t, emptyRST(t), goldenQ2, &all, `
Distinct  (est 0 rows)
  TagBinaryGroup(hash)[(r.a2 = s.b2) ∨ tag1][g2:COUNT(*)] σ[(r.a1 = g2)] → [r.a1, r.a2, r.a3, r.a4] (4 of 5 cols)  (est 0 rows)
    Scan(r)  (est 0 rows)
    Map[tag1:(s.b4 > 1500)] → [s.b2, tag1] (2 of 5 cols)  (est 0 rows)
      Scan(s)  (est 0 rows)
`)
}
