package rewrite

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/exec"
	"disqo/internal/sqlparser"
	"disqo/internal/storage"
	"disqo/internal/translate"
	"disqo/internal/types"
)

// rstCatalog builds R, S, T with duplicates and NULLs to stress duplicate
// handling (§3.7) and the count bug.
func rstCatalog(t testing.TB) *catalog.Catalog {
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
	r, s, tt := mk("r", "a"), mk("s", "b"), mk("t", "c")
	load := func(tbl *catalog.Table, rows [][]any) {
		for _, row := range rows {
			vals := make([]types.Value, len(row))
			for i, v := range row {
				if v == nil {
					vals[i] = types.Null()
				} else {
					vals[i] = types.NewInt(int64(v.(int)))
				}
			}
			if err := tbl.Insert(vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(r, [][]any{
		{1, 10, 5, 1000},
		{2, 20, 6, 2000},
		{2, 10, 7, 1200},
		{0, 30, 8, 1501},
		{2, 10, 7, 1200}, // duplicate tuple
		{nil, 10, 9, 1700},
		{1, nil, 9, 100},
	})
	load(s, [][]any{
		{1, 10, 5, 1400},
		{2, 10, 6, 1600},
		{3, 20, 7, 1700},
		{4, 40, 8, 100},
		{2, 10, 6, 1600}, // duplicate
		{5, nil, 7, 1800},
		{6, 20, nil, 50},
	})
	load(tt, [][]any{
		{1, 5, 10, 9},
		{2, 6, 10, 9},
		{3, 7, 20, 9},
		{4, nil, 20, 9},
	})
	return cat
}

func planFor(t testing.TB, cat *catalog.Catalog, sql string, caps Caps) (canonical, rewritten algebra.Op, rw *Rewriter) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err = translate.New(cat).Translate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	rw = New(cat, caps)
	rewritten, err = rw.Rewrite(canonical)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	return canonical, rewritten, rw
}

func run(t testing.TB, cat *catalog.Catalog, plan algebra.Op) *storage.Relation {
	t.Helper()
	ex := exec.New(cat, exec.Options{Cache: exec.CacheAll})
	rel, err := ex.Run(plan)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, algebra.Explain(plan))
	}
	return rel
}

// assertEquivalent runs both plans and compares canonicalized results.
func assertEquivalent(t testing.TB, cat *catalog.Catalog, a, b algebra.Op, label string) {
	t.Helper()
	ra := run(t, cat, a).Canonical()
	rb := run(t, cat, b).Canonical()
	if strings.Join(ra, "\n") != strings.Join(rb, "\n") {
		t.Errorf("%s: results differ\ncanonical (%d rows): %v\nrewritten (%d rows): %v\nplan:\n%s",
			label, len(ra), ra, len(rb), rb, algebra.Explain(b))
	}
}

func countOps(plan algebra.Op, pred func(algebra.Op) bool) int {
	n := 0
	algebra.Walk(plan, func(op algebra.Op) bool {
		if pred(op) {
			n++
		}
		return true
	})
	return n
}

const (
	q1 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	         OR a4 > 1500`
	q2 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)`
	q3 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	         OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)`
	q4 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2
	                   OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))`
)

func TestQ1UnnestedShapeAndResult(t *testing.T) {
	cat := rstCatalog(t)
	canonical, rewritten, rw := planFor(t, cat, q1, AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Fatalf("Q1 must be fully unnested:\n%s", algebra.Explain(rewritten))
	}
	// Fig. 2(c) shape: a bypass selection, a unary grouping, an outerjoin
	// and a disjoint union.
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.BypassSelect); return ok }) != 1 {
		t.Errorf("want 1 bypass select:\n%s", algebra.Explain(rewritten))
	}
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.GroupBy); return ok }) != 1 {
		t.Errorf("want 1 Γ:\n%s", algebra.Explain(rewritten))
	}
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.LeftOuterJoin); return ok }) != 1 {
		t.Errorf("want 1 ⟕:\n%s", algebra.Explain(rewritten))
	}
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.UnionDisjoint); return ok }) != 1 {
		t.Errorf("want 1 ∪̇:\n%s", algebra.Explain(rewritten))
	}
	if len(rw.Trace) == 0 || !strings.Contains(strings.Join(rw.Trace, ";"), "Eqv. 1") {
		t.Errorf("trace = %v", rw.Trace)
	}
	assertEquivalent(t, cat, canonical, rewritten, "Q1")
}

func TestQ2UnnestedViaEqv5(t *testing.T) {
	cat := rstCatalog(t)
	canonical, rewritten, rw := planFor(t, cat, q2, AllCaps())
	// No subquery anywhere, χ expressions included: nothing is left to
	// look up once per outer row.
	if algebra.ContainsSubquery(rewritten) {
		t.Fatalf("Q2 still holds a subquery:\n%s", algebra.Explain(rewritten))
	}
	if !strings.Contains(strings.Join(rw.Trace, ";"), "Eqv. 5") {
		t.Errorf("expected Eqv. 5, trace = %v", rw.Trace)
	}
	// Tagged shape: one Γ² over the tag map, no bypass selection.
	if countOps(rewritten, func(op algebra.Op) bool { x, ok := op.(*algebra.BinaryGroup); return ok && x.Tag != "" }) != 1 {
		t.Errorf("want 1 tagged Γ²:\n%s", algebra.Explain(rewritten))
	}
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.BypassSelect); return ok }) != 0 {
		t.Errorf("want no bypass select:\n%s", algebra.Explain(rewritten))
	}
	assertEquivalent(t, cat, canonical, rewritten, "Q2")
}

func TestQ2DistinctCountForcesEqv5(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r
	        WHERE a1 = (SELECT COUNT(DISTINCT b1) FROM s WHERE a2 = b2 OR b4 > 1500)`
	canonical, rewritten, rw := planFor(t, cat, sql, AllCaps())
	if !strings.Contains(strings.Join(rw.Trace, ";"), "Eqv. 5") {
		t.Fatalf("COUNT(DISTINCT) must use Eqv. 5, trace = %v", rw.Trace)
	}
	// Tagged Eqv. 5 shape: one Γ² naming the tag its right input's χ defines.
	var bg *algebra.BinaryGroup
	algebra.Walk(rewritten, func(op algebra.Op) bool {
		if x, ok := op.(*algebra.BinaryGroup); ok {
			bg = x
		}
		return true
	})
	if bg == nil || bg.Tag == "" {
		t.Fatalf("want a tagged Γ²:\n%s", algebra.Explain(rewritten))
	}
	if m, ok := bg.R.(*algebra.MapOp); !ok || m.Attr != bg.Tag {
		t.Errorf("want χ[%s:p] under Γ²:\n%s", bg.Tag, algebra.Explain(rewritten))
	}
	assertEquivalent(t, cat, canonical, rewritten, "Q2-distinct")
}

func TestQ3TreeQuery(t *testing.T) {
	cat := rstCatalog(t)
	canonical, rewritten, rw := planFor(t, cat, q3, AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Fatalf("Q3 must be fully unnested:\n%s", algebra.Explain(rewritten))
	}
	// Two groupings and two outerjoins (one per subquery), one bypass
	// select (the second linking predicate is last in the cascade).
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.GroupBy); return ok }) != 2 {
		t.Errorf("want 2 Γ:\n%s", algebra.Explain(rewritten))
	}
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.LeftOuterJoin); return ok }) != 2 {
		t.Errorf("want 2 ⟕:\n%s", algebra.Explain(rewritten))
	}
	if len(rw.Trace) < 2 {
		t.Errorf("trace = %v", rw.Trace)
	}
	assertEquivalent(t, cat, canonical, rewritten, "Q3")
}

func TestQ4LinearQuery(t *testing.T) {
	cat := rstCatalog(t)
	canonical, rewritten, rw := planFor(t, cat, q4, AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Fatalf("Q4 must be fully unnested:\n%s", algebra.Explain(rewritten))
	}
	trace := strings.Join(rw.Trace, ";")
	// Fig. 6: Eqv. 5 at the outer level, then Eqv. 1 for the innermost
	// block against the joined stream.
	if !strings.Contains(trace, "Eqv. 5") || !strings.Contains(trace, "Eqv. 1") {
		t.Errorf("trace = %v", rw.Trace)
	}
	assertEquivalent(t, cat, canonical, rewritten, "Q4")
}

// TestEqv5NestedPUnnestsAgainstInner pins what the tagged form buys a
// linear query: whatever form the nested block in p takes, it unnests
// against the inner relation through the tag map (no subquery survives)
// and no bypass stream over outer×inner pairs appears.
func TestEqv5NestedPUnnestsAgainstInner(t *testing.T) {
	cat := rstCatalog(t)
	for name, p := range map[string]string{
		"scalar":     `b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2)`,
		"exists":     `EXISTS (SELECT * FROM t WHERE b4 = c2)`,
		"not exists": `NOT EXISTS (SELECT * FROM t WHERE b4 = c2)`,
		"in":         `b3 IN (SELECT c3 FROM t WHERE b4 = c2)`,
	} {
		sql := `SELECT DISTINCT * FROM r
		        WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 OR ` + p + `)`
		canonical, rewritten, rw := planFor(t, cat, sql, AllCaps())
		if !strings.Contains(strings.Join(rw.Trace, ";"), "Eqv. 5") {
			t.Errorf("%s: trace = %v", name, rw.Trace)
		}
		if algebra.ContainsSubquery(rewritten) {
			t.Errorf("%s: p's nested block must unnest:\n%s", name, algebra.Explain(rewritten))
		}
		if n := countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.Stream); return ok }); n != 0 {
			t.Errorf("%s: %d bypass streams in a tagged Eqv. 5 plan:\n%s", name, n, algebra.Explain(rewritten))
		}
		assertEquivalent(t, cat, canonical, rewritten, "Q4/"+name)
	}
}

func TestConjunctiveLinkingEqv1(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)`
	canonical, rewritten, rw := planFor(t, cat, sql, AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Fatalf("conjunctive JA must unnest:\n%s", algebra.Explain(rewritten))
	}
	if !strings.Contains(strings.Join(rw.Trace, ";"), "Eqv. 1") {
		t.Errorf("trace = %v", rw.Trace)
	}
	// No bypass needed in the purely conjunctive case.
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.BypassSelect); return ok }) != 0 {
		t.Errorf("no bypass expected:\n%s", algebra.Explain(rewritten))
	}
	assertEquivalent(t, cat, canonical, rewritten, "conjunctive")
}

// TestEqv1TraceNamesGroupingAttributes: the trace reports the attributes
// Γ groups on — a correlation column named twice once — and the ⟕'s
// default.
func TestEqv1TraceNamesGroupingAttributes(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r WHERE a1 = (SELECT SUM(b1) FROM s WHERE a2 = b2 AND a3 = b2)`
	canonical, rewritten, rw := planFor(t, cat, sql, AllCaps())
	const want = "Eqv. 1: Γ[[s.b2]] + ⟕[g1:SUM(∅)] for SUM(.)"
	if !slices.Contains(rw.Trace, want) {
		t.Errorf("trace = %q, want %q in it", rw.Trace, want)
	}
	assertEquivalent(t, cat, canonical, rewritten, "a key named twice")
}

func TestCountBugEmptyGroups(t *testing.T) {
	// r.a2 = 30 has no partner in s; nested count is 0 and must compare
	// equal to a1 = 0 after unnesting (the count bug).
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)`
	_, rewritten, _ := planFor(t, cat, sql, AllCaps())
	rel := run(t, cat, rewritten)
	found := false
	for _, row := range rel.Tuples {
		if types.Identical(row[0], types.NewInt(0)) && types.Identical(row[1], types.NewInt(30)) {
			found = true
		}
	}
	if !found {
		t.Errorf("count bug: empty group row (0,30,…) missing:\n%s", rel)
	}
}

func TestNonEqualityCorrelationUsesBinaryGrouping(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 < b2)`
	canonical, rewritten, rw := planFor(t, cat, sql, AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Fatalf("θ-correlation must unnest via Γ²:\n%s", algebra.Explain(rewritten))
	}
	if !strings.Contains(strings.Join(rw.Trace, ";"), "binary-grouping") {
		t.Errorf("trace = %v", rw.Trace)
	}
	assertEquivalent(t, cat, canonical, rewritten, "theta-correlation")
}

func TestAllLinkingOperators(t *testing.T) {
	cat := rstCatalog(t)
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		sql := `SELECT DISTINCT * FROM r
		        WHERE a1 ` + op + ` (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500`
		canonical, rewritten, _ := planFor(t, cat, sql, AllCaps())
		if algebra.ContainsSubquery(rewritten) {
			t.Fatalf("linking op %s must unnest", op)
		}
		assertEquivalent(t, cat, canonical, rewritten, "linking "+op)
	}
}

func TestAllAggregates(t *testing.T) {
	cat := rstCatalog(t)
	for _, fn := range []string{"COUNT(b1)", "COUNT(*)", "SUM(b1)", "AVG(b1)", "MIN(b1)", "MAX(b1)",
		"COUNT(DISTINCT b1)", "SUM(DISTINCT b1)", "AVG(DISTINCT b1)", "MIN(DISTINCT b1)", "MAX(DISTINCT b1)"} {
		// Disjunctive linking.
		sql := `SELECT DISTINCT * FROM r
		        WHERE a1 >= (SELECT ` + fn + ` FROM s WHERE a2 = b2) OR a4 > 1500`
		canonical, rewritten, _ := planFor(t, cat, sql, AllCaps())
		if algebra.ContainsSubquery(rewritten) {
			t.Errorf("agg %s (linking) must unnest", fn)
		}
		assertEquivalent(t, cat, canonical, rewritten, "agg-linking "+fn)

		// Disjunctive correlation (Eqv. 5 for every aggregate).
		sql = `SELECT DISTINCT * FROM r
		       WHERE a1 >= (SELECT ` + fn + ` FROM s WHERE a2 = b2 OR b4 > 1500)`
		canonical2, rewritten2, _ := planFor(t, cat, sql, AllCaps())
		assertEquivalent(t, cat, canonical2, rewritten2, "agg-correlation "+fn)
	}
}

func TestRankOrderingPrefersCheapPredicateFirst(t *testing.T) {
	cat := rstCatalog(t)
	// The simple comparison must be bypassed first (Eqv. 2): the first
	// bypass selection in the plan carries the cheap predicate.
	_, rewritten, _ := planFor(t, cat, q1, AllCaps())
	var bypassPred string
	algebra.Walk(rewritten, func(op algebra.Op) bool {
		if bp, ok := op.(*algebra.BypassSelect); ok && bypassPred == "" {
			bypassPred = bp.Pred.String()
		}
		return true
	})
	if !strings.Contains(bypassPred, "a4") {
		t.Errorf("Eqv. 2 expected (cheap predicate bypassed): %s", bypassPred)
	}
}

func TestORExpansionBaseline(t *testing.T) {
	cat := rstCatalog(t)
	caps := Caps{ORExpansion: true}
	canonical, rewritten, rw := planFor(t, cat, q1, caps)
	if !strings.Contains(strings.Join(rw.Trace, ";"), "OR-expansion") {
		t.Fatalf("trace = %v", rw.Trace)
	}
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.UnionAll); return ok }) != 1 {
		t.Errorf("want union-all:\n%s", algebra.Explain(rewritten))
	}
	if countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.BypassSelect); return ok }) != 0 {
		t.Errorf("S2 must not use bypass:\n%s", algebra.Explain(rewritten))
	}
	assertEquivalent(t, cat, canonical, rewritten, "or-expansion Q1")

	// S2 cannot unnest disjunctive correlation: Q2 stays canonical.
	_, rewrittenQ2, rwQ2 := planFor(t, cat, q2, caps)
	if !algebra.ContainsSubquery(rewrittenQ2) {
		t.Error("S2 must leave Q2 nested")
	}
	if tr := strings.Join(rwQ2.Trace, ";"); strings.Contains(tr, "Eqv. 4") || strings.Contains(tr, "Eqv. 5") {
		t.Errorf("S2 must apply neither Eqv. 4 nor Eqv. 5, trace = %v", rwQ2.Trace)
	}
}

func TestQuantifiedRewrites(t *testing.T) {
	cat := rstCatalog(t)
	cases := []string{
		`SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 1500`,
		`SELECT DISTINCT * FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 1500`,
		`SELECT DISTINCT * FROM r WHERE a2 IN (SELECT b2 FROM s WHERE b4 > 100) OR a4 > 1500`,
		`SELECT DISTINCT * FROM r WHERE a2 NOT IN (SELECT b2 FROM s WHERE b4 > 100) OR a4 > 1500`,
		`SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2)`,
		`SELECT DISTINCT * FROM r WHERE a2 NOT IN (SELECT b2 FROM s)`,
	}
	for _, sql := range cases {
		canonical, rewritten, _ := planFor(t, cat, sql, AllCaps())
		assertEquivalent(t, cat, canonical, rewritten, sql)
	}
	// The disjunctive EXISTS case must actually unnest.
	_, rewritten, rw := planFor(t, cat, cases[0], AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Errorf("EXISTS disjunct must unnest:\n%s", algebra.Explain(rewritten))
	}
	if !strings.Contains(strings.Join(rw.Trace, ";"), "quantified") {
		t.Errorf("trace = %v", rw.Trace)
	}
}

func TestNNFNormalization(t *testing.T) {
	a := algebra.Cmp(types.EQ, algebra.Col("x"), algebra.ConstInt(1))
	b := algebra.Cmp(types.GT, algebra.Col("y"), algebra.ConstInt(2))
	e := algebra.Not(algebra.And(a, algebra.Not(b)))
	n := normalizeNNF(e)
	want := "((x <> 1) OR (y > 2))"
	if n.String() != want {
		t.Errorf("NNF = %s, want %s", n, want)
	}
	// Double negation.
	if normalizeNNF(algebra.Not(algebra.Not(a))).String() != a.String() {
		t.Error("double negation not eliminated")
	}
	// Negated quantifier flips.
	q := algebra.Quant(algebra.Exists, nil, algebra.NewScan("s", "s", storage.NewSchema("s.b1")))
	if neg, ok := normalizeNNF(algebra.Not(q)).(*algebra.QuantSubquery); !ok || neg.Quant != algebra.NotExists {
		t.Error("negated EXISTS must flip")
	}
}

func TestNotPushedThroughDisjunction(t *testing.T) {
	cat := rstCatalog(t)
	// NOT(a AND b) where b is a linking predicate becomes a disjunction
	// the cascade can handle.
	sql := `SELECT DISTINCT * FROM r
	        WHERE NOT (a4 <= 1500 AND a1 <> (SELECT COUNT(*) FROM s WHERE a2 = b2))`
	canonical, rewritten, _ := planFor(t, cat, sql, AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Errorf("NNF + cascade must unnest:\n%s", algebra.Explain(rewritten))
	}
	assertEquivalent(t, cat, canonical, rewritten, "not-pushdown")
}

func TestThreeDisjunctCascade(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r
	        WHERE a4 > 1900 OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a3 > 7`
	canonical, rewritten, _ := planFor(t, cat, sql, AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Fatalf("3-way cascade must unnest:\n%s", algebra.Explain(rewritten))
	}
	if n := countOps(rewritten, func(op algebra.Op) bool { _, ok := op.(*algebra.BypassSelect); return ok }); n != 2 {
		t.Errorf("want 2 bypass selects in a 3-way cascade, got %d:\n%s", n, algebra.Explain(rewritten))
	}
	assertEquivalent(t, cat, canonical, rewritten, "3-way cascade")
}

func TestMixedConjunctionWithDisjunctiveLinking(t *testing.T) {
	cat := rstCatalog(t)
	// Query 2d's shape: plain conjuncts AND (linking OR simple).
	sql := `SELECT DISTINCT * FROM r
	        WHERE a3 >= 5
	          AND (a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500)`
	canonical, rewritten, _ := planFor(t, cat, sql, AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Fatalf("2d-shaped query must unnest:\n%s", algebra.Explain(rewritten))
	}
	assertEquivalent(t, cat, canonical, rewritten, "2d shape")
}

func TestTypeAStaysMaterialized(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s) OR a4 > 1500`
	canonical, rewritten, rw := planFor(t, cat, sql, AllCaps())
	if len(rw.Trace) != 0 {
		t.Errorf("type A should not trigger rewrites: %v", rw.Trace)
	}
	assertEquivalent(t, cat, canonical, rewritten, "type A")
}

func TestSelectClauseSubqueryUnnested(t *testing.T) {
	cat := rstCatalog(t)
	// Conjunctive correlation in the SELECT clause (TR generalization).
	sql := `SELECT a1, (SELECT COUNT(*) FROM s WHERE a2 = b2) AS cnt FROM r`
	canonical, rewritten, rw := planFor(t, cat, sql, AllCaps())
	if algebra.ContainsSubquery(rewritten) {
		t.Fatalf("select-clause subquery must unnest:\n%s", algebra.Explain(rewritten))
	}
	if !strings.Contains(strings.Join(rw.Trace, ";"), "subquery unnested into χ[cnt]") {
		t.Errorf("trace = %v", rw.Trace)
	}
	assertEquivalent(t, cat, canonical, rewritten, "select-clause")

	// Empty groups must surface COUNT = 0, not lose rows (count bug in
	// the SELECT clause).
	rel := run(t, cat, rewritten)
	if rel.Cardinality() != 7 {
		t.Fatalf("projection must preserve R cardinality, got %d", rel.Cardinality())
	}

	// Subquery inside arithmetic, and disjunctive correlation variants.
	for _, s := range []string{
		`SELECT a1, 1 + (SELECT COUNT(*) FROM s WHERE a2 = b2) AS cnt1 FROM r`,
		`SELECT a1, (SELECT SUM(b1) FROM s WHERE a2 = b2 OR b4 > 1500) AS sm FROM r`,
		`SELECT a1, (SELECT COUNT(DISTINCT b1) FROM s WHERE a2 = b2 OR b4 > 1500) AS dc FROM r`,
		`SELECT a1, (SELECT MIN(b4) FROM s WHERE a2 = b2) AS m,
		        (SELECT MAX(c2) FROM t WHERE a3 = c1) AS x FROM r`,
	} {
		canonical, rewritten, _ := planFor(t, cat, s, AllCaps())
		assertEquivalent(t, cat, canonical, rewritten, s)
	}
}

// TestRandomizedEquivalence is the safety net: random RST instances with
// NULLs and duplicates, a battery of query shapes, canonical vs unnested
// vs OR-expansion must all agree.
func TestRandomizedEquivalence(t *testing.T) {
	shapes := []string{
		q1, q2, q3, q4,
		`SELECT DISTINCT * FROM r WHERE a1 < (SELECT SUM(b1) FROM s WHERE a2 = b2) OR a4 > 1500`,
		`SELECT DISTINCT * FROM r WHERE a1 >= (SELECT MIN(b4) FROM s WHERE a2 = b2 OR b4 > 1500)`,
		`SELECT DISTINCT * FROM r WHERE a1 = (SELECT AVG(b1) FROM s WHERE a2 = b2 OR b4 > 1500)`,
		`SELECT DISTINCT a1, a2 FROM r WHERE a2 IN (SELECT b2 FROM s WHERE b4 > 500) OR a4 > 1500`,
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		cat := randomRST(t, rng, 30)
		for _, sql := range shapes {
			stmt, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			canonical, err := translate.New(cat).Translate(stmt)
			if err != nil {
				t.Fatal(err)
			}
			unnested, err := New(cat, AllCaps()).Rewrite(canonical)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, cat, canonical, unnested, sql)
		}
	}
}

func randomRST(t testing.TB, rng *rand.Rand, n int) *catalog.Catalog {
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
	val := func() types.Value {
		if rng.Intn(10) == 0 {
			return types.Null()
		}
		return types.NewInt(int64(rng.Intn(8)))
	}
	big := func() types.Value {
		if rng.Intn(10) == 0 {
			return types.Null()
		}
		return types.NewInt(int64(rng.Intn(3000)))
	}
	for _, spec := range []struct{ name, prefix string }{{"r", "a"}, {"s", "b"}, {"t", "c"}} {
		tbl := mk(spec.name, spec.prefix)
		var prev []types.Value
		for i := 0; i < n; i++ {
			row := []types.Value{val(), val(), val(), big()}
			// Explicit duplicates (~20%) stress multiset correctness.
			if prev != nil && rng.Intn(5) == 0 {
				row = prev
			}
			prev = row
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat
}
