package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// testCatalog builds R(a1..a4) and S(b1..b4) with small deterministic
// contents used across the operator tests.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	cols := func(prefix string) []catalog.Column {
		return []catalog.Column{
			{Name: prefix + "1", Type: types.KindInt},
			{Name: prefix + "2", Type: types.KindInt},
			{Name: prefix + "3", Type: types.KindInt},
			{Name: prefix + "4", Type: types.KindInt},
		}
	}
	r, err := cat.Create("r", cols("a"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.Create("s", cols("b"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]int64{
		{1, 10, 100, 1000},
		{2, 20, 200, 2000},
		{3, 10, 300, 1500},
		{4, 30, 400, 2500},
	} {
		if err := r.Insert(intRow(row)); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range [][]int64{
		{1, 10, 111, 1400},
		{2, 10, 222, 1600},
		{3, 20, 333, 1700},
		{4, 40, 444, 100},
	} {
		if err := s.Insert(intRow(row)); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func intRow(vs []int64) []types.Value {
	row := make([]types.Value, len(vs))
	for i, v := range vs {
		row[i] = types.NewInt(v)
	}
	return row
}

func scanOf(t *testing.T, cat *catalog.Catalog, table string) *algebra.Scan {
	t.Helper()
	tbl, err := cat.Lookup(table)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.NewScan(table, table, tbl.Rel.Schema)
}

func runPlan(t *testing.T, cat *catalog.Catalog, plan algebra.Op) *storage.Relation {
	t.Helper()
	ex := New(cat, Options{Cache: CacheAll})
	rel, err := ex.Run(plan)
	if err != nil {
		t.Fatalf("Run(%s): %v", plan.Label(), err)
	}
	return rel
}

func wantRows(t *testing.T, rel *storage.Relation, want ...string) {
	t.Helper()
	got := rel.Canonical()
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %s, want %s (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestScanSharesTuples(t *testing.T) {
	cat := testCatalog(t)
	rel := runPlan(t, cat, scanOf(t, cat, "r"))
	if rel.Cardinality() != 4 {
		t.Fatalf("scan returned %d rows", rel.Cardinality())
	}
	if rel.Schema.Index("r.a1") != 0 {
		t.Error("scan schema must be qualified")
	}
}

func TestSelect(t *testing.T) {
	cat := testCatalog(t)
	plan := algebra.NewSelect(scanOf(t, cat, "r"),
		algebra.Cmp(types.GT, algebra.Col("r.a4"), algebra.ConstInt(1500)))
	rel := runPlan(t, cat, plan)
	wantRows(t, rel, "(2, 20, 200, 2000)", "(4, 30, 400, 2500)")
}

// bypassCascade is Eqv. 2/3's bypass cascade of two disjuncts over in,
// neither unnested: σ±[d1](in)⁺ ∪̇ σ[d2](σ±[d1](in)⁻).
func bypassCascade(in algebra.Op, d1, d2 algebra.Expr) algebra.Op {
	bp := algebra.NewBypassSelect(in, d1)
	return algebra.NewUnionDisjoint(algebra.Pos(bp), algebra.NewSelect(algebra.Neg(bp), d2))
}

// TestBypassSelectPartition: a bypass cascade's streams partition its
// input, so a row both disjuncts hold on (r2) is written once; a stream
// is not a plan of its own.
func TestBypassSelectPartition(t *testing.T) {
	cat := testCatalog(t)
	rel := runPlan(t, cat, bypassCascade(scanOf(t, cat, "r"),
		algebra.Cmp(types.GT, algebra.Col("r.a4"), algebra.ConstInt(1500)),
		algebra.Cmp(types.LE, algebra.Col("r.a1"), algebra.ConstInt(3))))
	wantRows(t, rel, "(1, 10, 100, 1000)", "(2, 20, 200, 2000)", "(3, 10, 300, 1500)", "(4, 30, 400, 2500)")
	bp := algebra.NewBypassSelect(scanOf(t, cat, "r"), algebra.Cmp(types.GT, algebra.Col("r.a4"), algebra.ConstInt(1500)))
	if _, err := New(cat, Options{}).Run(algebra.Pos(bp)); !errors.Is(err, physical.ErrBypass) {
		t.Errorf("a bare stream ran: err = %v, want ErrBypass", err)
	}
}

// TestBypassSelectRoutesUnknownNegative: a row the bypassed disjunct is
// UNKNOWN on is undecided, like a FALSE one, so the next disjunct sees it.
func TestBypassSelectRoutesUnknownNegative(t *testing.T) {
	cat := catalog.New()
	tbl, _ := cat.Create("t", []catalog.Column{{Name: "x", Type: types.KindInt}})
	tbl.Insert([]types.Value{types.NewInt(1)})
	tbl.Insert([]types.Value{types.Null()})
	rel := runPlan(t, cat, bypassCascade(algebra.NewScan("t", "t", tbl.Rel.Schema),
		algebra.Cmp(types.GT, algebra.Col("t.x"), algebra.ConstInt(0)),
		algebra.IsNull(algebra.Col("t.x"))))
	wantRows(t, rel, "(1)", "(NULL)") // UNKNOWN goes negative
}

func TestProjectRenameMapNumber(t *testing.T) {
	cat := testCatalog(t)
	base := scanOf(t, cat, "r")
	proj := algebra.NewProject(base, []string{"r.a2"})
	rel := runPlan(t, cat, proj)
	if rel.Schema.Len() != 1 || rel.Cardinality() != 4 {
		t.Fatalf("project: %s", rel)
	}

	ren, err := algebra.NewRename(base, [][2]string{{"x1", "r.a1"}})
	if err != nil {
		t.Fatal(err)
	}
	rrel := runPlan(t, cat, ren)
	if rrel.Schema.Index("x1") != 0 || rrel.Schema.Has("r.a1") {
		t.Error("rename schema wrong")
	}

	m := algebra.NewMap(base, "sum",
		algebra.Arith(types.Add, algebra.Col("r.a1"), algebra.Col("r.a2")))
	mrel := runPlan(t, cat, m)
	if got := mrel.Tuples[0][4]; !types.Identical(got, types.NewInt(11)) {
		t.Errorf("map value = %v", got)
	}
}

func TestMapDoesNotMutateBaseTable(t *testing.T) {
	cat := testCatalog(t)
	base := scanOf(t, cat, "r")
	m := algebra.NewMap(base, "z", algebra.ConstInt(0))
	runPlan(t, cat, m)
	tbl, _ := cat.Lookup("r")
	if len(tbl.Rel.Tuples[0]) != 4 {
		t.Fatal("map extended base-table rows in place")
	}
}

func TestCrossProduct(t *testing.T) {
	cat := testCatalog(t)
	plan := algebra.NewCross(scanOf(t, cat, "r"), scanOf(t, cat, "s"))
	rel := runPlan(t, cat, plan)
	if rel.Cardinality() != 16 {
		t.Fatalf("cross = %d rows", rel.Cardinality())
	}
	if rel.Schema.Len() != 8 {
		t.Fatalf("cross schema = %s", rel.Schema)
	}
}

func TestHashJoinAndNLJoinAgree(t *testing.T) {
	cat := testCatalog(t)
	// Equality predicate → hash join.
	eq := algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2"))
	hashPlan := algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq)
	exHash := New(cat, Options{Cache: CacheAll})
	hrel, err := exHash.Run(hashPlan)
	if err != nil {
		t.Fatal(err)
	}
	if exHash.Stats().HashJoins != 1 || exHash.Stats().NLJoins != 0 {
		t.Errorf("expected hash join, stats: %+v", exHash.Stats())
	}
	// Inequality → nested loop; compare results through a filter that
	// makes the predicates equivalent.
	nlPred := algebra.And(
		algebra.Cmp(types.LE, algebra.Col("r.a2"), algebra.Col("s.b2")),
		algebra.Cmp(types.GE, algebra.Col("r.a2"), algebra.Col("s.b2")))
	nlPlan := algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), nlPred)
	exNL := New(cat, Options{Cache: CacheAll})
	nrel, err := exNL.Run(nlPlan)
	if err != nil {
		t.Fatal(err)
	}
	if exNL.Stats().NLJoins != 1 {
		t.Errorf("expected NL join, stats: %+v", exNL.Stats())
	}
	h, n := hrel.Canonical(), nrel.Canonical()
	if len(h) != len(n) {
		t.Fatalf("hash %d rows vs NL %d rows", len(h), len(n))
	}
	for i := range h {
		if h[i] != n[i] {
			t.Fatalf("row %d: hash %s vs NL %s", i, h[i], n[i])
		}
	}
	// r.a2 ∈ {10,20,10,30}; s.b2 ∈ {10,10,20,40}: matches 2+2+1 = 5.
	if len(h) != 5 {
		t.Fatalf("join produced %d rows, want 5", len(h))
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	cat := catalog.New()
	a, _ := cat.Create("a", []catalog.Column{{Name: "x", Type: types.KindInt}})
	b, _ := cat.Create("b", []catalog.Column{{Name: "y", Type: types.KindInt}})
	a.Insert([]types.Value{types.Null()})
	a.Insert([]types.Value{types.NewInt(1)})
	b.Insert([]types.Value{types.Null()})
	b.Insert([]types.Value{types.NewInt(1)})
	plan := algebra.NewJoin(
		algebra.NewScan("a", "a", a.Rel.Schema),
		algebra.NewScan("b", "b", b.Rel.Schema),
		algebra.Cmp(types.EQ, algebra.Col("a.x"), algebra.Col("b.y")))
	rel := runPlan(t, cat, plan)
	wantRows(t, rel, "(1, 1)")
}

func TestJoinResidualPredicate(t *testing.T) {
	cat := testCatalog(t)
	pred := algebra.And(
		algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")),
		algebra.Cmp(types.GT, algebra.Col("s.b4"), algebra.ConstInt(1500)))
	plan := algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred)
	rel := runPlan(t, cat, plan)
	// matches on b2 with b4>1500: s rows (2,10,222,1600) and (3,20,333,1700).
	if rel.Cardinality() != 3 { // r1,r3 match s2; r2 matches s3
		t.Fatalf("residual join rows = %d:\n%s", rel.Cardinality(), rel)
	}
}

// TestLeftOuterJoinDefaults: Eqv. 1's ⟕ with COUNT's g:0 default, read
// through the Π that drops the Γ's key as the rewriter leaves it, keeps
// every r row and gives the one without an s partner 0, not NULL.
func TestLeftOuterJoinDefaults(t *testing.T) {
	cat := testCatalog(t)
	grouped := algebra.NewGroupBy(scanOf(t, cat, "s"), []string{"s.b2"},
		[]algebra.AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true}}}, false)
	r := scanOf(t, cat, "r")
	oj := algebra.NewLeftOuterJoin(r, grouped,
		algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")),
		[]algebra.Default{{Attr: "g", Val: types.NewInt(0)}})
	rel := runPlan(t, cat, algebra.NewProject(oj, append(append([]string(nil), r.Schema().Attrs()...), "g")))
	if rel.Cardinality() != 4 {
		t.Fatalf("outerjoin must preserve R cardinality, got %d", rel.Cardinality())
	}
	// r.a2=30 has no S partner: g must default to 0.
	found := false
	gi := rel.Schema.Index("g")
	for _, row := range rel.Tuples {
		if types.Identical(row[1], types.NewInt(30)) {
			found = true
			if !types.Identical(row[gi], types.NewInt(0)) {
				t.Errorf("count default = %v, want 0 (count bug!)", row[gi])
			}
		}
	}
	if !found {
		t.Fatal("r.a2=30 row missing from outerjoin")
	}
}

func TestGroupByHash(t *testing.T) {
	cat := testCatalog(t)
	plan := algebra.NewGroupBy(scanOf(t, cat, "s"), []string{"s.b2"},
		[]algebra.AggItem{
			{Out: "cnt", Spec: agg.Spec{Kind: agg.Count, Star: true}},
			{Out: "mx", Spec: agg.Spec{Kind: agg.Max}, Arg: algebra.Col("s.b4")},
		}, false)
	rel := runPlan(t, cat, plan)
	wantRows(t, rel, "(10, 2, 1600)", "(20, 1, 1700)", "(40, 1, 100)")
}

func TestGroupByGlobalOnEmptyInput(t *testing.T) {
	cat := testCatalog(t)
	empty := algebra.NewSelect(scanOf(t, cat, "s"),
		algebra.Cmp(types.GT, algebra.Col("s.b1"), algebra.ConstInt(999)))
	plan := algebra.NewGroupBy(empty, nil, []algebra.AggItem{
		{Out: "cnt", Spec: agg.Spec{Kind: agg.Count, Star: true}},
		{Out: "mn", Spec: agg.Spec{Kind: agg.Min}, Arg: algebra.Col("s.b4")},
	}, true)
	rel := runPlan(t, cat, plan)
	wantRows(t, rel, "(0, NULL)")
}

func TestGroupByNullKeysGroupTogether(t *testing.T) {
	cat := catalog.New()
	tbl, _ := cat.Create("t", []catalog.Column{
		{Name: "k", Type: types.KindInt}, {Name: "v", Type: types.KindInt}})
	tbl.Insert([]types.Value{types.Null(), types.NewInt(1)})
	tbl.Insert([]types.Value{types.Null(), types.NewInt(2)})
	tbl.Insert([]types.Value{types.NewInt(1), types.NewInt(3)})
	plan := algebra.NewGroupBy(algebra.NewScan("t", "t", tbl.Rel.Schema),
		[]string{"t.k"},
		[]algebra.AggItem{{Out: "s", Spec: agg.Spec{Kind: agg.Sum}, Arg: algebra.Col("t.v")}}, false)
	rel := runPlan(t, cat, plan)
	wantRows(t, rel, "(1, 3)", "(NULL, 3)")
}

func TestBinaryGroupHashAndNLAgree(t *testing.T) {
	cat := testCatalog(t)
	aggs := []algebra.AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true}}}
	// Hash path: equality.
	hashPlan := algebra.NewBinaryGroup(scanOf(t, cat, "r"), scanOf(t, cat, "s"),
		algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")), aggs)
	hrel := runPlan(t, cat, hashPlan)
	// NL path: same predicate phrased non-hashably.
	nlPlan := algebra.NewBinaryGroup(scanOf(t, cat, "r"), scanOf(t, cat, "s"),
		algebra.And(
			algebra.Cmp(types.LE, algebra.Col("r.a2"), algebra.Col("s.b2")),
			algebra.Cmp(types.GE, algebra.Col("r.a2"), algebra.Col("s.b2"))), aggs)
	nrel := runPlan(t, cat, nlPlan)
	// One node type serves both; the label names the algorithm.
	for plan, algo := range map[algebra.Op]string{hashPlan: "HashBinaryGroup[", nlPlan: "NLBinaryGroup["} {
		n, err := New(cat, Options{}).Plan(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(n.Label(), algo) {
			t.Fatalf("lowered to %s, want %s…", n.Label(), algo)
		}
	}
	h, n := hrel.Canonical(), nrel.Canonical()
	for i := range h {
		if h[i] != n[i] {
			t.Fatalf("binary group mismatch row %d: %s vs %s", i, h[i], n[i])
		}
	}
	// Every R tuple present with its count; a2=30 gets f(∅)=0.
	gi := hrel.Schema.Index("g")
	counts := map[int64]int64{}
	for _, row := range hrel.Tuples {
		counts[row[1].Int()] = row[gi].Int()
	}
	if counts[10] != 2 || counts[20] != 1 || counts[30] != 0 {
		t.Errorf("binary group counts = %v", counts)
	}
	if hrel.Cardinality() != 4 {
		t.Errorf("binary group must preserve L cardinality")
	}
}

func TestUnionDisjointAndDistinctAndSort(t *testing.T) {
	cat := testCatalog(t)
	u := bypassCascade(scanOf(t, cat, "r"),
		algebra.Cmp(types.GT, algebra.Col("r.a4"), algebra.ConstInt(1500)),
		algebra.Cmp(types.LE, algebra.Col("r.a4"), algebra.ConstInt(1500)))
	rel := runPlan(t, cat, u)
	if rel.Cardinality() != 4 {
		t.Fatalf("union of bypass streams must restore input: %d", rel.Cardinality())
	}

	d := algebra.NewDistinct(algebra.NewProject(scanOf(t, cat, "r"), []string{"r.a2"}))
	drel := runPlan(t, cat, d)
	wantRows(t, drel, "(10)", "(20)", "(30)")

	srt := algebra.NewSort(scanOf(t, cat, "r"), []algebra.SortKey{{Attr: "r.a4", Desc: true}})
	srel := runPlan(t, cat, srt)
	if !types.Identical(srel.Tuples[0][3], types.NewInt(2500)) {
		t.Errorf("sort desc first = %v", srel.Tuples[0][3])
	}
}

func TestCorrelatedScalarSubqueryCanonical(t *testing.T) {
	cat := testCatalog(t)
	// SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)
	inner := algebra.NewSelect(scanOf(t, cat, "s"),
		algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")))
	sub := algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, inner)
	// Counts per a2 value: 10→2, 20→1, 30→0. No a1 equals its count.
	eqPlan := algebra.NewSelect(scanOf(t, cat, "r"),
		algebra.Cmp(types.EQ, algebra.Col("r.a1"), sub))
	wantRows(t, runPlan(t, cat, eqPlan))
	// a1 > count: r2 (2>1), r3 (3>2), r4 (4>0) qualify; r1 (1>2) does not.
	gtPlan := algebra.NewSelect(scanOf(t, cat, "r"),
		algebra.Cmp(types.GT, algebra.Col("r.a1"), sub))
	rel := runPlan(t, cat, gtPlan)
	wantRows(t, rel, "(2, 20, 200, 2000)", "(3, 10, 300, 1500)", "(4, 30, 400, 2500)")
}

func TestTimeout(t *testing.T) {
	cat := testCatalog(t)
	// Build a plan with enough work to hit the deadline: a chain of cross
	// products over distinctly-aliased scans of s.
	aliased := func(i int) algebra.Op {
		tbl, _ := cat.Lookup("s")
		attrs := make([]string, tbl.Rel.Schema.Len())
		for j := range attrs {
			attrs[j] = fmt.Sprintf("s%d.b%d", i, j+1)
		}
		return algebra.NewScan("s", fmt.Sprintf("s%d", i), storage.NewSchema(attrs...))
	}
	var big algebra.Op = algebra.NewCross(scanOf(t, cat, "r"), aliased(0))
	for i := 1; i < 5; i++ {
		big = algebra.NewCross(big, aliased(i))
	}
	ex := New(cat, Options{Timeout: time.Nanosecond})
	_, err := ex.Run(big)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
}

func TestMemoizationSharesBypassEvaluation(t *testing.T) {
	cat := testCatalog(t)
	u := bypassCascade(scanOf(t, cat, "r"),
		algebra.Cmp(types.GT, algebra.Col("r.a4"), algebra.ConstInt(1500)),
		algebra.Cmp(types.LE, algebra.Col("r.a4"), algebra.ConstInt(1500)))
	ex := New(cat, Options{Cache: CacheAll})
	rel, err := ex.Run(algebra.NewUnionAll(u, u))
	if err != nil {
		t.Fatal(err)
	}
	// The cascade, read twice, must have been evaluated once, and each
	// row's second disjunct only where the first is not TRUE: two rows
	// with a4 > 1500 at one comparison, two at two.
	if ex.Stats().Comparisons != 6 || rel.Cardinality() != 8 {
		t.Errorf("comparisons = %d over %d rows, want 6 over 8 (cascade evaluated once)", ex.Stats().Comparisons, rel.Cardinality())
	}
}

func TestUncorrelatedCacheOption(t *testing.T) {
	cat := testCatalog(t)
	// Correlated subquery whose inner plan scans s: with caching the scan
	// is reused; the correlated select is recomputed per tuple either way.
	inner := algebra.NewSelect(scanOf(t, cat, "s"),
		algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")))
	sub := algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, inner)
	plan := algebra.NewSelect(scanOf(t, cat, "r"),
		algebra.Cmp(types.GE, algebra.Col("r.a1"), sub))

	cached := New(cat, Options{Cache: CacheAll})
	if _, err := cached.Run(plan); err != nil {
		t.Fatal(err)
	}
	uncached := New(cat, Options{})
	if _, err := uncached.Run(plan); err != nil {
		t.Fatal(err)
	}
	if cached.Stats().OpEvals >= uncached.Stats().OpEvals {
		t.Errorf("caching should reduce op evals: %d vs %d",
			cached.Stats().OpEvals, uncached.Stats().OpEvals)
	}
	if cached.Stats().SubqueryEvals != 4 || uncached.Stats().SubqueryEvals != 4 {
		t.Errorf("subquery evals = %d/%d, want 4 each",
			cached.Stats().SubqueryEvals, uncached.Stats().SubqueryEvals)
	}
}

func TestQuantifiedSubqueries(t *testing.T) {
	cat := testCatalog(t)
	// EXISTS (SELECT * FROM s WHERE a2 = b2)
	inner := algebra.NewSelect(scanOf(t, cat, "s"),
		algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")))
	exists := algebra.NewSelect(scanOf(t, cat, "r"),
		algebra.Quant(algebra.Exists, nil, inner))
	rel := runPlan(t, cat, exists)
	if rel.Cardinality() != 3 { // a2 ∈ {10,20} match; 30 doesn't
		t.Fatalf("EXISTS rows = %d, want 3", rel.Cardinality())
	}
	notExists := algebra.NewSelect(scanOf(t, cat, "r"),
		algebra.Quant(algebra.NotExists, nil, inner))
	rel = runPlan(t, cat, notExists)
	wantRows(t, rel, "(4, 30, 400, 2500)")

	// a2 IN (SELECT b2 FROM s)
	proj := algebra.NewProject(scanOf(t, cat, "s"), []string{"s.b2"})
	in := algebra.NewSelect(scanOf(t, cat, "r"),
		algebra.Quant(algebra.In, algebra.Col("r.a2"), proj))
	rel = runPlan(t, cat, in)
	if rel.Cardinality() != 3 {
		t.Fatalf("IN rows = %d, want 3", rel.Cardinality())
	}
}

func TestNotInWithNullsIsEmpty(t *testing.T) {
	cat := catalog.New()
	r, _ := cat.Create("r", []catalog.Column{{Name: "x", Type: types.KindInt}})
	s, _ := cat.Create("s", []catalog.Column{{Name: "y", Type: types.KindInt}})
	r.Insert([]types.Value{types.NewInt(1)})
	r.Insert([]types.Value{types.NewInt(2)})
	s.Insert([]types.Value{types.NewInt(1)})
	s.Insert([]types.Value{types.Null()})
	plan := algebra.NewSelect(algebra.NewScan("r", "r", r.Rel.Schema),
		algebra.Quant(algebra.NotIn, algebra.Col("r.x"),
			algebra.NewScan("s", "s", s.Rel.Schema)))
	rel := runPlan(t, cat, plan)
	// 1 NOT IN {1, NULL} = FALSE; 2 NOT IN {1, NULL} = UNKNOWN → filtered.
	if rel.Cardinality() != 0 {
		t.Fatalf("NOT IN with NULL must be empty, got:\n%s", rel)
	}
}

// TestEnvLookupChain reads bound slots off a chain of frames: depth 0 is
// the innermost frame, each further depth one frame out, and the planner
// resolves a name to the innermost frame holding it.
func TestEnvLookupChain(t *testing.T) {
	outer := NewFrame([]types.Value{types.NewInt(1), types.NewInt(3)})
	inner := &Env{parent: outer, tuple: []types.Value{types.NewInt(2)}}
	if v := inner.at(physical.Slot{Depth: 0, Index: 0}); v.Int() != 2 {
		t.Errorf("inner slot read %v", v)
	}
	if v := inner.at(physical.Slot{Depth: 1, Index: 1}); v.Int() != 3 {
		t.Errorf("outer slot read through the chain %v", v)
	}
	cat := testCatalog(t)
	ex := New(cat, Options{})
	sch := storage.NewSchema("r.a", "r.b")
	b, err := ex.BindExpr(algebra.Arith(types.Add, algebra.Col("r.b"), algebra.Col("r.a")), sch)
	if err != nil {
		t.Fatal(err)
	}
	if b.L.Slot != (physical.Slot{Depth: 0, Index: 1}) || b.R.Slot != (physical.Slot{Depth: 0, Index: 0}) {
		t.Errorf("bound slots %v, %v", b.L.Slot, b.R.Slot)
	}
	frame := NewFrame(nil)
	for _, row := range [][]types.Value{{types.NewInt(1), types.NewInt(3)}, {types.NewInt(10), types.NewInt(5)}} {
		frame.Set(row)
		v, err := ex.EvalExpr(b, frame)
		if err != nil || v.Int() != row[0].Int()+row[1].Int() {
			t.Errorf("on %v: %v, %v", row, v, err)
		}
	}
}

func TestExprErrors(t *testing.T) {
	cat := testCatalog(t)
	ex := New(cat, Options{})
	if _, err := ex.BindExpr(algebra.Col("nope"), storage.NewSchema("r.a")); err == nil {
		t.Error("unbound column must error")
	}
}
