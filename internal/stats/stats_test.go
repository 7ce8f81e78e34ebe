package stats

import (
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/storage"
	"disqo/internal/types"
)

func fixture(t *testing.T) (*catalog.Catalog, *algebra.Scan, *algebra.Scan) {
	t.Helper()
	cat := catalog.New()
	r, err := cat.Create("r", []catalog.Column{
		{Name: "a1", Type: types.KindInt}, {Name: "a2", Type: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.Create("s", []catalog.Column{
		{Name: "b1", Type: types.KindInt}, {Name: "b2", Type: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Insert([]types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 10))})
		s.Insert([]types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 20))})
	}
	return cat,
		algebra.NewScan("r", "r", storage.NewSchema("r.a1", "r.a2")),
		algebra.NewScan("s", "s", storage.NewSchema("s.b1", "s.b2"))
}

func TestScanAndSelectCardinality(t *testing.T) {
	cat, r, _ := fixture(t)
	e := New(cat)
	if got := e.Cardinality(r); got != 100 {
		t.Errorf("scan card = %g", got)
	}
	// a2 = const: 10 distinct values → sel 0.1 → 10 rows.
	sel := algebra.NewSelect(r, algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.ConstInt(3)))
	if got := e.Cardinality(sel); got < 5 || got > 20 {
		t.Errorf("select card = %g, want ≈10", got)
	}
}

func TestRangeSelectivityUsesMinMax(t *testing.T) {
	cat, r, _ := fixture(t)
	e := New(cat)
	// a1 uniform on [0,99]; a1 > 49 ≈ 0.5.
	s := e.Selectivity(algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(49)), r)
	if s < 0.4 || s > 0.6 {
		t.Errorf("range sel = %g, want ≈0.5", s)
	}
	// Constant on the left flips.
	s2 := e.Selectivity(algebra.Cmp(types.LT, algebra.ConstInt(49), algebra.Col("r.a1")), r)
	if s2 < 0.4 || s2 > 0.6 {
		t.Errorf("flipped range sel = %g", s2)
	}
	// Out-of-range clamps.
	if s := e.Selectivity(algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(1000)), r); s != 0 {
		t.Errorf("clamped sel = %g", s)
	}
}

func TestJoinCardinality(t *testing.T) {
	cat, r, s := fixture(t)
	e := New(cat)
	j := algebra.NewJoin(r, s, algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")))
	// sel = 1/max(10,20) = 0.05 → 100·100·0.05 = 500.
	if got := e.Cardinality(j); got < 250 || got > 1000 {
		t.Errorf("join card = %g, want ≈500", got)
	}
}

func TestGroupByCardinality(t *testing.T) {
	cat, r, _ := fixture(t)
	e := New(cat)
	g := algebra.NewGroupBy(r, []string{"r.a2"},
		[]algebra.AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true}}}, false)
	if got := e.Cardinality(g); got != 10 {
		t.Errorf("Γ card = %g, want 10", got)
	}
	global := algebra.NewGroupBy(r, nil, []algebra.AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true}}}, true)
	if got := e.Cardinality(global); got != 1 {
		t.Errorf("global Γ card = %g", got)
	}
}

func TestBooleanSelectivityComposition(t *testing.T) {
	cat, r, _ := fixture(t)
	e := New(cat)
	a := algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.ConstInt(1)) // 0.1
	b := algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(49))
	and := e.Selectivity(algebra.And(a, b), r)
	or := e.Selectivity(algebra.Or(a, b), r)
	not := e.Selectivity(algebra.Not(a), r)
	if and >= or {
		t.Errorf("AND (%g) must be more selective than OR (%g)", and, or)
	}
	if not < 0.85 || not > 0.95 {
		t.Errorf("NOT sel = %g", not)
	}
}

func TestPredCostOrdersSubqueriesLast(t *testing.T) {
	cat, r, s := fixture(t)
	e := New(cat)
	simple := algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(49))
	corr := algebra.NewSelect(s, algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")))
	sub := algebra.Cmp(types.EQ, algebra.Col("r.a1"),
		algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, corr))
	if e.PredCost(simple) >= e.PredCost(sub) {
		t.Errorf("subquery must cost more: %g vs %g", e.PredCost(simple), e.PredCost(sub))
	}
	if e.Rank(simple, r) >= e.Rank(sub, r) {
		t.Errorf("rank(simple)=%g must be below rank(sub)=%g",
			e.Rank(simple, r), e.Rank(sub, r))
	}
}

func TestUncorrelatedSubqueryIsCheap(t *testing.T) {
	cat, _, s := fixture(t)
	e := New(cat)
	sub := algebra.Cmp(types.EQ, algebra.Col("r.a1"),
		algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, s))
	if c := e.PredCost(sub); c > 10 {
		t.Errorf("type-A subquery cost = %g, should be cheap (memoized)", c)
	}
}

func TestStreamCardinalitySplits(t *testing.T) {
	cat, r, _ := fixture(t)
	e := New(cat)
	bp := algebra.NewBypassSelect(r, algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(49)))
	pos := e.Cardinality(algebra.Pos(bp))
	neg := e.Cardinality(algebra.Neg(bp))
	if pos+neg < 95 || pos+neg > 105 {
		t.Errorf("streams must partition: %g + %g", pos, neg)
	}
}
