package stats

import (
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/types"
)

func TestPlanCostHashCheaperThanNL(t *testing.T) {
	cat, r, s := fixture(t)
	e := New(cat)
	eq := algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2"))
	lt := algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2"))
	hash := e.PlanCost(algebra.NewJoin(r, s, eq))
	nl := e.PlanCost(algebra.NewJoin(r, s, lt))
	if hash >= nl {
		t.Errorf("hash join cost %g must be below NL cost %g", hash, nl)
	}
}

func TestPlanCostCountsSharedNodesOnce(t *testing.T) {
	cat, r, _ := fixture(t)
	e := New(cat)
	bp := algebra.NewBypassSelect(r, algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(50)))
	shared := algebra.NewUnionDisjoint(algebra.Pos(bp), algebra.Neg(bp))
	single := e.PlanCost(algebra.Pos(bp))
	both := e.PlanCost(shared)
	// The union adds only the union's own cost, not a re-evaluation of
	// the bypass select.
	if both > 2.2*single {
		t.Errorf("DAG sharing not reflected: single=%g both=%g", single, both)
	}
}

func TestPlanCostUnnestedBeatsCanonicalForCorrelated(t *testing.T) {
	cat, r, s := fixture(t)
	e := New(cat)
	// Canonical: σ_{a1 = count(σ_{a2=b2}(S))}(R).
	corr := algebra.NewSelect(s, algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")))
	sub := algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, corr)
	canonical := algebra.NewSelect(r, algebra.Cmp(types.EQ, algebra.Col("r.a1"), sub))
	// Unnested: σ_{a1=g}(R ⟕ Γ(S)).
	grouped := algebra.NewGroupBy(s, []string{"s.b2"},
		[]algebra.AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true}}}, false)
	oj := algebra.NewLeftOuterJoin(r, grouped,
		algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")),
		[]algebra.Default{{Attr: "g", Val: types.NewInt(0)}})
	unnested := algebra.NewSelect(oj, algebra.Cmp(types.EQ, algebra.Col("r.a1"), algebra.Col("g")))
	cc, uc := e.PlanCost(canonical), e.PlanCost(unnested)
	if uc >= cc {
		t.Errorf("unnested cost %g must beat canonical cost %g", uc, cc)
	}
}

func TestPlanCostTaggedBinaryGroupIsLinear(t *testing.T) {
	cat, r, s := fixture(t)
	e := New(cat)
	inner := algebra.NewMap(s, "tag", algebra.Cmp(types.GT, algebra.Col("s.b1"), algebra.ConstInt(50)))
	aggs := []algebra.AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true, Distinct: true}}}
	eq := algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2"))
	tagged := func(pred algebra.Expr) float64 {
		bg := algebra.NewBinaryGroup(r, inner, pred, aggs)
		bg.Tag = "tag"
		return e.PlanCost(bg)
	}
	hashed := tagged(eq)
	// |L| + |R| + matches, nowhere near the 100×100 complement Eqv. 5
	// used to enumerate.
	if hashed >= 100*100/2 {
		t.Errorf("tagged hash Γ² cost %g must not reflect the complement size", hashed)
	}
	scanned := tagged(algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2")))
	if scanned <= hashed {
		t.Errorf("non-hashable tagged Γ² cost %g must exceed the hashed %g", scanned, hashed)
	}
}

func TestPlanCostSortSuperlinear(t *testing.T) {
	cat, r, _ := fixture(t)
	e := New(cat)
	scanCost := e.PlanCost(r)
	sortCost := e.PlanCost(algebra.NewSort(r, []algebra.SortKey{{Attr: "r.a1"}}))
	if sortCost <= 2*scanCost {
		t.Errorf("sort cost %g vs scan %g", sortCost, scanCost)
	}
}
