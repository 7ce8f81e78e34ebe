package algebra

import (
	"strings"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/storage"
	"disqo/internal/types"
)

func scanR() *Scan {
	return NewScan("r", "r", storage.NewSchema("r.a1", "r.a2"))
}

func scanS() *Scan {
	return NewScan("s", "s", storage.NewSchema("s.b1", "s.b2"))
}

func TestExprStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Col("r.a1"), "r.a1"},
		{ConstInt(5), "5"},
		{Const(types.NewString("x")), "'x'"},
		{Cmp(types.GT, Col("a"), ConstInt(1)), "(a > 1)"},
		{And(Col("a"), Col("b")), "(a AND b)"},
		{Or(Col("a"), Col("b")), "(a OR b)"},
		{Not(Col("a")), "(NOT a)"},
		{Arith(types.Add, Col("a"), ConstInt(2)), "(a + 2)"},
		{Like(Col("a"), Const(types.NewString("%x"))), "(a LIKE '%x')"},
		{IsNull(Col("a")), "(a IS NULL)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestAndOrBuilders(t *testing.T) {
	if And().String() != "TRUE" {
		t.Error("empty And must be TRUE")
	}
	if Or().String() != "FALSE" {
		t.Error("empty Or must be FALSE")
	}
	a := Col("a")
	if And(nil, a, nil) != a {
		t.Error("single operand And must collapse")
	}
	if Or(a) != a {
		t.Error("single operand Or must collapse")
	}
}

func TestSplitConjunctsDisjuncts(t *testing.T) {
	a, b, c := Col("a"), Col("b"), Col("c")
	conj := And(a, And(b, c))
	if got := SplitConjuncts(conj); len(got) != 3 {
		t.Errorf("SplitConjuncts = %d parts", len(got))
	}
	disj := Or(Or(a, b), c)
	if got := SplitDisjuncts(disj); len(got) != 3 {
		t.Errorf("SplitDisjuncts = %d parts", len(got))
	}
	if got := SplitConjuncts(a); len(got) != 1 {
		t.Errorf("atom conjuncts = %d", len(got))
	}
}

func TestHasSubquery(t *testing.T) {
	sub := Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, scanS())
	if !HasSubquery(Cmp(types.EQ, Col("a"), sub)) {
		t.Error("subquery in cmp not detected")
	}
	if !HasSubquery(And(Col("x"), Or(Col("y"), Quant(Exists, nil, scanS())))) {
		t.Error("quantified subquery not detected")
	}
	if HasSubquery(And(Col("x"), Col("y"))) {
		t.Error("false positive")
	}
}

func TestFreeColumns(t *testing.T) {
	// σ_{r.a2 = s.b2}(S) is correlated on r.a2.
	sel := NewSelect(scanS(), Cmp(types.EQ, Col("r.a2"), Col("s.b2")))
	free := FreeColumns(sel)
	if len(free) != 1 || free[0] != "r.a2" {
		t.Errorf("free = %v", free)
	}
	if free := FreeColumns(scanS()); len(free) != 0 {
		t.Errorf("scan must be uncorrelated, free = %v", free)
	}
	// Subquery free columns propagate through expressions.
	sub := Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, sel)
	outer := NewSelect(scanR(), Cmp(types.EQ, Col("r.a1"), sub))
	if len(FreeColumns(outer)) != 0 {
		t.Errorf("outer plan provides r.a2; free = %v", FreeColumns(outer))
	}
}

func TestSchemaPropagation(t *testing.T) {
	r, s := scanR(), scanS()
	j := NewJoin(r, s, Cmp(types.EQ, Col("r.a2"), Col("s.b2")))
	if j.Schema().Len() != 4 {
		t.Errorf("join schema = %s", j.Schema())
	}
	g := NewGroupBy(s, []string{"s.b2"}, []AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true}}}, false)
	if g.Schema().String() != "[s.b2, g]" {
		t.Errorf("Γ schema = %s", g.Schema())
	}
	bg := NewBinaryGroup(r, s, Cmp(types.EQ, Col("r.a2"), Col("s.b2")),
		[]AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true}}})
	if bg.Schema().String() != "[r.a1, r.a2, g]" {
		t.Errorf("Γ² schema = %s", bg.Schema())
	}
	m := NewMap(r, "x", ConstInt(1))
	if m.Schema().String() != "[r.a1, r.a2, x]" {
		t.Errorf("χ schema = %s", m.Schema())
	}
	tagged := NewBinaryGroup(r, NewMap(s, "tag", ConstInt(1)), Cmp(types.EQ, Col("r.a2"), Col("s.b2")),
		[]AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true}}})
	tagged.Tag = "tag"
	if tagged.Schema().String() != "[r.a1, r.a2, g]" || tagged.Label() != "Γ²[(r.a2 = s.b2) ∨ tag][g:COUNT(*)]" {
		t.Errorf("tagged Γ² = %s %s", tagged.Label(), tagged.Schema())
	}
}

func TestProjectPanicsOnMissingAttr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProject(scanR(), []string{"zz"})
}

func TestUnionSchemaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUnionDisjoint(scanR(), scanS())
}

func TestLabels(t *testing.T) {
	bp := NewBypassSelect(scanR(), Cmp(types.GT, Col("r.a1"), ConstInt(0)))
	if !strings.Contains(bp.Label(), "σ±") {
		t.Errorf("bypass label = %s", bp.Label())
	}
	if Pos(bp).Label() != "+stream" || Neg(bp).Label() != "−stream" {
		t.Error("stream labels")
	}
	oj := NewLeftOuterJoin(scanR(), scanS(), Cmp(types.EQ, Col("r.a2"), Col("s.b2")),
		[]Default{{Attr: "g", Val: types.NewInt(0)}})
	if !strings.Contains(oj.Label(), "g:0") {
		t.Errorf("outerjoin label = %s", oj.Label())
	}
	alias := NewScan("r", "r2", storage.NewSchema("r2.a1"))
	if !strings.Contains(alias.Label(), "AS r2") {
		t.Errorf("aliased scan label = %s", alias.Label())
	}
}

func TestExplainMarksSharedNodes(t *testing.T) {
	bp := NewBypassSelect(scanR(), Cmp(types.GT, Col("r.a1"), ConstInt(0)))
	u := NewUnionDisjoint(Pos(bp), Neg(bp))
	out := Explain(u)
	if !strings.Contains(out, "#1") || !strings.Contains(out, "↑ see #1") {
		t.Errorf("explain must mark DAG sharing:\n%s", out)
	}
}

func TestWalkVisitsDAGNodesOnce(t *testing.T) {
	bp := NewBypassSelect(scanR(), Cmp(types.GT, Col("r.a1"), ConstInt(0)))
	u := NewUnionDisjoint(Pos(bp), Neg(bp))
	// Nodes: union, pos-stream, neg-stream, bypass, scan = 5.
	n := 0
	Walk(u, func(Op) bool { n++; return true })
	if n != 5 {
		t.Errorf("Walk visited %d operators, want 5", n)
	}
}

func TestContainsSubquery(t *testing.T) {
	sub := Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil,
		NewSelect(scanS(), Cmp(types.EQ, Col("r.a2"), Col("s.b2"))))
	sel := NewSelect(scanR(), Cmp(types.EQ, Col("r.a1"), sub))
	if !ContainsSubquery(sel) {
		t.Error("nested plan not detected")
	}
	if ContainsSubquery(scanR()) {
		t.Error("false positive")
	}
}

func TestPlanInline(t *testing.T) {
	sel := NewSelect(scanR(), Cmp(types.GT, Col("r.a1"), ConstInt(0)))
	got := PlanInline(sel)
	if !strings.Contains(got, "scan(r)") || !strings.HasPrefix(got, "σ") {
		t.Errorf("PlanInline = %s", got)
	}
	j := NewJoin(scanR(), scanS(), nil)
	if !strings.Contains(PlanInline(j), ", ") {
		t.Errorf("binary PlanInline = %s", PlanInline(j))
	}
}

func TestRenameError(t *testing.T) {
	if _, err := NewRename(scanR(), [][2]string{{"x", "missing"}}); err == nil {
		t.Error("rename of missing attribute must error")
	}
}

func TestQuantifierStrings(t *testing.T) {
	if Exists.String() != "EXISTS" || NotExists.String() != "NOT EXISTS" ||
		In.String() != "IN" || NotIn.String() != "NOT IN" {
		t.Error("quantifier strings")
	}
	q := Quant(In, Col("x"), scanS())
	if !strings.Contains(q.String(), "IN") {
		t.Errorf("quant string = %s", q)
	}
	e := Quant(Exists, nil, scanS())
	if !strings.HasPrefix(e.String(), "EXISTS") {
		t.Errorf("exists string = %s", e)
	}
}

func TestAggItemLabel(t *testing.T) {
	it := AggItem{Out: "g", Spec: agg.Spec{Kind: agg.Count, Distinct: true, Star: true}}
	if it.Label() != "g:COUNT(DISTINCT *)" {
		t.Errorf("label = %s", it.Label())
	}
	it2 := AggItem{Out: "m", Spec: agg.Spec{Kind: agg.Min}, Arg: Col("x")}
	if it2.Label() != "m:MIN(x)" {
		t.Errorf("label = %s", it2.Label())
	}
}
