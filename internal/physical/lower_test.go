package physical_test

import (
	"strings"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/physical"
	"disqo/internal/stats"
	"disqo/internal/types"
)

// Unit tests for the lowering rules: every algorithm choice the planner
// makes (hash vs nested-loops joins, the three binary-grouping
// algorithms, fused negative-stream filters) is pinned here, together
// with the structural guarantees the executor relies on — DAG sharing,
// eager subquery pre-lowering, and cardinality annotations.

func testCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, spec := range []struct{ name, prefix string }{{"r", "a"}, {"s", "b"}} {
		tbl, err := cat.Create(spec.name, []catalog.Column{
			{Name: spec.prefix + "1", Type: types.KindInt},
			{Name: spec.prefix + "2", Type: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 3; i++ {
			if err := tbl.Insert([]types.Value{types.NewInt(i), types.NewInt(i * 10)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat
}

func scanOf(t *testing.T, cat *catalog.Catalog, name string) *algebra.Scan {
	t.Helper()
	tbl, err := cat.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.NewScan(name, name, tbl.Rel.Schema)
}

func lower(t *testing.T, cat *catalog.Catalog, op algebra.Op) physical.Node {
	t.Helper()
	n, err := physical.NewPlanner(stats.New(cat)).Lower(op)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	return n
}

func eq(l, r string) algebra.Expr {
	return algebra.Cmp(types.EQ, algebra.Col(l), algebra.Col(r))
}

func countAgg() []algebra.AggItem {
	return []algebra.AggItem{{Out: "g1", Spec: agg.Spec{Kind: agg.Count, Star: true}}}
}

func TestLowerJoinPicksHashOnEquiKeys(t *testing.T) {
	cat := testCat(t)
	j := lower(t, cat, algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq("r.a1", "s.b1")))
	h, ok := j.(*physical.HashJoin)
	if !ok {
		t.Fatalf("equi join lowered to %T, want *HashJoin", j)
	}
	if h.Mode != physical.JoinInner || len(h.LCols) != 1 || h.LCols[0] != 0 || h.RCols[0] != 0 {
		t.Errorf("HashJoin = mode %v keys %v/%v", h.Mode, h.LCols, h.RCols)
	}
	if h.Residual != nil {
		t.Errorf("pure equi join must have no residual, got %v", h.Residual)
	}
}

func TestLowerJoinKeepsResidualConjuncts(t *testing.T) {
	cat := testCat(t)
	pred := algebra.And(eq("r.a1", "s.b1"), algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2")))
	j := lower(t, cat, algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred))
	h, ok := j.(*physical.HashJoin)
	if !ok {
		t.Fatalf("mixed predicate lowered to %T, want *HashJoin", j)
	}
	if h.Residual == nil {
		t.Error("inequality conjunct must survive as residual")
	}
}

func TestLowerJoinFallsBackToNestedLoops(t *testing.T) {
	cat := testCat(t)
	pred := algebra.Cmp(types.LT, algebra.Col("r.a1"), algebra.Col("s.b1"))
	j := lower(t, cat, algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred))
	nl, ok := j.(*physical.NLJoin)
	if !ok {
		t.Fatalf("inequality join lowered to %T, want *NLJoin", j)
	}
	if nl.Pred == nil || nl.Mode != physical.JoinInner {
		t.Errorf("NLJoin = pred %v mode %v", nl.Pred, nl.Mode)
	}
}

func TestLowerSemiAndAntiJoinModes(t *testing.T) {
	cat := testCat(t)
	semi := lower(t, cat, algebra.NewSemiJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq("r.a1", "s.b1")))
	if h, ok := semi.(*physical.HashJoin); !ok || h.Mode != physical.JoinSemi {
		t.Errorf("semijoin lowered to %T mode %v, want HashJoin/JoinSemi", semi, semi)
	}
	anti := lower(t, cat, algebra.NewAntiJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"),
		algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.Col("s.b1"))))
	if nl, ok := anti.(*physical.NLJoin); !ok || nl.Mode != physical.JoinAnti {
		t.Errorf("antijoin lowered to %T, want NLJoin/JoinAnti", anti)
	}
}

func TestLowerCrossProductIsPredlessNLJoin(t *testing.T) {
	cat := testCat(t)
	c := lower(t, cat, algebra.NewCross(scanOf(t, cat, "r"), scanOf(t, cat, "s")))
	nl, ok := c.(*physical.NLJoin)
	if !ok {
		t.Fatalf("cross product lowered to %T, want *NLJoin", c)
	}
	if nl.Pred != nil {
		t.Errorf("cross product must carry no predicate, got %v", nl.Pred)
	}
}

func TestLowerBinaryGroupHashOnPureEquality(t *testing.T) {
	cat := testCat(t)
	bg := lower(t, cat, algebra.NewBinaryGroup(
		scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq("r.a1", "s.b1"), countAgg()))
	h, ok := bg.(*physical.BinaryGroup)
	if !ok || h.TagCol != -1 || len(h.LCols) != 1 || h.LCols[0] != 0 || h.RCols[0] != 0 ||
		!strings.HasPrefix(h.Label(), "HashBinaryGroup[r.a1=s.b1]") {
		t.Fatalf("equality binary group lowered to %T %s, want hash probing on a1=b1", bg, bg.Label())
	}
}

func TestLowerBinaryGroupSortOnInequality(t *testing.T) {
	cat := testCat(t)
	pred := algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2"))
	bg := lower(t, cat, algebra.NewBinaryGroup(
		scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred, countAgg()))
	s, ok := bg.(*physical.BinaryGroupSort)
	if !ok {
		t.Fatalf("inequality binary group lowered to %T, want *BinaryGroupSort", bg)
	}
	if s.LIdx != 1 || s.RIdx != 1 || s.Op != types.LT {
		t.Errorf("BinaryGroupSort = L[%d] %v R[%d]", s.LIdx, s.Op, s.RIdx)
	}
}

func TestLowerBinaryGroupSortFlipsSwappedOperands(t *testing.T) {
	cat := testCat(t)
	// b2 < a2 references the right column on the comparison's left, so
	// the planner must swap operands and flip the comparison to a2 > b2.
	pred := algebra.Cmp(types.LT, algebra.Col("s.b2"), algebra.Col("r.a2"))
	bg := lower(t, cat, algebra.NewBinaryGroup(
		scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred, countAgg()))
	s, ok := bg.(*physical.BinaryGroupSort)
	if !ok {
		t.Fatalf("flipped inequality lowered to %T, want *BinaryGroupSort", bg)
	}
	if s.LIdx != 1 || s.RIdx != 1 || s.Op != types.GT {
		t.Errorf("BinaryGroupSort = L[%d] %v R[%d], want L[1] > R[1]", s.LIdx, s.Op, s.RIdx)
	}
}

func TestLowerBinaryGroupNLForComplexPredicates(t *testing.T) {
	cat := testCat(t)
	// A conjunction with a constant term is no longer a bare
	// column-vs-column inequality, so neither hash nor sort applies.
	pred := algebra.And(
		algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2")),
		algebra.Const(types.NewBool(true)))
	bg := lower(t, cat, algebra.NewBinaryGroup(
		scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred, countAgg()))
	wantNLBinaryGroup(t, bg)
}

func TestLowerBinaryGroupNLForDistinctAggregates(t *testing.T) {
	cat := testCat(t)
	// DISTINCT partials are not single-valued, so the sort-based
	// algorithm's prefix/suffix decomposition does not apply.
	aggs := []algebra.AggItem{{Out: "g1", Spec: agg.Spec{Kind: agg.Count, Star: true, Distinct: true}}}
	pred := algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2"))
	bg := lower(t, cat, algebra.NewBinaryGroup(
		scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred, aggs))
	wantNLBinaryGroup(t, bg)
}

// wantNLBinaryGroup asserts the untagged per-pair algorithm: no hash
// keys, no tag, and the label the per-operator reports classify by.
func wantNLBinaryGroup(t *testing.T, bg physical.Node) {
	t.Helper()
	n, ok := bg.(*physical.BinaryGroup)
	if !ok || n.TagCol != -1 || len(n.LCols) != 0 || !strings.HasPrefix(n.Label(), "NLBinaryGroup[") {
		t.Fatalf("binary group lowered to %T %s, want NLBinaryGroup", bg, bg.Label())
	}
}

func TestLowerTaggedBinaryGroup(t *testing.T) {
	cat := testCat(t)
	tagged := func(pred algebra.Expr) physical.Node {
		inner := algebra.NewMap(scanOf(t, cat, "s"), "tag",
			algebra.Cmp(types.GT, algebra.Col("s.b2"), algebra.ConstInt(7)))
		bg := algebra.NewBinaryGroup(scanOf(t, cat, "r"), inner, pred, countAgg())
		bg.Tag = "tag"
		return lower(t, cat, bg)
	}
	// Pure equality hashes the untagged tuples; the tag column resolves
	// in the right schema — which χ emits pruned to the key and the tag,
	// all COUNT(*) and the predicate read — and the label keeps the
	// BinaryGroup suffix the per-operator reports classify by.
	h, ok := tagged(eq("r.a1", "s.b1")).(*physical.BinaryGroup)
	if !ok {
		t.Fatalf("tagged Γ² lowered to %T, want *BinaryGroup", h)
	}
	if got := h.R.Schema().String(); got != "[s.b1, tag]" {
		t.Errorf("tagged Γ²'s right input emits %s, want [s.b1, tag]", got)
	}
	if h.TagCol != 1 || len(h.LCols) != 1 || h.LCols[0] != 0 || h.RCols[0] != 0 {
		t.Errorf("tagged hash = tag[%d] L%v R%v", h.TagCol, h.LCols, h.RCols)
	}
	if !strings.HasPrefix(h.Label(), "TagBinaryGroup(hash)[(r.a1 = s.b1) ∨ tag]") {
		t.Errorf("label = %s", h.Label())
	}
	// θ-correlation and several correlated disjuncts stay one operator
	// that evaluates the predicate per pair.
	for _, pred := range []algebra.Expr{
		algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2")),
		algebra.Or(eq("r.a1", "s.b1"), eq("r.a2", "s.b2")),
	} {
		n, ok := tagged(pred).(*physical.BinaryGroup)
		if !ok || len(n.LCols) != 0 || !strings.HasPrefix(n.Label(), "TagBinaryGroup(nl)[") {
			t.Errorf("tagged Γ²[%s] lowered to %T %s", pred, n, n.Label())
		}
	}
}

func TestLowerPreservesDAGSharing(t *testing.T) {
	cat := testCat(t)
	shared := algebra.NewBypassSelect(scanOf(t, cat, "r"),
		algebra.Cmp(types.GT, algebra.Col("r.a2"), algebra.ConstInt(10)))
	root := algebra.NewUnionDisjoint(algebra.Pos(shared), algebra.Neg(shared))
	n := lower(t, cat, root)
	u, ok := n.(*physical.Union)
	if !ok {
		t.Fatalf("lowered to %T, want *Union", n)
	}
	pos, ok := u.L.(*physical.Stream)
	if !ok {
		t.Fatalf("union left is %T, want *Stream", u.L)
	}
	neg, ok := u.R.(*physical.Stream)
	if !ok {
		t.Fatalf("union right is %T, want *Stream", u.R)
	}
	if pos.Source != neg.Source {
		t.Error("both streams must share one physical bypass node (DAG, not tree)")
	}
}

func TestLowerPreLowersSubqueryPlans(t *testing.T) {
	cat := testCat(t)
	sub := algebra.NewGroupBy(scanOf(t, cat, "s"), nil,
		[]algebra.AggItem{{Out: "c", Spec: agg.Spec{Kind: agg.Count, Star: true}}}, true)
	pred := algebra.Cmp(types.EQ, algebra.Col("r.a1"),
		algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, sub))
	sel := algebra.NewSelect(scanOf(t, cat, "r"), pred)
	pl, err := physical.NewPlanner(stats.New(cat)).Plan(sel)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	n, ok := pl.BlockFor(sub)
	if !ok {
		t.Fatal("subquery plan must be pre-lowered with its enclosing operator")
	}
	if _, isGroup := n.(*physical.Group); !isGroup {
		t.Errorf("the block resolves to %T, want its *Group root", n)
	}
	if _, ok := pl.BlockFor(sel); ok {
		t.Error("the lookup holds block roots only; the main plan is Root")
	}
	// Filter, two scans and the subquery's group: IDs are dense.
	if pl.NodeCount() != 4 {
		t.Errorf("NodeCount = %d, want 4", pl.NodeCount())
	}
}

func TestLowerAnnotatesCardinalities(t *testing.T) {
	cat := testCat(t)
	n := lower(t, cat, algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq("r.a1", "s.b1")))
	physical.Walk(n, func(m physical.Node) bool {
		if m.EstRows() < 0 {
			t.Errorf("%s: negative cardinality estimate %g", m.Label(), m.EstRows())
		}
		return true
	})
	// The scans carry the catalog's exact counts.
	scans := 0
	physical.Walk(n, func(m physical.Node) bool {
		if sc, ok := m.(*physical.Scan); ok {
			scans++
			if sc.EstRows() != 3 {
				t.Errorf("scan(%s) est %g rows, want 3", sc.Table, sc.EstRows())
			}
		}
		return true
	})
	if scans != 2 {
		t.Errorf("walked %d scans, want 2", scans)
	}
}

func TestLowerMemoizesPerOperator(t *testing.T) {
	cat := testCat(t)
	p := physical.NewPlanner(stats.New(cat))
	op := algebra.NewSelect(scanOf(t, cat, "r"),
		algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(0)))
	a, err := p.Lower(op)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Lower(op)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("re-lowering the same logical op must return the memoized node")
	}
}

func TestLowerRejectsStreamOverNonBypass(t *testing.T) {
	cat := testCat(t)
	_, err := physical.NewPlanner(stats.New(cat)).Lower(algebra.Pos(scanOf(t, cat, "r")))
	if err == nil || !strings.Contains(err.Error(), "non-bypass") {
		t.Errorf("err = %v, want stream-over-non-bypass rejection", err)
	}
}

// fusible builds r ⟕ Γ_{s.b1; g1:COUNT(*)}(s) and the Γ² of r and s on
// a1 = b1 (the binary grouping sort-based when sorted), the operators a
// selection fuses into.
func fusible(t *testing.T, cat *catalog.Catalog) (outer func() algebra.Op, group func(sorted bool) algebra.Op) {
	r, s := scanOf(t, cat, "r"), scanOf(t, cat, "s")
	outer = func() algebra.Op {
		return algebra.NewLeftOuterJoin(r, algebra.NewGroupBy(s, []string{"s.b1"}, countAgg(), false),
			eq("r.a1", "s.b1"), []algebra.Default{{Attr: "g1", Val: types.NewInt(0)}})
	}
	group = func(sorted bool) algebra.Op {
		pred := eq("r.a1", "s.b1")
		if sorted {
			pred = algebra.Cmp(types.LT, algebra.Col("r.a1"), algebra.Col("s.b1"))
		}
		return algebra.NewBinaryGroup(r, s, pred, countAgg())
	}
	return outer, group
}

func TestLowerFusesSelections(t *testing.T) {
	cat := testCat(t)
	outer, group := fusible(t, cat)
	link := eq("r.a2", "g1")
	for _, c := range []struct {
		name string
		op   algebra.Op
		want string
	}{
		{"σ over ⟕", algebra.NewSelect(outer(), link),
			"HashOuterJoin[r.a1=s.b1] σ[(r.a2 = g1)]"},
		{"Π over σ over ⟕", algebra.NewProject(algebra.NewSelect(outer(), link), []string{"r.a1"}),
			"HashOuterJoin[r.a1=s.b1] σ[(r.a2 = g1)] → [r.a1] (1 of 4 cols)"},
		{"σ over Π over Γ²", algebra.NewSelect(algebra.NewProject(group(false), []string{"g1", "r.a2"}), link),
			"HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)] σ[(r.a2 = g1)] → [g1, r.a2] (2 of 3 cols)"},
		{"σ over sorted Γ²", algebra.NewSelect(group(true), link),
			"SortBinaryGroup[r.a1 < s.b1][g1:COUNT(*)] σ[(r.a2 = g1)]"},
	} {
		n := lower(t, cat, c.op)
		if n.Label() != c.want {
			t.Errorf("%s lowered to %s, want %s", c.name, n.Label(), c.want)
		}
		// The node stands for the σ: what the executor memoizes on.
		sel := c.op
		if p, ok := sel.(*algebra.Project); ok {
			sel = p.Child
		}
		if n.Logical() != sel {
			t.Errorf("%s: the fused node stands for %s, want the σ", c.name, n.Logical().Label())
		}
	}
}

// TestLowerDoesNotFuse: a σ± (two streams), an operator another consumer
// reads too, and a predicate holding a nested block stay Filters.
func TestLowerDoesNotFuse(t *testing.T) {
	cat := testCat(t)
	outer, _ := fusible(t, cat)
	link := eq("r.a2", "g1")
	bypass := algebra.NewBypassSelect(outer(), link)
	shared := outer()
	block := algebra.NewGroupBy(scanOf(t, cat, "s"), nil, countAgg(), true)
	for name, op := range map[string]algebra.Op{
		"σ± with two streams": algebra.NewUnionDisjoint(algebra.Pos(bypass), algebra.Neg(bypass)),
		"a shared ⟕":          algebra.NewUnionAll(algebra.NewSelect(shared, link), shared),
		"a σ holding a block": algebra.NewSelect(outer(),
			algebra.Cmp(types.EQ, algebra.Col("g1"), algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, block))),
	} {
		physical.Walk(lower(t, cat, op), func(n physical.Node) bool {
			if j, ok := n.(*physical.OuterJoin); ok && j.Keep != nil {
				t.Errorf("%s: fused into %s", name, j.Label())
			}
			return true
		})
	}
}

// TestFusedLabelsAndFingerprints: a fused selection is part of the
// node's label — its own label up to the first '[' or '(' unchanged, so
// per-operator reports classify it as before, and " σ[…]" before the emit
// list — and so of the plan's fingerprint: plans that differ only in the
// fused predicate never share a result-cache entry.
func TestFusedLabelsAndFingerprints(t *testing.T) {
	cat := testCat(t)
	outer, group := fusible(t, cat)
	prefix := func(label string) string { return label[:strings.IndexAny(label, "[(")] }
	for _, w := range []func() algebra.Op{outer, func() algebra.Op { return group(false) }, func() algebra.Op { return group(true) }} {
		plain := lower(t, cat, w())
		a := lower(t, cat, algebra.NewProject(algebra.NewSelect(w(), eq("r.a2", "g1")), []string{"r.a1"}))
		b := lower(t, cat, algebra.NewProject(algebra.NewSelect(w(), algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("g1"))), []string{"r.a1"}))
		if prefix(a.Label()) != prefix(plain.Label()) {
			t.Errorf("fused label %s does not start as %s", a.Label(), plain.Label())
		}
		if !strings.Contains(a.Label(), " σ[(r.a2 = g1)] → [r.a1] (1 of ") {
			t.Errorf("fused label %s lacks σ[…] before its emit list", a.Label())
		}
		if physical.Fingerprint(a) == physical.Fingerprint(b) {
			t.Errorf("%s and %s fingerprint alike", a.Label(), b.Label())
		}
	}
}
