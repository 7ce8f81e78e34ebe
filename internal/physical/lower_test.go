package physical_test

import (
	"errors"
	"fmt"
	"slices"
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
	h := j.(*physical.Join)
	if h.Mode != physical.JoinInner || len(h.LCols) != 1 || h.LCols[0] != 0 || h.RCols[0] != 0 {
		t.Errorf("equi join = mode %v keys %v/%v, want a hash join on a1=b1", h.Mode, h.LCols, h.RCols)
	}
	if h.Pred != nil {
		t.Errorf("pure equi join must have no residual, got %v", h.Pred)
	}
}

func TestLowerJoinKeepsResidualConjuncts(t *testing.T) {
	cat := testCat(t)
	pred := algebra.And(eq("r.a1", "s.b1"), algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2")))
	j := lower(t, cat, algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred))
	h := j.(*physical.Join)
	if h.LCols == nil {
		t.Fatalf("mixed predicate lowered to %s, want a hash join", j.Label())
	}
	if h.Pred == nil {
		t.Error("inequality conjunct must survive as residual")
	}
}

func TestLowerJoinFallsBackToNestedLoops(t *testing.T) {
	cat := testCat(t)
	pred := algebra.Cmp(types.LT, algebra.Col("r.a1"), algebra.Col("s.b1"))
	j := lower(t, cat, algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred))
	nl := j.(*physical.Join)
	if nl.LCols != nil || nl.Pred == nil || nl.Mode != physical.JoinInner {
		t.Errorf("inequality join = keys %v pred %v mode %v, want nested loops on the predicate", nl.LCols, nl.Pred, nl.Mode)
	}
}

func TestLowerSemiAndAntiJoinModes(t *testing.T) {
	cat := testCat(t)
	semi := lower(t, cat, algebra.NewSemiJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq("r.a1", "s.b1")))
	if h := semi.(*physical.Join); h.LCols == nil || h.Mode != physical.JoinSemi {
		t.Errorf("semijoin lowered to %s, want a hash semijoin", semi.Label())
	}
	anti := lower(t, cat, algebra.NewAntiJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"),
		algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.Col("s.b1"))))
	if nl := anti.(*physical.Join); nl.LCols != nil || nl.Mode != physical.JoinAnti {
		t.Errorf("antijoin lowered to %s, want a nested-loop antijoin", anti.Label())
	}
}

func TestLowerCrossProductIsPredlessNLJoin(t *testing.T) {
	cat := testCat(t)
	c := lower(t, cat, algebra.NewCross(scanOf(t, cat, "r"), scanOf(t, cat, "s")))
	nl := c.(*physical.Join)
	if nl.LCols != nil {
		t.Fatalf("cross product lowered to %s, want nested loops", c.Label())
	}
	if nl.Pred != nil {
		t.Errorf("cross product must carry no predicate, got %v", nl.Pred)
	}
}

func TestLowerBinaryGroupHashOnPureEquality(t *testing.T) {
	cat := testCat(t)
	bg := lower(t, cat, algebra.NewBinaryGroup(
		scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq("r.a1", "s.b1"), countAgg()))
	h := only(bg)
	if h == nil || h.Tag != nil || len(h.LCols) != 1 || h.LCols[0] != 0 || h.RCols[0] != 0 ||
		!strings.HasPrefix(bg.Label(), "HashBinaryGroup[r.a1=s.b1]") {
		t.Fatalf("equality binary group lowered to %T %s, want hash probing on a1=b1", bg, bg.Label())
	}
}

func TestLowerBinaryGroupSortOnInequality(t *testing.T) {
	cat := testCat(t)
	pred := algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2"))
	bg := lower(t, cat, algebra.NewBinaryGroup(
		scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred, countAgg()))
	s := only(bg)
	if len(s.LCols) != 1 || s.LCols[0] != 1 || s.RCols[0] != 1 || s.Theta != types.LT {
		t.Errorf("inequality binary group = L%v %v R%v, want sort-based L[1] < R[1]", s.LCols, s.Theta, s.RCols)
	}
}

func TestLowerBinaryGroupSortFlipsSwappedOperands(t *testing.T) {
	cat := testCat(t)
	// b2 < a2 references the right column on the comparison's left, so
	// the planner must swap operands and flip the comparison to a2 > b2.
	pred := algebra.Cmp(types.LT, algebra.Col("s.b2"), algebra.Col("r.a2"))
	bg := lower(t, cat, algebra.NewBinaryGroup(
		scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred, countAgg()))
	s := only(bg)
	if len(s.LCols) != 1 || s.LCols[0] != 1 || s.RCols[0] != 1 || s.Theta != types.GT {
		t.Errorf("flipped inequality = L%v %v R%v, want sort-based L[1] > R[1]", s.LCols, s.Theta, s.RCols)
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
	n := only(bg)
	if n == nil || n.Tag != nil || len(n.LCols) != 0 || !strings.HasPrefix(bg.Label(), "NLBinaryGroup[") {
		t.Fatalf("binary group lowered to %T %s, want NLBinaryGroup", bg, bg.Label())
	}
}

// only returns the one grouping of a binary grouping node; nil for any
// other node, or a chain.
func only(n physical.Node) *physical.Grouping {
	if bg, ok := n.(*physical.BinaryGroup); ok && len(bg.Groupings) == 1 {
		return &bg.Groupings[0]
	}
	return nil
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
	// Pure equality hashes the untagged tuples. The χ only the Γ² reads
	// is fused into it: R is the χ's input, and the tag is the χ's
	// predicate, compiled. The label
	// keeps the BinaryGroup suffix the per-operator reports classify by.
	hn := tagged(eq("r.a1", "s.b1"))
	h := only(hn)
	if h == nil {
		t.Fatalf("tagged Γ² lowered to %T, want *BinaryGroup", hn)
	}
	if got := h.R.Label() + h.R.Schema().String(); got != "Scan(s)[s.b1, s.b2]" {
		t.Errorf("tagged Γ²'s right input is %s, want Scan(s)[s.b1, s.b2]", got)
	}
	if h.Tag == nil || h.Tag.String() != "(s.b2 > 7)" || h.VecTag == nil ||
		len(h.LCols) != 1 || h.LCols[0] != 0 || h.RCols[0] != 0 {
		t.Errorf("tagged hash = tag %v (compiled %v) L%v R%v", h.Tag, h.VecTag != nil, h.LCols, h.RCols)
	}
	if !strings.HasPrefix(hn.Label(), "TagBinaryGroup(hash)[(r.a1 = s.b1) ∨ (s.b2 > 7)]") {
		t.Errorf("label = %s", hn.Label())
	}
	// θ-correlation and several correlated disjuncts stay one operator
	// that evaluates the predicate per pair.
	for _, pred := range []algebra.Expr{
		algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2")),
		algebra.Or(eq("r.a1", "s.b1"), eq("r.a2", "s.b2")),
	} {
		n := tagged(pred)
		if g := only(n); g == nil || len(g.LCols) != 0 || !strings.HasPrefix(n.Label(), "TagBinaryGroup(nl)[") {
			t.Errorf("tagged Γ²[%s] lowered to %T %s", pred, n, n.Label())
		}
	}
}

func TestLowerPreservesDAGSharing(t *testing.T) {
	cat := testCat(t)
	shared := algebra.NewSelect(scanOf(t, cat, "r"),
		algebra.Cmp(types.GT, algebra.Col("r.a2"), algebra.ConstInt(10)))
	root := algebra.NewUnionAll(shared, shared)
	n := lower(t, cat, root)
	u, ok := n.(*physical.Union)
	if !ok {
		t.Fatalf("lowered to %T, want *Union", n)
	}
	if _, ok := u.L.(*physical.Filter); !ok {
		t.Fatalf("union left is %T, want *Filter", u.L)
	}
	if u.L != u.R {
		t.Error("both inputs must share one physical filter node (DAG, not tree)")
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

// TestLowerRejectsStreamOverNonBypass: a bypass cascade is the only plan
// of a σ±, its streams and ∪̇, so a stream over anything else — and a
// σ±, a stream or a ∪̇ outside a cascade — fails with ErrBypass.
func TestLowerRejectsStreamOverNonBypass(t *testing.T) {
	cat := testCat(t)
	gt := algebra.Cmp(types.GT, algebra.Col("r.a2"), algebra.ConstInt(10))
	bp := algebra.NewBypassSelect(scanOf(t, cat, "r"), gt)
	other := algebra.NewBypassSelect(scanOf(t, cat, "r"), gt)
	for name, op := range map[string]algebra.Op{
		"stream over a scan":          algebra.Pos(scanOf(t, cat, "r")),
		"σ±":                          bp,
		"+ stream":                    algebra.Pos(bp),
		"− stream":                    algebra.Neg(bp),
		"∪̇ of the two streams":       algebra.NewUnionDisjoint(algebra.Pos(bp), algebra.Neg(bp)),
		"∪̇ over another σ±'s stream": algebra.NewUnionDisjoint(algebra.Pos(bp), algebra.NewSelect(algebra.Neg(other), gt)),
		"∪̇ over a semi-joined stream": algebra.NewUnionDisjoint(algebra.Pos(bp),
			algebra.NewSelect(algebra.NewSemiJoin(algebra.Neg(bp), scanOf(t, cat, "s"), eq("r.a1", "s.b1")), gt)),
	} {
		_, err := physical.NewPlanner(stats.New(cat)).Lower(op)
		if !errors.Is(err, physical.ErrBypass) {
			t.Errorf("%s: err = %v, want ErrBypass", name, err)
		}
	}
}

// cascade builds the rewriter's Eqv. 2/3 bypass cascade over base: each
// disjunct ds[i] is evaluated over stacks[i] (nil: none) put on the
// current stream, each but the last is bypassed and its − stream is the
// next current stream, and the branches, each under the Π onto base's
// columns, are united.
func cascade(base algebra.Op, ds []algebra.Expr, stacks []func(algebra.Op) algebra.Op) algebra.Op {
	out := base.Schema().Attrs()
	branch := func(op algebra.Op) algebra.Op {
		if op.Schema().Len() == len(out) {
			return op
		}
		return algebra.NewProject(op, out)
	}
	var u algebra.Op
	cur := base
	for i, d := range ds {
		if stacks[i] != nil {
			cur = stacks[i](cur)
		}
		var b algebra.Op
		if i == len(ds)-1 {
			b = branch(algebra.NewSelect(cur, d))
		} else {
			bp := algebra.NewBypassSelect(cur, d)
			b, cur = branch(algebra.Pos(bp)), algebra.Neg(bp)
		}
		if u == nil {
			u = b
		} else {
			u = algebra.NewUnionDisjoint(u, b)
		}
	}
	return u
}

// TestLowerCollapsesBypassCascades: a bypass cascade lowers to one pass,
// σ[d1 ∨ … ∨ dn] in the cascade's order over the unnestings stacked on
// its input, fused into the top Γ² whose bypass operands — those reading
// only its left input — decide rows before the probe, and which absorbs
// a keepless Γ² below it: the rest of the disjunction is its disjuncts,
// each reading the groupings it names. With a nested block in a
// disjunct it is one Filter under the Π onto the union's columns. No
// stream or union is left.
func TestLowerCollapsesBypassCascades(t *testing.T) {
	cat := testCat(t)
	r, s := scanOf(t, cat, "r"), scanOf(t, cat, "s")
	simple := algebra.Cmp(types.GT, algebra.Col("r.a2"), algebra.ConstInt(10))
	link := eq("r.a2", "g1")
	unnest := func(cur algebra.Op) algebra.Op { // Eqv. 1 on r.a1 = s.b1, as the rewriter leaves it
		return algebra.NewProject(eqv1(cur, s, eq("r.a1", "s.b1"), types.NewInt(0), "s.b1"),
			append(cur.Schema().Attrs(), "g1"))
	}
	group := func(cur algebra.Op) algebra.Op { // a sort-based Γ² on r.a1 < s.b1 counting g2
		return algebra.NewBinaryGroup(cur, s, algebra.Cmp(types.LT, algebra.Col("r.a1"), algebra.Col("s.b1")),
			[]algebra.AggItem{{Out: "g2", Spec: agg.Spec{Kind: agg.Count, Star: true}}})
	}
	block := algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, s)
	// A cascade's last branch may be a cascade of its own over a σ on the
	// outer stack (a last disjunct holding a disjunction with a subquery).
	few := algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(3))
	outer := algebra.NewBypassSelect(unnest(r), link)
	inner := cascade(algebra.NewSelect(algebra.Neg(outer), few), []algebra.Expr{simple, eq("r.a2", "g2")},
		[]func(algebra.Op) algebra.Op{nil, group})
	nested := algebra.NewUnionDisjoint(algebra.NewProject(algebra.Pos(outer), []string{"r.a1", "r.a2"}),
		algebra.NewProject(inner, []string{"r.a1", "r.a2"}))
	for _, c := range []struct {
		name         string
		op           algebra.Op
		want         string
		bypass, rest string
		below        string // the label of the top node's left input (blank: not checked)
	}{
		{"Eqv. 2", cascade(r, []algebra.Expr{simple, link}, []func(algebra.Op) algebra.Op{nil, unnest}),
			"HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)] σ[((r.a2 > 10) OR (r.a2 = g1))] → [r.a1, r.a2] (2 of 3 cols)",
			"(r.a2 > 10)", "(r.a2 = g1)/1", ""},
		{"Eqv. 3", cascade(r, []algebra.Expr{link, simple}, []func(algebra.Op) algebra.Op{unnest, nil}),
			"HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)] σ[((r.a2 = g1) OR (r.a2 > 10))] → [r.a1, r.a2] (2 of 3 cols)",
			"(r.a2 > 10)", "(r.a2 = g1)/1", ""},
		{"two unnested disjuncts", cascade(r, []algebra.Expr{simple, link, eq("r.a2", "g2")},
			[]func(algebra.Op) algebra.Op{nil, unnest, group}),
			"HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)] ∘ SortBinaryGroup[r.a1 < s.b1][g2:COUNT(*)] σ[(((r.a2 > 10) OR (r.a2 = g1)) OR (r.a2 = g2))] → [r.a1, r.a2] (2 of 4 cols)",
			"(r.a2 > 10)", "(r.a2 = g1)/1 (r.a2 = g2)/10", "Scan(r)"},
		{"a nested block", cascade(r, []algebra.Expr{algebra.Cmp(types.EQ, algebra.Col("r.a1"), block), link},
			[]func(algebra.Op) algebra.Op{nil, unnest}),
			"Project[r.a1, r.a2]", "", "", ""},
		{"a σ on the stack", cascade(r, []algebra.Expr{simple, link},
			[]func(algebra.Op) algebra.Op{nil, func(cur algebra.Op) algebra.Op { return unnest(algebra.NewSelect(cur, few)) }}),
			"HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)] σ[((r.a2 > 10) OR (r.a2 = g1))] → [r.a1, r.a2] (2 of 3 cols)",
			"(r.a2 > 10)", "(r.a2 = g1)/1", "Filter[((r.a2 > 10) OR (r.a1 > 3))]"},
		{"a cascade as the last branch", nested,
			"SortBinaryGroup[r.a1 < s.b1][g2:COUNT(*)] σ[(((r.a2 = g1) OR (r.a2 > 10)) OR (r.a2 = g2))] → [r.a1, r.a2] (2 of 4 cols)",
			"((r.a2 = g1) OR (r.a2 > 10))", "(r.a2 = g2)/1", "HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)] σ[((r.a2 = g1) OR (r.a1 > 3))]"},
	} {
		n := lower(t, cat, c.op)
		if n.Label() != c.want {
			t.Errorf("%s lowered to %s, want %s", c.name, n.Label(), c.want)
		}
		if n.Logical() != c.op {
			t.Errorf("%s: the top node stands for %s, want the ∪̇", c.name, n.Logical().Label())
		}
		physical.Walk(n, func(x physical.Node) bool {
			if u, ok := x.(*physical.Union); ok {
				t.Errorf("%s: %s left in the plan", c.name, u.Label())
			}
			return true
		})
		bg, ok := n.(*physical.BinaryGroup)
		if !ok {
			f, ok := n.Children()[0].(*physical.Filter)
			if !ok || !strings.HasPrefix(f.Label(), "Filter[((r.a1 = COUNT(*){scan(s)}) OR (r.a2 = g1))]") {
				t.Errorf("%s: %s over %s, want the Π over one Filter", c.name, n.Label(), n.Children()[0].Label())
			}
			continue
		}
		if got := bg.L.Label(); c.below != "" && !strings.HasPrefix(got, c.below) {
			t.Errorf("%s: the top node reads %s, want %s", c.name, got, c.below)
		}
		if got := fmt.Sprint(bg.Bypass, " ", restOf(bg)); got != c.bypass+" "+c.rest {
			t.Errorf("%s: bypass and rest = %s, want %s %s", c.name, got, c.bypass, c.rest)
		}
		// Every disjunct compiles over the left row ◦ the results, so the
		// Γ² is vector-served unless a grouping is sort-based.
		hashed := !strings.Contains(c.want, "SortBinaryGroup")
		if bg.VecBypass == nil || !physical.Compiled(bg) || physical.Vectorizable(bg) != hashed {
			t.Errorf("%s: the bypass operands must compile, and the fused Γ² count as compiled, and as vector-served iff every grouping is hashed", c.name)
		}
	}
}

// restOf renders a Γ²'s Rest: each disjunct, with the groupings it
// reads as a bit set.
func restOf(bg *physical.BinaryGroup) string {
	parts := make([]string, len(bg.Rest))
	for i, d := range bg.Rest {
		parts[i] = fmt.Sprintf("%s/%b", d.Pred, d.Reads)
	}
	return strings.Join(parts, " ")
}

// fusible builds Eqv. 1's r ⟕ Γ_{s.b1; g1:COUNT(*)}(s) as the rewriter
// leaves it, under the Π that drops the grouping attribute, and the Γ²
// of r and s on a1 = b1 (the binary grouping sort-based when sorted), the
// operators a selection fuses into.
func fusible(t *testing.T, cat *catalog.Catalog) (outer func() algebra.Op, group func(sorted bool) algebra.Op) {
	r, s := scanOf(t, cat, "r"), scanOf(t, cat, "s")
	outer = func() algebra.Op {
		return algebra.NewProject(eqv1(r, s, eq("r.a1", "s.b1"), types.NewInt(0), "s.b1"), []string{"r.a1", "r.a2", "g1"})
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
			"HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)] σ[(r.a2 = g1)]"},
		{"Π over σ over ⟕", algebra.NewProject(algebra.NewSelect(outer(), link), []string{"r.a1"}),
			"HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)] σ[(r.a2 = g1)] → [r.a1] (1 of 3 cols)"},
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

// TestLowerDoesNotFuse: an operator another consumer reads too, and a
// predicate holding a nested block — a bypass cascade's among them —
// stay Filters.
func TestLowerDoesNotFuse(t *testing.T) {
	cat := testCat(t)
	outer, _ := fusible(t, cat)
	link := eq("r.a2", "g1")
	shared := outer()
	block := algebra.NewGroupBy(scanOf(t, cat, "s"), nil, countAgg(), true)
	nested := algebra.Cmp(types.EQ, algebra.Col("g1"), algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, block))
	for name, op := range map[string]algebra.Op{
		"a shared ⟕":          algebra.NewUnionAll(algebra.NewSelect(shared, link), shared),
		"a σ holding a block": algebra.NewSelect(outer(), nested),
		"a cascade holding a block": cascade(scanOf(t, cat, "r"), []algebra.Expr{link, nested},
			[]func(algebra.Op) algebra.Op{func(algebra.Op) algebra.Op { return outer() }, nil}),
	} {
		physical.Walk(lower(t, cat, op), func(n physical.Node) bool {
			if bg, ok := n.(*physical.BinaryGroup); ok && bg.Keep != nil {
				t.Errorf("%s: fused into %s", name, bg.Label())
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

// taggedGroup builds Eqv. 5's Γ²[pred ∨ tag] of r over χ[tag:p](inner),
// seen through Π[cols…, tag] when cols is not nil.
func taggedGroup(t *testing.T, cat *catalog.Catalog, inner algebra.Op, p, pred algebra.Expr, cols []string) *algebra.BinaryGroup {
	var right algebra.Op = algebra.NewMap(inner, "tag", p)
	if cols != nil {
		right = algebra.NewProject(right, append(cols, "tag"))
	}
	bg := algebra.NewBinaryGroup(scanOf(t, cat, "r"), right, pred, countAgg())
	bg.Tag = "tag"
	return bg
}

// taggedNode finds the one binary grouping of a lowered plan.
func taggedNode(t *testing.T, root physical.Node) *physical.BinaryGroup {
	t.Helper()
	var bg *physical.BinaryGroup
	physical.Walk(root, func(n physical.Node) bool {
		if x, ok := n.(*physical.BinaryGroup); ok {
			bg = x
		}
		return bg == nil
	})
	if bg == nil {
		t.Fatalf("no binary grouping in\n%s", physical.Explain(root))
	}
	return bg
}

// eqv1 is Eqv. 1's l ⟕_{pred; g1:def} Γ_{keys; g1:COUNT(*)}(r).
func eqv1(l, r algebra.Op, pred algebra.Expr, def types.Value, keys ...string) *algebra.LeftOuterJoin {
	return algebra.NewLeftOuterJoin(l, algebra.NewGroupBy(r, keys, countAgg(), false), pred,
		[]algebra.Default{{Attr: "g1", Val: def}})
}

// sOuter is s ⟕ Γ_{r.a1; g1:COUNT(*)}(r) read as [s.b1, s.b2, g1]: the
// shape Eqv. 5 tags when p holds a nested block of its own, after that
// block is unnested.
func sOuter(t *testing.T, cat *catalog.Catalog) algebra.Op {
	oj := eqv1(scanOf(t, cat, "s"), scanOf(t, cat, "r"), eq("s.b1", "r.a1"), types.NewInt(0), "r.a1")
	return algebra.NewProject(oj, []string{"s.b1", "s.b2", "g1"})
}

// TestLowerOuterJoinIsBinaryGroup: Eqv. 1's ⟕ over Γ, under the Π that
// drops Γ's keys, lowers to one hashed Γ² over Γ's input — no Join or
// Group node, the Γ's aggregates, keys from the ⟕'s predicate (a key
// the predicate names twice is keyed twice), and its per-key fold sized
// by the Γ's estimate.
func TestLowerOuterJoinIsBinaryGroup(t *testing.T) {
	cat := testCat(t)
	r, s := scanOf(t, cat, "r"), scanOf(t, cat, "s")
	for _, c := range []struct {
		name  string
		oj    *algebra.LeftOuterJoin
		label string
		lcols []int
		rcols []int
	}{
		{"one key", eqv1(r, s, eq("r.a1", "s.b1"), types.NewInt(0), "s.b1"),
			"HashBinaryGroup[r.a1=s.b1][g1:COUNT(*)]", []int{0}, []int{0}},
		{"a key named twice", eqv1(r, s, algebra.And(eq("r.a1", "s.b1"), eq("s.b1", "r.a2")), types.NewInt(0), "s.b1"),
			"HashBinaryGroup[r.a1=s.b1 ∧ r.a2=s.b1][g1:COUNT(*)]", []int{0, 1}, []int{0, 0}},
		{"two keys", eqv1(r, s, algebra.And(eq("r.a2", "s.b2"), eq("r.a1", "s.b1")), types.NewInt(0), "s.b1", "s.b2"),
			"HashBinaryGroup[r.a2=s.b2 ∧ r.a1=s.b1][g1:COUNT(*)]", []int{1, 0}, []int{1, 0}},
	} {
		est := stats.New(cat)
		n, err := physical.NewPlanner(est).Lower(algebra.NewProject(c.oj, []string{"r.a1", "r.a2", "g1"}))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bg, ok := n.(*physical.BinaryGroup)
		if !ok || bg.Label() != c.label {
			t.Fatalf("%s: lowered to\n%s\nwant %s", c.name, physical.Explain(n), c.label)
		}
		g := &bg.Groupings[0]
		if _, ok := g.R.(*physical.Scan); !ok {
			t.Errorf("%s: R is %s, want Γ's input", c.name, g.R.Label())
		}
		if !slices.Equal(g.LCols, c.lcols) || !slices.Equal(g.RCols, c.rcols) {
			t.Errorf("%s: keys %v/%v, want %v/%v", c.name, g.LCols, g.RCols, c.lcols, c.rcols)
		}
		if want := est.Cardinality(c.oj.R); g.Groups != want {
			t.Errorf("%s: sized for %v groups, want Γ's estimate %v", c.name, g.Groups, want)
		}
		if bg.Logical() != c.oj {
			t.Errorf("%s: the node stands for %s, want the ⟕", c.name, bg.Logical().Label())
		}
	}
}

// TestLowerRejectsOtherOuterJoins: there is no physical outer join, so a
// ⟕ that is not Eqv. 1's fails to lower with ErrOuterJoin.
func TestLowerRejectsOtherOuterJoins(t *testing.T) {
	cat := testCat(t)
	r, s := scanOf(t, cat, "r"), scanOf(t, cat, "s")
	lt := algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2"))
	narrowed := func(oj algebra.Op) algebra.Op { return algebra.NewProject(oj, []string{"r.a1", "g1"}) }
	global := algebra.NewLeftOuterJoin(r, algebra.NewGroupBy(s, nil, countAgg(), true), nil,
		[]algebra.Default{{Attr: "g1", Val: types.NewInt(0)}})
	shared := eqv1(r, s, eq("r.a1", "s.b1"), types.NewInt(0), "s.b1").R
	for name, op := range map[string]algebra.Op{
		"over a scan":             algebra.NewProject(algebra.NewLeftOuterJoin(r, s, lt, nil), []string{"r.a1"}),
		"a residual":              narrowed(eqv1(r, s, algebra.And(eq("r.a1", "s.b1"), lt), types.NewInt(0), "s.b1")),
		"a key not equated":       narrowed(eqv1(r, s, eq("r.a1", "s.b1"), types.NewInt(0), "s.b1", "s.b2")),
		"a default other than 0":  narrowed(eqv1(r, s, eq("r.a1", "s.b1"), types.NewInt(7), "s.b1")),
		"COUNT without a default": narrowed(eqv1(r, s, eq("r.a1", "s.b1"), types.Null(), "s.b1")),
		"a global Γ":              narrowed(global),
		"Γ's key read":            eqv1(r, s, eq("r.a1", "s.b1"), types.NewInt(0), "s.b1"),
		"Γ's key read by a σ":     narrowed(algebra.NewSelect(eqv1(r, s, eq("r.a1", "s.b1"), types.NewInt(0), "s.b1"), eq("s.b1", "g1"))),
		"a Γ with another reader": algebra.NewCross(narrowed(algebra.NewLeftOuterJoin(r, shared, eq("r.a1", "s.b1"), []algebra.Default{{Attr: "g1", Val: types.NewInt(0)}})), algebra.NewProject(shared, []string{"s.b1"})),
	} {
		if _, err := physical.NewPlanner(stats.New(cat)).Lower(op); !errors.Is(err, physical.ErrOuterJoin) {
			t.Errorf("%s: Lower = %v, want ErrOuterJoin", name, err)
		}
	}
}

// TestLowerFusesTags: a χ[tag:p] only its tagged Γ² reads — directly, or
// through a Π (the shape unnesting a block in p leaves) — is fused into
// the Γ², hashed or nested-loop: no Map node remains, R is the χ's
// input, the tag is p and compiles, and the label shows p in the tag's
// place. The fused and unfused Γ² fingerprint apart.
func TestLowerFusesTags(t *testing.T) {
	cat := testCat(t)
	gt7 := algebra.Cmp(types.GT, algebra.Col("s.b2"), algebra.ConstInt(7))
	lt := algebra.Cmp(types.LT, algebra.Col("r.a1"), algebra.Col("s.b1"))
	for _, c := range []struct {
		name      string
		op        *algebra.BinaryGroup
		label, in string // the Γ²'s label prefix; its right input's
	}{
		{"direct χ, hash", taggedGroup(t, cat, scanOf(t, cat, "s"), gt7, eq("r.a1", "s.b1"), nil),
			"TagBinaryGroup(hash)[(r.a1 = s.b1) ∨ (s.b2 > 7)][", "Scan(s)"},
		{"direct χ, nl", taggedGroup(t, cat, scanOf(t, cat, "s"), gt7, lt, nil),
			"TagBinaryGroup(nl)[(r.a1 < s.b1) ∨ (s.b2 > 7)][", "Scan(s)"},
		{"χ under Π, hash", taggedGroup(t, cat, sOuter(t, cat), eq("s.b2", "g1"), eq("r.a1", "s.b1"), []string{"s.b1", "s.b2"}),
			"TagBinaryGroup(hash)[(r.a1 = s.b1) ∨ (s.b2 = g1)][", "HashBinaryGroup[s.b1=r.a1][g1:COUNT(*)]"},
		{"χ under Π, nl", taggedGroup(t, cat, sOuter(t, cat), eq("s.b2", "g1"), lt, []string{"s.b1", "s.b2"}),
			"TagBinaryGroup(nl)[(r.a1 < s.b1) ∨ (s.b2 = g1)][", "HashBinaryGroup[s.b1=r.a1][g1:COUNT(*)]"},
	} {
		root := lower(t, cat, c.op)
		physical.Walk(root, func(n physical.Node) bool {
			if _, ok := n.(*physical.Map); ok {
				t.Errorf("%s: %s left standing", c.name, n.Label())
			}
			return true
		})
		bg := taggedNode(t, root)
		if !strings.HasPrefix(bg.Label(), c.label) {
			t.Errorf("%s: lowered to %s, want %s…", c.name, bg.Label(), c.label)
		}
		if g := &bg.Groupings[0]; !strings.HasPrefix(g.R.Label(), c.in) {
			t.Errorf("%s: R is %s, want %s…", c.name, g.R.Label(), c.in)
		}
		if g := &bg.Groupings[0]; g.VecTag == nil {
			t.Errorf("%s: the tag %s did not compile", c.name, g.Tag)
		}
		// The same Γ² with its χ shared — here with a second reader —
		// keeps the χ, and fingerprints apart.
		right := c.op.R
		shared := algebra.NewBinaryGroup(c.op.L, right, c.op.Pred, c.op.Aggs)
		shared.Tag = "tag"
		unfused := taggedNode(t, lower(t, cat, algebra.NewCross(shared, right)))
		if physical.Fingerprint(unfused) == physical.Fingerprint(bg) {
			t.Errorf("%s: fused %s and unfused %s fingerprint alike", c.name, bg.Label(), unfused.Label())
		}
	}
}

// TestLowerDoesNotFuseTags: a χ another consumer reads too, a χ whose
// predicate holds a nested block, a Π another consumer reads, a Π that
// hides a column the Γ² names, and a DISTINCT * over every column of R
// (the tag among them) keep the χ, and the Γ² reads its tag column.
func TestLowerDoesNotFuseTags(t *testing.T) {
	cat := testCat(t)
	gt7 := algebra.Cmp(types.GT, algebra.Col("s.b2"), algebra.ConstInt(7))
	block := algebra.NewGroupBy(scanOf(t, cat, "r"), nil, countAgg(), true)
	nested := algebra.Cmp(types.EQ, algebra.Col("s.b2"),
		algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, block))
	sharedMap := algebra.NewMap(scanOf(t, cat, "s"), "tag", gt7)
	sharedProject := algebra.NewProject(algebra.NewMap(sOuter(t, cat), "tag", eq("s.b2", "g1")), []string{"s.b1", "s.b2", "tag"})
	over := func(right algebra.Op, pred algebra.Expr, aggs []algebra.AggItem) *algebra.BinaryGroup {
		bg := algebra.NewBinaryGroup(scanOf(t, cat, "r"), right, pred, aggs)
		bg.Tag = "tag"
		return bg
	}
	// Unprojected, s ⟕ Γ(r) carries r.a1, which the Π above the χ hides
	// and the predicate names — the r row's own column.
	wide := eqv1(scanOf(t, cat, "s"), scanOf(t, cat, "r"), eq("s.b1", "r.a1"), types.NewInt(0), "r.a1")
	distinctStar := []algebra.AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Count, Star: true, Distinct: true}}}
	for name, op := range map[string]algebra.Op{
		"a shared χ":                 algebra.NewCross(over(sharedMap, eq("r.a1", "s.b1"), countAgg()), sharedMap),
		"a χ holding a nested block": taggedGroup(t, cat, scanOf(t, cat, "s"), nested, eq("r.a1", "s.b1"), nil),
		"a shared Π":                 algebra.NewCross(over(sharedProject, eq("r.a1", "s.b1"), countAgg()), sharedProject),
		"a Π hiding a named column": taggedGroup(t, cat, wide, eq("s.b2", "g1"),
			algebra.Cmp(types.LT, algebra.Col("r.a1"), algebra.Col("s.b1")), []string{"s.b1", "s.b2"}),
		"a DISTINCT * reading the tag": over(algebra.NewMap(scanOf(t, cat, "s"), "tag", gt7), eq("r.a1", "s.b1"), distinctStar),
	} {
		root := lower(t, cat, op)
		bg := taggedNode(t, root)
		if g := &bg.Groupings[0]; g.Tag == nil || g.Tag.String() != "tag" || !strings.Contains(bg.Label(), " ∨ tag][") {
			t.Errorf("%s: fused into %s", name, bg.Label())
		}
		maps := 0
		physical.Walk(root, func(n physical.Node) bool {
			if _, ok := n.(*physical.Map); ok {
				maps++
			}
			return true
		})
		if maps == 0 {
			t.Errorf("%s: no Map left under %s", name, bg.Label())
		}
	}
}

// TestLowerPassesLeftRows: an operator that writes its own rows and emits
// a prefix of its left input's columns passes the left rows through; one
// that emits anything else, or the right input's columns too, does not.
func TestLowerPassesLeftRows(t *testing.T) {
	cat := testCat(t)
	outer, group := fusible(t, cat)
	link := eq("r.a2", "g1")
	for _, c := range []struct {
		name string
		op   algebra.Op
		pass bool
	}{
		{"⟕ emitting r.a1", algebra.NewProject(algebra.NewSelect(outer(), link), []string{"r.a1"}), true},
		{"Γ² emitting r.a1, r.a2", algebra.NewProject(algebra.NewSelect(group(false), link), []string{"r.a1", "r.a2"}), true},
		{"Γ² emitting r.a2, r.a1", algebra.NewProject(algebra.NewSelect(group(false), link), []string{"r.a2", "r.a1"}), false},
		{"sorted Γ² emitting r.a1", algebra.NewProject(algebra.NewSelect(group(true), link), []string{"r.a1"}), true},
		{"⋈ emitting r.a1", algebra.NewProject(algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq("r.a1", "s.b1")), []string{"r.a1"}), true},
		{"⋈ emitting r.a1, s.b2", algebra.NewProject(algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq("r.a1", "s.b1")), []string{"r.a1", "s.b2"}), false},
	} {
		var pass bool
		switch n := lower(t, cat, c.op).(type) {
		case *physical.Join:
			pass = n.PassLeft
		case *physical.BinaryGroup:
			pass = n.PassLeft
		default:
			t.Fatalf("%s lowered to %s", c.name, n.Label())
		}
		if pass != c.pass {
			t.Errorf("%s: PassLeft = %v, want %v", c.name, pass, c.pass)
		}
	}
}
