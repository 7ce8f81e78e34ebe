package physical_test

import (
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/physical"
	"disqo/internal/types"
)

// Path-selection tests: which lowered nodes carry compiled columnar
// programs, which stay on the row path, and how BestD reorders the
// compiled disjuncts without touching the plan's printed predicate.

func TestVectorizeFilterCompiles(t *testing.T) {
	cat := testCat(t)
	pred := algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(1))
	n := lower(t, cat, algebra.NewSelect(scanOf(t, cat, "r"), pred))
	f, ok := n.(*physical.Filter)
	if !ok {
		t.Fatalf("lowered to %T, want *Filter", n)
	}
	if f.VecPred == nil {
		t.Fatal("simple comparison did not compile for the vectorized path")
	}
	if !physical.Vectorizable(f) {
		t.Error("Vectorizable(Filter with VecPred) = false")
	}
	if !physical.Vectorizable(f.Child) {
		t.Error("Vectorizable(Scan) = false")
	}
	if f.Pred != pred {
		t.Error("vectorization replaced the node's Pred; plan text must not change")
	}
}

func TestVectorizeSubqueryStaysRowPath(t *testing.T) {
	cat := testCat(t)
	sub := algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, scanOf(t, cat, "s"))
	pred := algebra.Cmp(types.EQ, algebra.Col("r.a1"), sub)
	n := lower(t, cat, algebra.NewSelect(scanOf(t, cat, "r"), pred))
	f, ok := n.(*physical.Filter)
	if !ok {
		t.Fatalf("lowered to %T, want *Filter", n)
	}
	if f.VecPred != nil {
		t.Fatal("subquery predicate compiled; it must stay tuple-at-a-time")
	}
	if physical.Vectorizable(f) {
		t.Error("Vectorizable must be false without a compiled predicate")
	}
}

// TestVectorizeBypassOperands: the σ± a bypass cascade tests first
// becomes its top Γ²'s bypass operands, compiled against the Γ²'s left
// input — what the vector path runs before any probe.
func TestVectorizeBypassOperands(t *testing.T) {
	cat := testCat(t)
	r, s := scanOf(t, cat, "r"), scanOf(t, cat, "s")
	pred := algebra.Cmp(types.GT, algebra.Col("r.a1"), algebra.ConstInt(0))
	group := func(cur algebra.Op) algebra.Op {
		return algebra.NewBinaryGroup(cur, s, algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2")), countAgg())
	}
	n := lower(t, cat, cascade(r, []algebra.Expr{pred, algebra.Cmp(types.EQ, algebra.Col("r.a1"), algebra.Col("g1"))},
		[]func(algebra.Op) algebra.Op{nil, group}))
	bg, ok := n.(*physical.BinaryGroup)
	if !ok {
		t.Fatalf("lowered to %T, want *BinaryGroup", n)
	}
	if bg.Bypass != pred || bg.VecBypass == nil {
		t.Fatalf("bypass operands %v compiled %v, want %s compiled", bg.Bypass, bg.VecBypass != nil, pred)
	}
	if !physical.Compiled(bg) {
		t.Error("Compiled must hold for a Γ² whose bypass operands compiled")
	}
}

func TestVectorizeMap(t *testing.T) {
	cat := testCat(t)
	n := lower(t, cat, algebra.NewMap(scanOf(t, cat, "r"), "m",
		algebra.Arith(types.Add, algebra.Col("r.a1"), algebra.Col("r.a2"))))
	m, ok := n.(*physical.Map)
	if !ok {
		t.Fatalf("lowered to %T, want *Map", n)
	}
	if m.VecExpr == nil {
		t.Fatal("arithmetic map expression did not compile")
	}
	if !physical.Vectorizable(m) {
		t.Error("Vectorizable(Map with VecExpr) = false")
	}
}

func TestVectorizeHashJoinResidual(t *testing.T) {
	cat := testCat(t)
	pure := lower(t, cat, algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"), eq("r.a1", "s.b1")))
	if !physical.Vectorizable(pure) {
		t.Error("residual-free hash join must be vectorizable")
	}
	mixed := lower(t, cat, algebra.NewJoin(scanOf(t, cat, "r"), scanOf(t, cat, "s"),
		algebra.And(eq("r.a1", "s.b1"), algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Col("s.b2")))))
	h, ok := mixed.(*physical.Join)
	if !ok || h.LCols == nil {
		t.Fatalf("lowered to %s, want a hash join", mixed.Label())
	}
	if h.Pred == nil {
		t.Skip("planner fused the residual; nothing to assert")
	}
	if physical.Vectorizable(h) {
		t.Error("hash join with a residual predicate must stay on the row path")
	}
}

// TestVectorizeBestDOrdering: the compiled program evaluates disjuncts
// by descending selectivity/cost — the cheap high-yield comparison
// before the expensive arithmetic one — while the node's printed Pred
// keeps source order. r.a1 spans 0..2, so a1 >= 0 decides every row at
// comparison cost while the arithmetic disjunct pays an extra Arith
// per row for default selectivity.
func TestVectorizeBestDOrdering(t *testing.T) {
	cat := testCat(t)
	expensive := algebra.Cmp(types.GT,
		algebra.Arith(types.Add, algebra.Col("r.a1"), algebra.Col("r.a2")), algebra.ConstInt(5))
	cheap := algebra.Cmp(types.GE, algebra.Col("r.a1"), algebra.ConstInt(0))
	pred := algebra.Or(expensive, cheap)
	n := lower(t, cat, algebra.NewSelect(scanOf(t, cat, "r"), pred))
	f := n.(*physical.Filter)
	if f.VecPred == nil {
		t.Fatal("disjunction did not compile")
	}
	compiled, ok := f.VecPred.Expr().(*algebra.OrExpr)
	if !ok {
		t.Fatalf("compiled source is %T, want *OrExpr", f.VecPred.Expr())
	}
	parts := algebra.SplitDisjuncts(compiled)
	if len(parts) != 2 {
		t.Fatalf("%d disjuncts, want 2", len(parts))
	}
	if parts[0] != cheap || parts[1] != expensive {
		t.Errorf("BestD order = [%s, %s], want cheap disjunct first", parts[0], parts[1])
	}
	if f.Pred != pred {
		t.Error("reordering leaked into the node's Pred")
	}
}
