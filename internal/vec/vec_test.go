package vec_test

// Parity tests for the columnar predicate/scalar compiler: compiled
// programs must agree with per-row evaluation of the same expression —
// CompareValues, three-valued AND/OR/NOT, LIKE, IS NULL, arithmetic —
// including NULL propagation and the comparison-count accounting. The
// external test package avoids an import cycle (exec → physical → vec).

import (
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/testutil"
	"disqo/internal/types"
	"disqo/internal/vec"
)

// testRel builds a(int), b(int), s(string) with NULLs sprinkled in.
func testRel() (*storage.Schema, *storage.Batch) {
	sch := storage.NewSchema("a", "b", "s")
	rel := storage.NewRelation(sch)
	rows := []struct {
		a, b any
		s    any
	}{
		{int64(1), int64(10), "apple"},
		{int64(5), int64(5), "banana"},
		{nil, int64(7), "cherry"},
		{int64(9), nil, nil},
		{int64(3), int64(30), "apricot"},
	}
	for _, r := range rows {
		row := make([]types.Value, 3)
		if v, ok := r.a.(int64); ok {
			row[0] = types.NewInt(v)
		} else {
			row[0] = types.Null()
		}
		if v, ok := r.b.(int64); ok {
			row[1] = types.NewInt(v)
		} else {
			row[1] = types.Null()
		}
		if v, ok := r.s.(string); ok {
			row[2] = types.NewString(v)
		} else {
			row[2] = types.Null()
		}
		rel.Append(row)
	}
	return sch, storage.NewBatch(rel)
}

// refPred interprets an expression per row — the row path's semantics,
// restated independently so the two implementations can disagree.
func refPred(e algebra.Expr, row []types.Value, sch *storage.Schema) types.TriBool {
	switch x := e.(type) {
	case *algebra.CmpExpr:
		return types.CompareValues(x.Op, refScalar(x.L, row, sch), refScalar(x.R, row, sch))
	case *algebra.AndExpr:
		return refPred(x.L, row, sch).And(refPred(x.R, row, sch))
	case *algebra.OrExpr:
		return refPred(x.L, row, sch).Or(refPred(x.R, row, sch))
	case *algebra.NotExpr:
		return refPred(x.E, row, sch).Not()
	case *algebra.LikeExpr:
		return types.Like(refScalar(x.L, row, sch), refScalar(x.Pattern, row, sch))
	case *algebra.IsNullExpr:
		return types.TriOf(refScalar(x.E, row, sch).IsNull())
	default:
		return types.TriFromValue(refScalar(e, row, sch))
	}
}

func refScalar(e algebra.Expr, row []types.Value, sch *storage.Schema) types.Value {
	switch x := e.(type) {
	case *algebra.ColRef:
		return row[sch.Index(x.Name)]
	case *algebra.ConstExpr:
		return x.Val
	case *algebra.ArithExpr:
		v, err := types.Arith(x.Op, refScalar(x.L, row, sch), refScalar(x.R, row, sch))
		if err != nil {
			return types.Null()
		}
		return v
	default:
		return types.Null()
	}
}

func parityPreds() []algebra.Expr {
	col, konst := algebra.Col, algebra.ConstInt
	return []algebra.Expr{
		algebra.Cmp(types.GT, col("a"), konst(3)),
		algebra.Cmp(types.EQ, col("a"), col("b")),
		algebra.Cmp(types.LE, col("b"), konst(10)),
		algebra.Or(
			algebra.Cmp(types.LT, col("a"), konst(2)),
			algebra.Cmp(types.GT, col("b"), konst(20))),
		algebra.And(
			algebra.Cmp(types.GE, col("a"), konst(1)),
			algebra.Cmp(types.NE, col("b"), konst(5))),
		algebra.Not(algebra.Cmp(types.EQ, col("a"), konst(5))),
		algebra.Like(col("s"), algebra.Const(types.NewString("ap%"))),
		algebra.IsNull(col("b")),
		algebra.Or(
			algebra.IsNull(col("a")),
			algebra.And(
				algebra.Cmp(types.GT, col("a"), konst(0)),
				algebra.Like(col("s"), algebra.Const(types.NewString("%an%"))))),
		algebra.Cmp(types.GT, algebra.Arith(types.Add, col("a"), col("b")), konst(10)),
	}
}

func TestPredParity(t *testing.T) {
	sch, b := testRel()
	rel := b.Relation()
	for _, e := range parityPreds() {
		p, err := vec.CompilePred(e, physical.Columns(sch))
		if err != nil {
			t.Fatalf("%s: did not compile: %v", e, err)
		}
		got, _, err := p.Eval(b, 0, b.Len())
		if err != nil {
			t.Fatalf("%s: eval: %v", e, err)
		}
		for i := 0; i < b.Len(); i++ {
			want := refPred(e, rel.Tuples[i], sch)
			if got[i] != want {
				t.Errorf("%s row %d: vec=%v ref=%v", e, i, got[i], want)
			}
		}
	}
}

func TestScalarParity(t *testing.T) {
	sch, b := testRel()
	rel := b.Relation()
	exprs := []algebra.Expr{
		algebra.Col("a"),
		algebra.ConstInt(42),
		algebra.Arith(types.Mul, algebra.Col("a"), algebra.Col("b")),
		algebra.Arith(types.Sub, algebra.Col("b"), algebra.ConstInt(1)),
	}
	for _, e := range exprs {
		s, err := vec.CompileScalar(e, physical.Columns(sch))
		if err != nil {
			t.Fatalf("%s: did not compile: %v", e, err)
		}
		got, _, err := s.Eval(b, 0, b.Len())
		if err != nil {
			t.Fatalf("%s: eval: %v", e, err)
		}
		for i := 0; i < b.Len(); i++ {
			want := refScalar(e, rel.Tuples[i], sch)
			if !types.Equal(got[i], want) && !(got[i].IsNull() && want.IsNull()) {
				t.Errorf("%s row %d: vec=%v ref=%v", e, i, got[i], want)
			}
		}
	}
}

// TestCompileRejects pins the fallback boundary: predicates the row
// path must keep — subqueries, quantifiers, unresolved columns — do
// not compile.
func TestCompileRejects(t *testing.T) {
	sch := storage.NewSchema("a")
	sub := algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil,
		algebra.NewScan("s", "s", storage.NewSchema("b")))
	cases := []algebra.Expr{
		algebra.Cmp(types.EQ, algebra.Col("a"), sub),
		algebra.Col("nope"),
		algebra.Or(
			algebra.Cmp(types.GT, algebra.Col("a"), algebra.ConstInt(0)),
			algebra.Cmp(types.EQ, algebra.Col("outer.x"), algebra.ConstInt(1))),
	}
	for _, e := range cases {
		if _, err := vec.CompilePred(e, physical.Columns(sch)); err == nil {
			t.Errorf("%s: compiled but must stay on the row path", e)
		}
	}
}

// TestComparisonCounting: decided rows drop out of later AND/OR
// operands, so the charge equals rows actually evaluated per cmp node
// — first operand over all rows, second only over the undecided set.
func TestComparisonCounting(t *testing.T) {
	sch := storage.NewSchema("a")
	rel := storage.NewRelation(sch)
	for _, v := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		rel.Append([]types.Value{types.NewInt(v)})
	}
	b := storage.NewBatch(rel)
	// a < 5 decides (TRUE) rows 1..4; the second disjunct runs only on
	// the remaining 4 rows: 8 + 4 comparisons.
	p, err := vec.CompilePred(algebra.Or(
		algebra.Cmp(types.LT, algebra.Col("a"), algebra.ConstInt(5)),
		algebra.Cmp(types.GT, algebra.Col("a"), algebra.ConstInt(6))), physical.Columns(sch))
	if err != nil {
		t.Fatal(err)
	}
	_, cmps, err := p.Eval(b, 0, b.Len())
	if err != nil {
		t.Fatal(err)
	}
	if cmps != 12 {
		t.Fatalf("cmps = %d, want 12 (8 first disjunct + 4 undecided)", cmps)
	}
}

// TestEvalSubrange: kernels evaluate per morsel, so a [lo, hi) window
// must see exactly those rows.
func TestEvalSubrange(t *testing.T) {
	sch, b := testRel()
	rel := b.Relation()
	e := algebra.Cmp(types.GT, algebra.Col("a"), algebra.ConstInt(2))
	p, err := vec.CompilePred(e, physical.Columns(sch))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := p.Eval(b, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("window len = %d, want 3", len(got))
	}
	for i := 0; i < 3; i++ {
		want := refPred(e, rel.Tuples[i+1], sch)
		if got[i] != want {
			t.Errorf("window row %d: vec=%v ref=%v", i, got[i], want)
		}
	}
}

// TestLikeParity: LIKE over a string column and a constant pattern, which
// reads the column's strings directly, agrees with per-row evaluation —
// NULL rows, '_', '%' and empty patterns, a NULL pattern — and so does
// the boxed path LIKE takes over a column that mixes kinds, an all-NULL
// column and a column pattern, over the whole batch and a window of it.
func TestLikeParity(t *testing.T) {
	sch := storage.NewSchema("s", "m", "n")
	rel := storage.NewRelation(sch)
	str, null := types.NewString, types.Null()
	for _, row := range [][]types.Value{
		{str("apple"), str("ap"), null},
		{null, types.NewInt(3), null},
		{str(""), str("%"), null},
		{str("banana"), null, null},
		{str("a"), str("banana"), null},
		{str("apricot"), str("a_r%"), null},
	} {
		rel.Append(row)
	}
	b := storage.NewBatch(rel)
	var preds []algebra.Expr
	for _, pat := range []types.Value{str("ap%"), str("%an%"), str("_"), str("%"), str(""), str("a_r%"), str("_a%a"), null} {
		for _, c := range []string{"s", "m", "n"} {
			preds = append(preds, algebra.Like(algebra.Col(c), algebra.Const(pat)))
		}
	}
	preds = append(preds, algebra.Like(algebra.Col("s"), algebra.Col("m")), algebra.Not(algebra.Like(algebra.Col("s"), algebra.Const(str("a%")))))
	for _, e := range preds {
		p, err := vec.CompilePred(e, physical.Columns(sch))
		if err != nil {
			t.Fatalf("%s: did not compile: %v", e, err)
		}
		for _, lo := range []int{0, 2} {
			got, _, err := p.Eval(b, lo, b.Len())
			if err != nil {
				t.Fatalf("%s: eval: %v", e, err)
			}
			for i := lo; i < b.Len(); i++ {
				if want := refPred(e, rel.Tuples[i], sch); got[i-lo] != want {
					t.Errorf("%s row %d (window from %d): vec=%v ref=%v", e, i, lo, got[i-lo], want)
				}
			}
		}
	}
}

// TestEvalMakesNoRowList: an evaluation lists its window's rows as a
// window of the batch's one identity vector, not a list of its own: a
// comparison of a NULL-free int column allocates its context and its
// result, and nothing besides.
func TestEvalMakesNoRowList(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sch := storage.NewSchema("a")
	rel := storage.NewRelation(sch)
	for i := int64(0); i < 64; i++ {
		rel.Append([]types.Value{types.NewInt(i)})
	}
	b := storage.NewBatch(rel)
	p, err := vec.CompilePred(algebra.Cmp(types.GT, algebra.Col("a"), algebra.ConstInt(2)), physical.Columns(sch))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Eval(b, 8, 40); err != nil { // builds the column and the identity vector
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _, _ = p.Eval(b, 8, 40) }); n > 2 {
		t.Errorf("Pred.Eval allocates %v objects, want 2 (context and result)", n)
	}
	if w := b.Identity(8, 40); len(w) != 32 || cap(w) != 32 || w[0] != 8 || w[31] != 39 || &b.Identity(0, 64)[8] != &w[0] {
		t.Errorf("Identity(8, 40) = %v (cap %d), want a window 8 … 39 of one vector", w, cap(w))
	}
}

// TestCompareOnNullsBoxesNothing: a comparison of a column with a NULL
// reads the column's payloads and its null mask, as it does a NULL-free
// one, instead of boxing both operands: a > 2 over testRel (one NULL in
// a) makes no more objects than over a NULL-free int column, and a
// float column with NULLs, compared to a constant or to another column,
// none beyond those either.
func TestCompareOnNullsBoxesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(sch *storage.Schema, b *storage.Batch, e algebra.Expr) float64 {
		t.Helper()
		p, err := vec.CompilePred(e, physical.Columns(sch))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Eval(b, 0, b.Len()); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { _, _, _ = p.Eval(b, 0, b.Len()) })
	}
	gt2 := algebra.Cmp(types.GT, algebra.Col("a"), algebra.ConstInt(2))
	plain := storage.NewRelation(storage.NewSchema("a"))
	floats := storage.NewRelation(storage.NewSchema("a", "f", "g"))
	for i := int64(0); i < 5; i++ {
		plain.Append([]types.Value{types.NewInt(i)})
		f := types.NewFloat(float64(i) / 2)
		if i == 3 {
			f = types.Null()
		}
		floats.Append([]types.Value{types.NewInt(i), f, types.NewFloat(1)})
	}
	sch, b := testRel()
	want := allocs(plain.Schema, storage.NewBatch(plain), gt2)
	if got := allocs(sch, b, gt2); got > want {
		t.Errorf("a > 2 over a column with a NULL: %v objects, %v over a NULL-free one", got, want)
	}
	fb := storage.NewBatch(floats)
	for _, e := range []algebra.Expr{
		algebra.Cmp(types.GE, algebra.Col("f"), algebra.ConstInt(1)),
		algebra.Cmp(types.EQ, algebra.Col("f"), algebra.Col("g")),
		algebra.Cmp(types.LT, algebra.ConstInt(0), algebra.Col("f")),
	} {
		if got := allocs(floats.Schema, fb, e); got > want {
			t.Errorf("%s over a float column with a NULL: %v objects, want at most %v", e, got, want)
		}
	}
}

// TestEvalSelAgreesWithEval: a program evaluated over a frame of
// columns sliced to a window, on a selection of its rows, writes those
// rows' truth values as Eval does and charges as many comparisons, with
// one Scratch reused across windows of shrinking size.
func TestEvalSelAgreesWithEval(t *testing.T) {
	sch, b := testRel()
	exprs := []algebra.Expr{
		algebra.Or(algebra.Cmp(types.GT, algebra.Col("a"), algebra.ConstInt(2)), algebra.Cmp(types.EQ, algebra.Col("a"), algebra.Col("b"))),
		algebra.Cmp(types.LE, algebra.ConstInt(5), algebra.Col("b")),
		algebra.And(algebra.Cmp(types.NE, algebra.Col("s"), algebra.Const(types.NewString("x"))), algebra.Cmp(types.LT, algebra.Col("a"), algebra.Col("b"))),
	}
	var sc vec.Scratch
	for _, e := range exprs {
		p, err := vec.CompilePred(e, physical.Columns(sch))
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < b.Len(); lo++ {
			want, wcmps, err := p.Eval(b, lo, b.Len())
			if err != nil {
				t.Fatal(err)
			}
			f := make(vec.Frame, sch.Len())
			for i := range f {
				f[i] = b.Col(i).Slice(lo, b.Len())
			}
			var sel []int32
			for r := 0; r < b.Len()-lo; r += 2 {
				sel = append(sel, int32(r))
			}
			got := make([]types.TriBool, b.Len()-lo)
			cmps, err := p.EvalSel(&sc, f, sel, got)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range sel {
				if got[r] != want[r] {
					t.Errorf("%s row %d: EvalSel %v, Eval %v", e, lo+int(r), got[r], want[r])
				}
			}
			if lo == 0 && len(sel) == b.Len()-lo && cmps != wcmps {
				t.Errorf("%s: EvalSel charged %d comparisons, Eval %d", e, cmps, wcmps)
			}
		}
	}
}
