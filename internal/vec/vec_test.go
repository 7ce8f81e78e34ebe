package vec_test

// Parity tests for the columnar predicate/scalar compiler: compiled
// programs must agree with per-row evaluation of the same expression —
// CompareValues, three-valued AND/OR/NOT, LIKE, IS NULL, arithmetic —
// including NULL propagation and the comparison-count accounting. The
// external test package avoids an import cycle (exec → physical → vec).

import (
	"slices"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/exec"
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
	case *algebra.CmpExpr, *algebra.AndExpr, *algebra.OrExpr, *algebra.NotExpr,
		*algebra.LikeExpr, *algebra.IsNullExpr:
		return refPred(e, row, sch).Value()
	default:
		return types.Null()
	}
}

// window is the frame of every column of b cut to rows [lo,hi).
func window(b *storage.Batch, lo, hi int) vec.Frame {
	f := make(vec.Frame, b.Relation().Schema.Len())
	for i := range f {
		f[i] = b.Col(i).Slice(lo, hi)
	}
	return f
}

// evalPred evaluates p over every row of b's rows [lo,hi).
func evalPred(t *testing.T, p *vec.Pred, b *storage.Batch, lo, hi int) ([]types.TriBool, int64) {
	t.Helper()
	var sc vec.Scratch
	res := make([]types.TriBool, hi-lo)
	cmps, err := p.EvalSel(&sc, window(b, lo, hi), sc.All(hi-lo), res)
	if err != nil {
		t.Fatalf("%s: eval: %v", p.Expr(), err)
	}
	return res, cmps
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
		got, _ := evalPred(t, p, b, 0, b.Len())
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
		var sc vec.Scratch
		got := make([]types.Value, b.Len())
		if _, err := s.EvalSel(&sc, window(b, 0, b.Len()), sc.All(b.Len()), got); err != nil {
			t.Fatalf("%s: eval: %v", e, err)
		}
		for i := 0; i < b.Len(); i++ {
			want := refScalar(e, rel.Tuples[i], sch)
			if !types.Identical(got[i], want) {
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
	if _, cmps := evalPred(t, p, b, 0, b.Len()); cmps != 12 {
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
	got, _ := evalPred(t, p, b, 1, 4)
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
			got, _ := evalPred(t, p, b, lo, b.Len())
			for i := lo; i < b.Len(); i++ {
				if want := refPred(e, rel.Tuples[i], sch); got[i-lo] != want {
					t.Errorf("%s row %d (window from %d): vec=%v ref=%v", e, i, lo, got[i-lo], want)
				}
			}
		}
	}
}

// TestWarmScratchAllocatesNothing: a Scratch that has evaluated a window
// evaluates the next, no longer than the first, with no allocation at all
// when the caller owns the result and the frame — predicates whose
// AND/OR take selection and truth buffers, boxed comparisons and LIKE
// that take value buffers, and scalars.
func TestWarmScratchAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sch := storage.NewSchema("a", "s")
	rel := storage.NewRelation(sch)
	for i := int64(0); i < 64; i++ {
		s := types.NewString("x")
		if i%3 == 0 {
			s = types.NewInt(i) // a column of mixed kinds: LIKE boxes it
		}
		rel.Append([]types.Value{types.NewInt(i), s})
	}
	b := storage.NewBatch(rel)
	col, konst := algebra.Col, algebra.ConstInt
	preds := []algebra.Expr{
		algebra.Cmp(types.GT, col("a"), konst(2)),
		algebra.Or(algebra.Cmp(types.LT, col("a"), konst(20)),
			algebra.And(algebra.Cmp(types.GT, algebra.Arith(types.Add, col("a"), konst(1)), konst(30)),
				algebra.Like(col("s"), algebra.Const(types.NewString("x%"))))),
	}
	scalars := []algebra.Expr{col("a"), algebra.Arith(types.Mul, col("a"), konst(2)), algebra.Cmp(types.EQ, col("a"), konst(7))}
	first, second := window(b, 8, 40), window(b, 40, 64)
	truth, values := make([]types.TriBool, 32), make([]types.Value, 32)
	var sc vec.Scratch
	for _, e := range preds {
		p, err := vec.CompilePred(e, physical.Columns(sch))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.EvalSel(&sc, first, sc.All(32), truth); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = p.EvalSel(&sc, second, sc.All(24), truth[:24]) }); n != 0 {
			t.Errorf("%s: a warm Scratch allocates %v objects per window, want 0", e, n)
		}
	}
	for _, e := range scalars {
		s, err := vec.CompileScalar(e, physical.Columns(sch))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.EvalSel(&sc, first, sc.All(32), values); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = s.EvalSel(&sc, second, sc.All(24), values[:24]) }); n != 0 {
			t.Errorf("%s: a warm Scratch allocates %v objects per window, want 0", e, n)
		}
	}
}

// TestCompareOnNullsBoxesNothing: a comparison of a column with a NULL
// reads the column's payloads and its null mask, as it does a NULL-free
// one, instead of boxing both operands into value buffers: with a fresh
// Scratch per evaluation, so that every buffer it takes is counted, a > 2
// over testRel (one NULL in a) makes no more objects than over a
// NULL-free int column, and a float column with NULLs, compared to a
// constant or to another column, none beyond those either.
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
		f, res, sel := window(b, 0, b.Len()), make([]types.TriBool, b.Len()), new(vec.Scratch).All(b.Len())
		return testing.AllocsPerRun(20, func() {
			var sc vec.Scratch
			if _, err := p.EvalSel(&sc, f, sel, res); err != nil {
				t.Fatal(err)
			}
		})
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

// TestEvalSelParity: a program evaluated over a frame of columns sliced
// to a window, on every row of it or a sparse selection, writes each
// selected row's value as the per-row reference computes it, leaves the
// other rows as they were, and charges the comparisons the row
// interpreter charges for the same rows — predicates and scalars, NULLs
// and arithmetic among them, with one Scratch reused across windows.
func TestEvalSelParity(t *testing.T) {
	sch, b := testRel()
	rel := b.Relation()
	col, konst := algebra.Col, algebra.ConstInt
	preds := append(parityPreds(),
		algebra.And(algebra.Cmp(types.NE, col("s"), algebra.Const(types.NewString("x"))), algebra.Cmp(types.LT, col("a"), col("b"))),
		algebra.Cmp(types.LE, konst(5), col("b")),
		algebra.IsNull(algebra.Arith(types.Mul, col("a"), col("b"))))
	scalars := []algebra.Expr{
		col("b"),
		konst(42),
		algebra.Arith(types.Mul, col("a"), col("b")),
		algebra.Arith(types.Sub, col("b"), konst(1)),
		algebra.Arith(types.Add, algebra.Arith(types.Div, col("b"), col("a")), col("a")),
		algebra.Cmp(types.GT, col("a"), col("b")),
		algebra.Or(algebra.IsNull(col("a")), algebra.Cmp(types.LT, col("b"), konst(8))),
	}
	// sels lists selections of a window of n rows: every row, the even
	// rows, the odd rows (none, in a window of one row), and the last row
	// alone.
	sels := func(sc *vec.Scratch, n int) [][]int32 {
		out := [][]int32{sc.All(n), nil, nil, {int32(n - 1)}}
		for r := range int32(n) {
			out[1+r%2] = append(out[1+r%2], r)
		}
		return out
	}
	ex := exec.New(catalog.New(), exec.Options{})
	// charged is what the row interpreter charges to evaluate e on the
	// window's rows sel, as a predicate or as a value.
	charged := func(e algebra.Expr, pred bool, lo int, sel []int32) int64 {
		t.Helper()
		bound, err := ex.BindExpr(e, sch)
		if err != nil {
			t.Fatal(err)
		}
		frame, before := exec.NewFrame(nil), ex.Stats().Comparisons
		for _, r := range sel {
			frame.Set(rel.Tuples[lo+int(r)])
			if pred {
				_, err = ex.EvalPred(bound, frame)
			} else {
				_, err = ex.EvalExpr(bound, frame)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return ex.Stats().Comparisons - before
	}
	const untouched = types.TriBool(3)
	unset := types.NewString("untouched")
	var sc vec.Scratch
	for _, e := range preds {
		p, err := vec.CompilePred(e, physical.Columns(sch))
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < b.Len(); lo++ { // windows of shrinking size
			n := b.Len() - lo
			for _, sel := range sels(&sc, n) {
				got := make([]types.TriBool, n)
				for r := range got {
					got[r] = untouched
				}
				cmps, err := p.EvalSel(&sc, window(b, lo, b.Len()), sel, got)
				if err != nil {
					t.Fatal(err)
				}
				for r := range int32(n) {
					want := untouched
					if slices.Contains(sel, r) {
						want = refPred(e, rel.Tuples[lo+int(r)], sch)
					}
					if got[r] != want {
						t.Errorf("%s row %d of the window from %d, selection %v: EvalSel %v, want %v", e, r, lo, sel, got[r], want)
					}
				}
				if want := charged(e, true, lo, sel); cmps != want {
					t.Errorf("%s, window from %d, selection %v: EvalSel charged %d comparisons, the interpreter %d", e, lo, sel, cmps, want)
				}
			}
		}
	}
	for _, e := range scalars {
		s, err := vec.CompileScalar(e, physical.Columns(sch))
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < b.Len(); lo++ {
			n := b.Len() - lo
			for _, sel := range sels(&sc, n) {
				got := make([]types.Value, n)
				for r := range got {
					got[r] = unset
				}
				cmps, err := s.EvalSel(&sc, window(b, lo, b.Len()), sel, got)
				if err != nil {
					t.Fatal(err)
				}
				for r := range int32(n) {
					want := unset
					if slices.Contains(sel, r) {
						want = refScalar(e, rel.Tuples[lo+int(r)], sch)
					}
					if !types.Identical(got[r], want) {
						t.Errorf("%s row %d of the window from %d, selection %v: EvalSel %v, want %v", e, r, lo, sel, got[r], want)
					}
				}
				if want := charged(e, false, lo, sel); cmps != want {
					t.Errorf("%s, window from %d, selection %v: EvalSel charged %d comparisons, the interpreter %d", e, lo, sel, cmps, want)
				}
			}
		}
	}
}
