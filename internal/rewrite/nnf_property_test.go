package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/exec"
	"disqo/internal/storage"
	"disqo/internal/translate"
	"disqo/internal/types"
)

// TestNNFPreservesThreeValuedSemantics generates random predicate trees
// over a small column set, evaluates both the original and its negation
// normal form against random tuples (including NULLs), and requires the
// Kleene truth values to agree exactly — not just on "is true". This is
// the soundness property every rewrite in the package leans on.
func TestNNFPreservesThreeValuedSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cols := []string{"x.a", "x.b", "x.c"}
	schema := storage.NewSchema(cols...)
	cat := catalog.New()
	ex := exec.New(cat, exec.Options{})

	var gen func(depth int) algebra.Expr
	gen = func(depth int) algebra.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			// Leaf: comparison between a column and a column/constant.
			l := algebra.Col(cols[rng.Intn(len(cols))])
			var r algebra.Expr
			if rng.Intn(2) == 0 {
				r = algebra.Col(cols[rng.Intn(len(cols))])
			} else {
				r = algebra.ConstInt(int64(rng.Intn(4)))
			}
			ops := []types.CompareOp{types.EQ, types.NE, types.LT, types.LE, types.GT, types.GE}
			leaf := algebra.Expr(algebra.Cmp(ops[rng.Intn(len(ops))], l, r))
			if rng.Intn(4) == 0 {
				leaf = algebra.IsNull(algebra.Col(cols[rng.Intn(len(cols))]))
			}
			return leaf
		}
		switch rng.Intn(3) {
		case 0:
			return algebra.And(gen(depth-1), gen(depth-1))
		case 1:
			return algebra.Or(gen(depth-1), gen(depth-1))
		default:
			return algebra.Not(gen(depth - 1))
		}
	}
	randVal := func() types.Value {
		if rng.Intn(4) == 0 {
			return types.Null()
		}
		return types.NewInt(int64(rng.Intn(4)))
	}

	for trial := 0; trial < 500; trial++ {
		pred := gen(4)
		nnf := normalizeNNF(pred)
		for tup := 0; tup < 8; tup++ {
			row := []types.Value{randVal(), randVal(), randVal()}
			env := exec.Bind(nil, schema, row)
			a, err := ex.EvalPred(pred, env)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ex.EvalPred(nnf, env)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("NNF changed semantics on %s:\noriginal: %s = %v\nnnf:      %s = %v\nrow: %v",
					types.FormatTuple(row), pred, a, nnf, b, row)
			}
		}
	}
}

// TestTwoValuedTranslationIsExact checks the lemma translate.TwoValued
// rests on. Random predicate trees — comparisons, LIKE, a boolean column
// read as a predicate and IS NULL under AND/OR/NOT, depth ≤ 4 — are
// evaluated over random rows drawn from {0, 1, NULL} by a reference
// two-valued evaluator written here: it lifts each leaf's truth value
// (UNKNOWN is FALSE) and combines them with Go booleans. EvalPred of the
// translated tree, in three-valued logic, must keep the same rows in a
// filter and produce the same truth value, never NULL, in a χ.
func TestTwoValuedTranslationIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	schema := storage.NewSchema("x.a", "x.c", "x.s", "x.b")
	scan := algebra.NewScan("x", "x", schema)
	ex := exec.New(catalog.New(), exec.Options{})
	ints := []string{"x.a", "x.c"}
	ops := []types.CompareOp{types.EQ, types.NE, types.LT, types.LE, types.GT, types.GE}

	var gen func(depth int) algebra.Expr
	gen = func(depth int) algebra.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(5) {
			case 0:
				return algebra.Cmp(ops[rng.Intn(len(ops))], algebra.Col(ints[rng.Intn(2)]), algebra.Col(ints[rng.Intn(2)]))
			case 1:
				return algebra.Cmp(ops[rng.Intn(len(ops))], algebra.Col(ints[rng.Intn(2)]), algebra.ConstInt(int64(rng.Intn(2))))
			case 2:
				return algebra.Like(algebra.Col("x.s"), algebra.Const(types.NewString([]string{"0%", "1"}[rng.Intn(2)])))
			case 3:
				return algebra.Col("x.b")
			default:
				return algebra.IsNull(algebra.Col(schema.Attr(rng.Intn(schema.Len()))))
			}
		}
		switch rng.Intn(3) {
		case 0:
			return algebra.And(gen(depth-1), gen(depth-1))
		case 1:
			return algebra.Or(gen(depth-1), gen(depth-1))
		default:
			return algebra.Not(gen(depth - 1))
		}
	}
	// twoValued is the reference: lifted leaves, classical connectives.
	var twoValued func(e algebra.Expr, env *exec.Env) bool
	twoValued = func(e algebra.Expr, env *exec.Env) bool {
		switch x := e.(type) {
		case *algebra.AndExpr:
			return twoValued(x.L, env) && twoValued(x.R, env)
		case *algebra.OrExpr:
			return twoValued(x.L, env) || twoValued(x.R, env)
		case *algebra.NotExpr:
			return !twoValued(x.E, env)
		}
		leaf, err := ex.EvalPred(e, env)
		if err != nil {
			t.Fatal(err)
		}
		return leaf == types.True
	}
	randRow := func() []types.Value {
		row := make([]types.Value, 4)
		for i := range row {
			if v := rng.Intn(3); v < 2 {
				row[i] = []types.Value{types.NewInt(int64(v)), types.NewInt(int64(v)),
					types.NewString(fmt.Sprint(v)), types.NewBool(v == 1)}[i]
			}
		}
		return row
	}

	for trial := 0; trial < 500; trial++ {
		pred := gen(4)
		filter, err := translate.TwoValued(algebra.NewSelect(scan, pred))
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := translate.TwoValued(algebra.NewMap(scan, "v", pred))
		if err != nil {
			t.Fatal(err)
		}
		again, err := translate.TwoValued(filter)
		if err != nil || again.Label() != filter.Label() {
			t.Fatalf("translating %s twice: %v, %v", filter.Label(), again, err)
		}
		inFilter, inValue := filter.(*algebra.Select).Pred, mapped.(*algebra.MapOp).Expr
		for tup := 0; tup < 8; tup++ {
			row := randRow()
			env := exec.Bind(nil, schema, row)
			want := twoValued(pred, env)
			got, err := ex.EvalPred(inFilter, env)
			if err != nil {
				t.Fatal(err)
			}
			if (got == types.True) != want {
				t.Fatalf("filter on %s: %s is %v, the two-valued %s is %v",
					types.FormatTuple(row), inFilter, got, pred, want)
			}
			if _, bare := pred.(*algebra.ColRef); bare {
				continue // a column in χ is a value, not a predicate
			}
			v, err := ex.EvalExpr(inValue, env)
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := v.BoolOk(); !ok || b != want {
				t.Fatalf("χ on %s: %s is %v, the two-valued %s is %v",
					types.FormatTuple(row), inValue, v, pred, want)
			}
		}
	}
}

// TestReorderPreservesThreeValuedSemantics does the same for the S3
// baseline's rank reordering: commuting AND/OR operands must not change
// Kleene truth values.
func TestReorderPreservesThreeValuedSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cols := []string{"x.a", "x.b"}
	schema := storage.NewSchema(cols...)
	cat := catalog.New()
	ex := exec.New(cat, exec.Options{})
	ro := NewReorderer(cat)

	leaf := func() algebra.Expr {
		return algebra.Cmp(types.CompareOp(rng.Intn(6)),
			algebra.Col(cols[rng.Intn(2)]), algebra.ConstInt(int64(rng.Intn(3))))
	}
	for trial := 0; trial < 200; trial++ {
		pred := algebra.Or(algebra.And(leaf(), leaf()), leaf(), algebra.And(leaf(), algebra.Or(leaf(), leaf())))
		reordered := ro.reorderExpr(pred, nil)
		for tup := 0; tup < 6; tup++ {
			row := []types.Value{types.NewInt(int64(rng.Intn(3))), types.Null()}
			if rng.Intn(2) == 0 {
				row[1] = types.NewInt(int64(rng.Intn(3)))
			}
			env := exec.Bind(nil, schema, row)
			a, _ := ex.EvalPred(pred, env)
			b, _ := ex.EvalPred(reordered, env)
			if a != b {
				t.Fatalf("reorder changed semantics:\n%s = %v\n%s = %v\nrow %v",
					pred, a, reordered, b, row)
			}
		}
	}
}
