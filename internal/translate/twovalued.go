package translate

import (
	"disqo/internal/algebra"
	"disqo/internal/types"
)

// TwoValued rewrites a plan, nested blocks included, so that evaluated
// in SQL's three-valued logic it answers as the plan does in two-valued
// logic ("Handling SQL Nulls with Two-Valued Logic", arXiv 2012.13198):
// a predicate leaf over NULL — a comparison, LIKE, a value read as a
// truth value, a membership — is FALSE rather than UNKNOWN, and AND, OR
// and NOT are classical. Below it there is one logic.
//
// A filter (σ, HAVING, a join's or Γ²'s predicate) keeps the TRUE rows,
// and a negation-free formula is TRUE exactly when its two-valued lift
// is. So AND and OR keep the polarity and NOT flips it. A leaf under an
// even number of NOTs stays as it is, which keeps hash keys and Eqv. 1–5
// matching on the three-valued plan; one under an odd number becomes
// IsTrue(leaf) or, for a quantifier, the EXISTS form the rewriter
// already unnests:
//
//	x IN S     ⇒ EXISTS σ_{x=y}(S)      (NOT IN is NOT over IN)
//	x θ ANY S  ⇒ EXISTS σ_{x θ y}(S)
//	x θ ALL S  ⇒ NOT EXISTS σ_{NOT ((x θ y) IS TRUE)}(S)
//
// In a value position (χ, an aggregate's argument, an operand) the truth
// value itself is seen, so every leaf there is wrapped.
func TwoValued(plan algebra.Op) (algebra.Op, error) { return twoValued{}.op(plan) }

// twoValued memoizes translated operators: shared subplans stay shared.
type twoValued map[algebra.Op]algebra.Op

// polarity is where a predicate sits in a filter, under an even or an
// odd number of NOTs, or in a value position, where both sides count.
type polarity int8

const negative, exact, positive polarity = -1, 0, 1

func (t twoValued) op(op algebra.Op) (algebra.Op, error) {
	if out, ok := t[op]; ok {
		return out, nil
	}
	out, err := algebra.MapChildren(op, t.op, func(e algebra.Expr) (algebra.Expr, error) {
		switch x := op.(type) {
		case *algebra.MapOp, *algebra.GroupBy:
			return t.value(e)
		case *algebra.BinaryGroup:
			if e != x.Pred {
				return t.value(e) // an aggregate's argument
			}
		}
		return t.pred(e, positive)
	})
	t[op] = out
	return out, err
}

// value translates an expression evaluated for its value.
func (t twoValued) value(e algebra.Expr) (algebra.Expr, error) {
	switch e.(type) {
	case *algebra.ColRef, *algebra.ConstExpr, *algebra.ArithExpr, *algebra.ScalarSubquery:
		return algebra.MapExprChildren(e, t.value, t.op)
	}
	return t.pred(e, exact)
}

// pred translates a predicate in polarity pol.
func (t twoValued) pred(e algebra.Expr, pol polarity) (algebra.Expr, error) {
	switch e.(type) {
	case *algebra.AndExpr, *algebra.OrExpr:
	case *algebra.NotExpr:
		pol = -pol
	case *algebra.IsTrueExpr:
		pol = positive // it asks only whether its operand is TRUE
	default:
		leaf, err := algebra.MapExprChildren(e, t.value, t.op)
		if err != nil {
			return nil, err
		}
		return lift(leaf, pol), nil
	}
	return algebra.MapExprChildren(e, func(c algebra.Expr) (algebra.Expr, error) { return t.pred(c, pol) }, nil)
}

// lift returns a leaf, its operands translated, whose truth value where
// pol looks — TRUE, FALSE, or both — is the leaf's two-valued one.
func lift(leaf algebra.Expr, pol polarity) algebra.Expr {
	switch x := leaf.(type) {
	case *algebra.IsNullExpr:
		return leaf
	case *algebra.QuantSubquery:
		switch {
		case x.Quant == algebra.NotIn: // NOT IN is NOT over IN
			return algebra.Not(lift(algebra.Quant(algebra.In, x.L, x.Plan), -pol))
		case x.Quant == algebra.Exists || x.Quant == algebra.NotExists || pol == positive:
			return leaf
		case pol == negative && x.Plan.Schema().Len() == 1:
			return algebra.Quant(algebra.Exists, nil, algebra.NewSelect(x.Plan, member(types.EQ, x.L, x.Plan)))
		}
	case *algebra.AllAnyExpr:
		if pol == negative && x.Plan.Schema().Len() == 1 {
			m := member(x.Op, x.L, x.Plan)
			if x.All {
				return algebra.Quant(algebra.NotExists, nil, algebra.NewSelect(x.Plan, algebra.Not(algebra.IsTrue(m))))
			}
			return algebra.Quant(algebra.Exists, nil, algebra.NewSelect(x.Plan, m))
		}
	}
	if pol == positive {
		return leaf
	}
	return algebra.IsTrue(leaf)
}

// member compares x with the one column of a quantifier's block.
func member(op types.CompareOp, x algebra.Expr, block algebra.Op) algebra.Expr {
	return algebra.Cmp(op, x, algebra.Col(block.Schema().Attr(0)))
}
