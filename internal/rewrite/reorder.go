package rewrite

import (
	"disqo/internal/algebra"
	"disqo/internal/stats"
)

// Reorder orders the AND/OR operands of every selection predicate by
// est.Order without unnesting anything — the behavior of an optimizer
// that understands short-circuit evaluation but cannot decorrelate (the
// S3 baseline): the cheap half of "subquery OR cheap" gets evaluated
// first, halving nested-loop work without changing its asymptotics. It
// works bottom-up, subquery blocks included, and returns the plan with
// the number of predicates it reordered: the plan itself when that is
// none. Reordering commutative Kleene connectives preserves
// three-valued semantics.
func Reorder(plan algebra.Op, est *stats.Estimator) (algebra.Op, int, error) {
	n := 0
	memo := map[algebra.Op]algebra.Op{}
	var reorderOp func(algebra.Op) (algebra.Op, error)
	var inBlocks func(algebra.Expr) (algebra.Expr, error)
	inBlocks = func(e algebra.Expr) (algebra.Expr, error) {
		return algebra.MapExprChildren(e, inBlocks, reorderOp)
	}
	reorderOp = func(op algebra.Op) (algebra.Op, error) {
		if out, ok := memo[op]; ok {
			return out, nil
		}
		out, err := algebra.MapChildren(op, reorderOp, inBlocks)
		if err != nil {
			return nil, err
		}
		if sel, ok := out.(*algebra.Select); ok {
			if pred := est.Order(sel.Pred, sel.Child); pred != sel.Pred {
				out = algebra.NewSelect(sel.Child, pred)
				n++
			}
		}
		memo[op] = out
		return out, nil
	}
	out, err := reorderOp(plan)
	return out, n, err
}
