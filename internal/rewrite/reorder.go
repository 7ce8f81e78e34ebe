package rewrite

import (
	"sort"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/stats"
)

// Reorderer reorders AND/OR operands of selection predicates by rank
// without unnesting anything — the behavior of an optimizer that
// understands short-circuit evaluation but cannot decorrelate (the S3
// baseline): the cheap half of "subquery OR cheap" gets evaluated first,
// halving nested-loop work without changing its asymptotics.
type Reorderer struct {
	est *stats.Estimator
	// Applied counts how many predicates were reordered.
	Applied int
}

// NewReorderer returns a predicate reorderer over the catalog's
// statistics; cat may be the live catalog or a pinned snapshot.
func NewReorderer(cat catalog.Reader) *Reorderer {
	return &Reorderer{est: stats.New(cat)}
}

// Rewrite returns a plan whose selection predicates evaluate their
// operands in ascending rank order — bottom-up, subquery blocks
// included — and the plan itself where every predicate already does.
// Reordering commutative Kleene connectives preserves three-valued
// semantics.
func (ro *Reorderer) Rewrite(plan algebra.Op) (algebra.Op, error) {
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
			if pred := ro.reorderExpr(sel.Pred, sel.Child); pred != sel.Pred {
				out = algebra.NewSelect(sel.Child, pred)
			}
		}
		memo[op] = out
		return out, nil
	}
	return reorderOp(plan)
}

// reorderExpr returns the predicate with rank-ordered operands — the
// predicate itself when they already are.
func (ro *Reorderer) reorderExpr(e algebra.Expr, input algebra.Op) algebra.Expr {
	var parts []algebra.Expr
	join := algebra.Or
	switch e.(type) {
	case *algebra.OrExpr:
		parts = algebra.SplitDisjuncts(e)
	case *algebra.AndExpr:
		parts, join = algebra.SplitConjuncts(e), algebra.And
	default:
		return e
	}
	changed := false
	for i, p := range parts {
		parts[i] = ro.reorderExpr(p, input)
		changed = changed || parts[i] != p
	}
	if ro.sortByRank(parts, input) {
		ro.Applied++
		changed = true
	}
	if !changed {
		return e
	}
	return join(parts...)
}

// sortByRank stably sorts parts by rank and reports whether the order
// changed.
func (ro *Reorderer) sortByRank(parts []algebra.Expr, input algebra.Op) bool {
	ranks := make([]float64, len(parts))
	for i, p := range parts {
		ranks[i] = ro.est.Rank(p, input)
	}
	idx := make([]int, len(parts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ranks[idx[a]] < ranks[idx[b]] })
	changed := false
	sorted := make([]algebra.Expr, len(parts))
	for i, j := range idx {
		if i != j {
			changed = true
		}
		sorted[i] = parts[j]
	}
	copy(parts, sorted)
	return changed
}
