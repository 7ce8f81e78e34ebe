package stats

import (
	"math"

	"disqo/internal/algebra"
)

// PlanCost estimates the total work of evaluating a plan once, in
// abstract per-tuple units. Shared DAG nodes (bypass streams, reused
// subplans) are counted once — exactly the benefit DAG-structured plans
// provide. The paper points out that unnesting is not always a win and
// should be applied cost-based (§1); this estimate is what the CostBased
// strategy compares.
func (e *Estimator) PlanCost(plan algebra.Op) float64 {
	seen := map[algebra.Op]bool{}
	var rec func(op algebra.Op) float64
	rec = func(op algebra.Op) float64 {
		if seen[op] {
			return 0
		}
		seen[op] = true
		total := e.nodeCost(op)
		for _, in := range op.Inputs() {
			total += rec(in)
		}
		return total
	}
	return rec(plan)
}

// nodeCost is one operator's own work, excluding inputs.
func (e *Estimator) nodeCost(op algebra.Op) float64 {
	switch x := op.(type) {
	case *algebra.Scan:
		return e.Cardinality(x)
	case *algebra.Select:
		return e.Cardinality(x.Child) * e.PredCost(x.Pred)
	case *algebra.BypassSelect:
		return e.Cardinality(x.Child) * e.PredCost(x.Pred)
	case *algebra.Stream:
		return 0 // bypass selections are costed at the source
	case *algebra.Project, *algebra.Rename, *algebra.MapOp:
		base := e.Cardinality(op)
		if m, ok := op.(*algebra.MapOp); ok {
			return base * (1 + e.PredCost(m.Expr))
		}
		return base
	case *algebra.CrossProduct:
		return e.Cardinality(x.L) * e.Cardinality(x.R)
	case *algebra.Join:
		return e.joinCost(x.L, x.R, x.Pred)
	case *algebra.LeftOuterJoin:
		return e.joinCost(x.L, x.R, x.Pred)
	case *algebra.SemiJoin:
		return e.joinCost(x.L, x.R, x.Pred)
	case *algebra.AntiJoin:
		return e.joinCost(x.L, x.R, x.Pred)
	case *algebra.GroupBy:
		return e.Cardinality(x.Child) * float64(1+len(x.Aggs))
	case *algebra.BinaryGroup:
		l, r := e.Cardinality(x.L), e.Cardinality(x.R)
		lc, _, residual := algebra.EquiKeys(x.Pred, x.L.Schema(), x.R.Schema())
		hashable := len(lc) > 0 && len(residual) == 0
		switch {
		case x.Tag != "" && hashable:
			// Tagged Eqv. 5: the tagged tuples fold once; each outer
			// tuple then visits its matches among the untagged, at most
			// its matches in all of R.
			return l + r + l*r*e.Selectivity(x.Pred, x)
		case hashable:
			return l + r
		default:
			// Every pair is examined (for a tagged grouping every
			// untagged pair, bounded by all of them).
			return l * r * e.PredCost(x.Pred)
		}
	case *algebra.UnionDisjoint:
		return e.Cardinality(x)
	case *algebra.UnionAll:
		return e.Cardinality(x)
	case *algebra.Distinct:
		return 2 * e.Cardinality(x.Child)
	case *algebra.Sort:
		n := e.Cardinality(x.Child)
		if n < 2 {
			return n
		}
		return n * math.Log2(n)
	default:
		return e.Cardinality(op)
	}
}

// joinCost models hash join for equality-bearing predicates and nested
// loops otherwise.
func (e *Estimator) joinCost(l, r algebra.Op, pred algebra.Expr) float64 {
	lc, rc := e.Cardinality(l), e.Cardinality(r)
	if keys, _, _ := algebra.EquiKeys(pred, l.Schema(), r.Schema()); len(keys) > 0 {
		out := lc * rc * e.Selectivity(pred, nil)
		return lc + rc + out
	}
	return lc * rc * (e.PredCost(pred) + 1)
}
