package stats

import "disqo/internal/algebra"

// Order returns pred with the operand list of every AND and OR in it —
// looking through NOT and IS TRUE — in the order that minimizes its
// expected short-circuit cost, and pred itself when every list already
// is in that order. input is the operator producing the rows pred is
// evaluated on; it grounds the selectivities and may be nil.
//
// Operands evaluated in order, each only over the rows the earlier ones
// left undecided, cost c₁ + u₁·c₂ + u₁·u₂·c₃ + …, where uᵢ is the share
// operand i leaves undecided: its selectivity sᵢ in a conjunction, 1 − sᵢ
// in a disjunction. Exchanging two neighbours shows the sum is least
// when operands run in descending decided-share per unit of cost:
// (1 − s)/c for AND, s/c for OR. A bypass chain is an OR whose negative
// stream carries the undecided rows on, so Eqv. 2 versus Eqv. 3 is this
// rule too: the paper's rank (s − 1)/c, applied to ¬p.
func (e *Estimator) Order(pred algebra.Expr, input algebra.Op) algebra.Expr {
	switch x := pred.(type) {
	case *algebra.AndExpr:
		return e.orderList(pred, algebra.SplitConjuncts(x), input, false)
	case *algebra.OrExpr:
		return e.orderList(pred, algebra.SplitDisjuncts(x), input, true)
	case *algebra.NotExpr:
		if in := e.Order(x.E, input); in != x.E {
			return algebra.Not(in)
		}
	case *algebra.IsTrueExpr:
		if in := e.Order(x.E, input); in != x.E {
			return algebra.IsTrue(in)
		}
	}
	return pred
}

// OrderDisjuncts orders one list of disjuncts in place, as Order orders
// an OR's, without looking inside them: the bypass cascade's
// σ±-chain over input.
func (e *Estimator) OrderDisjuncts(parts []algebra.Expr, input algebra.Op) {
	e.sortParts(parts, input, true)
}

// orderList is Order over pred's flattened operand list parts.
func (e *Estimator) orderList(pred algebra.Expr, parts []algebra.Expr, input algebra.Op, or bool) algebra.Expr {
	changed := false
	for i, p := range parts {
		parts[i] = e.Order(p, input)
		changed = changed || parts[i] != p
	}
	if !e.sortParts(parts, input, or) && !changed {
		return pred
	}
	if or {
		return algebra.Or(parts...)
	}
	return algebra.And(parts...)
}

// sortParts stably sorts the operands of an AND (or of an OR) by their
// decided share per unit of cost and reports whether any moved.
func (e *Estimator) sortParts(parts []algebra.Expr, input algebra.Op, or bool) bool {
	var buf [8]float64
	keys := buf[:0]
	for _, p := range parts {
		keys = append(keys, decidedPerCost(e.Selectivity(p, input), e.PredCost(p), or))
	}
	return sortByKey(parts, keys)
}

// decidedPerCost is the share of rows an operand of selectivity s and
// per-row cost c decides per unit of cost: the rows it rejects in a
// conjunction, those it accepts in a disjunction.
func decidedPerCost(s, c float64, or bool) float64 {
	if or {
		return s / c
	}
	return (1 - s) / c
}

// sortByKey stably sorts parts descending by keys, permuting keys
// alongside, and reports whether any part moved. Operand lists are
// short, so it is an insertion sort.
func sortByKey(parts []algebra.Expr, keys []float64) bool {
	moved := false
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && keys[j] > keys[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
			keys[j], keys[j-1] = keys[j-1], keys[j]
			moved = true
		}
	}
	return moved
}
