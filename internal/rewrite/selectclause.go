package rewrite

import (
	"disqo/internal/algebra"
)

// Unnesting for subqueries in the SELECT clause — the technical report's
// "straightforward generalization": a map operator χ_{a:…f(subplan)…}
// over R is rewritten by extending R exactly as the WHERE-clause
// machinery would (Γ + outerjoin for conjunctive correlation, Eqv. 5's
// tagged Γ² for disjunctive correlation) and substituting the
// synthesized aggregate attribute for the subquery inside the map
// expression. Unlike the selection case, every outer tuple needs the
// value, so no bypass cascade applies. Eqv. 5's tag map χ_{tag:p} goes
// through the same path, which is how p's own subqueries unnest against
// the inner block.

// replaceExpr rebuilds an expression with one node (matched by pointer
// identity) substituted; subquery plans are not searched.
func replaceExpr(e algebra.Expr, old, repl algebra.Expr) algebra.Expr {
	if e == old {
		return repl
	}
	return mapOperands(e, func(c algebra.Expr) algebra.Expr { return replaceExpr(c, old, repl) })
}

// unnestMap removes correlated scalar subqueries from a map operator's
// expression. Subqueries it cannot handle stay nested (and still evaluate
// correctly through the environment chain).
func (rw *Rewriter) unnestMap(m *algebra.MapOp) (algebra.Op, bool, error) {
	cur := m.Child
	expr := m.Expr
	changed := false
	for _, sq := range algebra.SubqueryExprs(m.Expr) {
		sub, scalar := sq.(*algebra.ScalarSubquery)
		if !scalar {
			continue
		}
		gExpr, cur2, ok, err := rw.unnestScalar(sub, cur)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		expr = replaceExpr(expr, sub, gExpr)
		cur = cur2
		changed = true
		rw.trace("subquery unnested into χ[" + m.Attr + "]")
	}
	if !changed {
		return m, false, nil
	}
	out := algebra.Op(algebra.NewMap(cur, m.Attr, expr))
	if !out.Schema().Equal(m.Schema()) {
		out = algebra.ProjectOnto(out, m.Schema())
	}
	return out, true, nil
}
