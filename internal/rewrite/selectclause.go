package rewrite

import (
	"disqo/internal/algebra"
)

// Unnesting for subqueries in the SELECT clause — the technical report's
// "straightforward generalization": a map operator χ_{a:…f(subplan)…}
// over R is rewritten by extending R exactly as the WHERE-clause
// machinery would (Γ + outerjoin for conjunctive correlation, Eqv. 4/5
// structures for disjunctive correlation) and substituting the
// synthesized aggregate attribute for the subquery inside the map
// expression. Unlike the selection case, every outer tuple needs the
// value, so no bypass cascade applies. Eqv. 5's tag map χ_{tag:p} goes
// through the same path, which is how p's own subqueries unnest against
// the inner block.

// collectScalarSubqueries gathers the scalar subqueries appearing
// directly in an expression (not inside nested subplans).
func collectScalarSubqueries(e algebra.Expr, into []*algebra.ScalarSubquery) []*algebra.ScalarSubquery {
	switch x := e.(type) {
	case *algebra.ScalarSubquery:
		return append(into, x)
	case *algebra.CmpExpr:
		return collectScalarSubqueries(x.R, collectScalarSubqueries(x.L, into))
	case *algebra.AndExpr:
		return collectScalarSubqueries(x.R, collectScalarSubqueries(x.L, into))
	case *algebra.OrExpr:
		return collectScalarSubqueries(x.R, collectScalarSubqueries(x.L, into))
	case *algebra.NotExpr:
		return collectScalarSubqueries(x.E, into)
	case *algebra.ArithExpr:
		return collectScalarSubqueries(x.R, collectScalarSubqueries(x.L, into))
	case *algebra.LikeExpr:
		return collectScalarSubqueries(x.Pattern, collectScalarSubqueries(x.L, into))
	case *algebra.IsNullExpr:
		return collectScalarSubqueries(x.E, into)
	case *algebra.AggCombineExpr:
		return collectScalarSubqueries(x.R, collectScalarSubqueries(x.L, into))
	default:
		return into
	}
}

// replaceExpr rebuilds an expression with one node (matched by pointer
// identity) substituted.
func replaceExpr(e algebra.Expr, old, repl algebra.Expr) algebra.Expr {
	if e == old {
		return repl
	}
	switch x := e.(type) {
	case *algebra.CmpExpr:
		return algebra.Cmp(x.Op, replaceExpr(x.L, old, repl), replaceExpr(x.R, old, repl))
	case *algebra.AndExpr:
		return algebra.And(replaceExpr(x.L, old, repl), replaceExpr(x.R, old, repl))
	case *algebra.OrExpr:
		return algebra.Or(replaceExpr(x.L, old, repl), replaceExpr(x.R, old, repl))
	case *algebra.NotExpr:
		return algebra.Not(replaceExpr(x.E, old, repl))
	case *algebra.ArithExpr:
		return algebra.Arith(x.Op, replaceExpr(x.L, old, repl), replaceExpr(x.R, old, repl))
	case *algebra.LikeExpr:
		return algebra.Like(replaceExpr(x.L, old, repl), replaceExpr(x.Pattern, old, repl))
	case *algebra.IsNullExpr:
		return algebra.IsNull(replaceExpr(x.E, old, repl))
	case *algebra.AggCombineExpr:
		return algebra.AggCombine(x.Kind, replaceExpr(x.L, old, repl), replaceExpr(x.R, old, repl))
	default:
		return e
	}
}

// unnestMap removes correlated scalar subqueries from a map operator's
// expression. Subqueries it cannot handle stay nested (and still evaluate
// correctly through the environment chain).
func (rw *Rewriter) unnestMap(m *algebra.MapOp) (algebra.Op, bool, error) {
	subs := collectScalarSubqueries(m.Expr, nil)
	if len(subs) == 0 {
		return m, false, nil
	}
	cur := m.Child
	expr := m.Expr
	changed := false
	for _, sub := range subs {
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
		rw.trace("subquery unnested into χ[%s]", m.Attr)
	}
	if !changed {
		return m, false, nil
	}
	out := algebra.Op(algebra.NewMap(cur, m.Attr, expr))
	if !out.Schema().Equal(m.Schema()) {
		out = algebra.NewProject(out, m.Schema().Attrs())
	}
	return out, true, nil
}
