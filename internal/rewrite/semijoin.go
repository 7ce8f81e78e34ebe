package rewrite

import (
	"disqo/internal/algebra"
	"disqo/internal/types"
)

// unnestQuantConjunct translates a *conjunctive* correlated quantified
// predicate directly into a semi- or anti-join — cheaper than the
// count-based conversion because no aggregate is materialized:
//
//	EXISTS q        ⇒ cur ⋉_corr inner
//	NOT EXISTS q    ⇒ cur ▷_corr inner
//	x IN q(y)       ⇒ cur ⋉_{y=x ∧ corr} inner
//
// NOT IN keeps the count-based form: its NULL semantics (any NULL in q
// poisons the predicate) do not map onto an antijoin. Disjunctive
// occurrences are also out of scope here — they go through the count
// conversion and the bypass cascade. Returns ok=false when the shape is
// unsupported; the caller then falls back to quantToCount.
func (rw *Rewriter) unnestQuantConjunct(q *algebra.QuantSubquery, cur algebra.Op) (algebra.Op, bool, error) {
	if q.Quant == algebra.NotIn {
		return cur, false, nil
	}
	var inCol string
	if q.Quant == algebra.In {
		if q.Plan.Schema().Len() != 1 {
			return cur, false, nil
		}
		inCol = q.Plan.Schema().Attr(0)
		if algebra.HasSubquery(q.L) {
			return cur, false, nil
		}
	}
	// Direct correlation only.
	for _, col := range q.Free() {
		if !cur.Schema().Has(col) {
			return cur, false, nil
		}
	}

	// Collapse top-level Select/Project layers (EXISTS is insensitive to
	// both projection and duplicates; IN's probe column survives peeling
	// because projection only narrows).
	plan := q.Plan
	var conjs []algebra.Expr
peel:
	for {
		switch p := plan.(type) {
		case *algebra.Project:
			plan = p.Child
		case *algebra.Select:
			conjs = append(conjs, algebra.SplitConjuncts(p.Pred)...)
			plan = p.Child
		default:
			break peel
		}
	}
	inner := plan
	innerSchema := inner.Schema()

	var corr, local []algebra.Expr
	for _, c := range conjs {
		if algebra.HasSubquery(c) {
			if hasFreeCols(c, innerSchema) {
				return cur, false, nil // nested subquery in the correlation: unsupported
			}
			local = append(local, c)
			continue
		}
		if hasFreeCols(c, innerSchema) {
			corr = append(corr, c)
		} else {
			local = append(local, c)
		}
	}
	if q.Quant == algebra.In {
		corr = append(corr, algebra.Cmp(types.EQ, algebra.Col(inCol), q.L))
	}
	if len(corr) == 0 {
		// Uncorrelated EXISTS is type N: the executor materializes it
		// once; nothing to gain from a join.
		return cur, false, nil
	}
	if len(local) > 0 {
		inner = algebra.NewSelect(inner, algebra.And(local...))
	}
	pred := algebra.And(corr...)
	switch q.Quant {
	case algebra.Exists, algebra.In:
		rw.trace("quantified: %s → semijoin ⋉[%s]", q.Quant, pred)
		return algebra.NewSemiJoin(cur, inner, pred), true, nil
	default: // NotExists
		rw.trace("quantified: NOT EXISTS → antijoin ▷[%s]", pred)
		return algebra.NewAntiJoin(cur, inner, pred), true, nil
	}
}
