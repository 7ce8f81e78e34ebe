// Package rewrite implements the paper's unnesting strategy: it removes
// nested scalar subqueries from canonical plans by applying the five
// algebraic equivalences of §3 —
//
//	Eqv. 1  conjunctive linking (group + outerjoin, count-bug defaults)
//	Eqv. 2  disjunctive linking, cheap predicate bypassed first
//	Eqv. 3  disjunctive linking, unnested subquery bypassed first
//	Eqv. 4  disjunctive correlation, decomposable aggregate (fI/fO split)
//	Eqv. 5  disjunctive correlation, general case (tagged binary
//	        grouping: χ_{tag:p} on the inner block under Γ²_{corr ∨ tag})
//
// — choosing between 2 and 3 by predicate rank, recursing for linear and
// tree nesting structures, and translating the technical report's
// quantified subqueries (EXISTS/NOT EXISTS/IN/NOT IN) into count-based
// linking predicates so the same machinery covers them.
package rewrite

import (
	"fmt"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/stats"
	"disqo/internal/types"
)

// Caps selects which rewrites a Rewriter may apply; baselines model
// weaker optimizers by disabling capabilities.
type Caps struct {
	// Conjunctive enables Eqv. 1 (and its binary-grouping generalization
	// for non-equality correlation).
	Conjunctive bool
	// Bypass enables the Eqv. 2/3 bypass cascades for disjunctive
	// linking.
	Bypass bool
	// DisjunctiveCorrelation enables Eqv. 4 and Eqv. 5.
	DisjunctiveCorrelation bool
	// Quantified enables the EXISTS/IN → COUNT conversions (technical
	// report extension).
	Quantified bool
	// SemiJoins translates *conjunctive* correlated EXISTS / NOT EXISTS /
	// IN predicates directly into semi-/anti-joins instead of the
	// count-based form (disjunctive occurrences always go through the
	// count conversion, which composes with the bypass cascade).
	SemiJoins bool
	// ORExpansion replaces a disjunctive selection by a union of
	// conjunctive branches (duplicate-eliminating); the strategy the S2
	// baseline models. Sound only under a later Distinct, so it is
	// applied only when the plan has one.
	ORExpansion bool
	// PreferEqv5 forces Equivalence 5 even where Equivalence 4's
	// preconditions hold — an ablation knob quantifying what
	// decomposability buys.
	PreferEqv5 bool
}

// AllCaps enables the full unnesting strategy of the paper.
func AllCaps() Caps {
	return Caps{Conjunctive: true, Bypass: true, DisjunctiveCorrelation: true,
		Quantified: true, SemiJoins: true}
}

// Rewriter rewrites plans. Create one per statement (fresh-name counter).
type Rewriter struct {
	est  *stats.Estimator
	caps Caps
	ctr  int
	memo map[algebra.Op]algebra.Op
	// nulls is the logic the rewritten plan will execute under. Most
	// equivalences are mode-independent, but NNF negation of
	// comparisons/quantified comparisons and the NOT IN count form are
	// sound only in the logic they were derived in, so the rewriter
	// must know which one applies (see negate and quantToCount).
	nulls types.NullMode
	// reorder, when set, turns the rewriter into a pure predicate
	// reorderer (see Reorderer) instead of an unnester.
	reorder *Reorderer
	// Trace records the equivalences applied, in order — used by tests
	// and surfaced by EXPLAIN.
	Trace []string
}

// New returns a Rewriter using catalog statistics for its cost-based
// decisions; cat may be the live catalog or a pinned snapshot.
func New(cat catalog.Reader, caps Caps) *Rewriter {
	return &Rewriter{est: stats.New(cat), caps: caps, memo: make(map[algebra.Op]algebra.Op)}
}

// WithNulls sets the null mode the rewritten plan targets and returns
// the rewriter for chaining.
func (rw *Rewriter) WithNulls(m types.NullMode) *Rewriter {
	rw.nulls = m
	return rw
}

// fresh generates a plan-unique synthetic attribute name not colliding
// with the schema of the given operator.
func (rw *Rewriter) fresh(base string, near algebra.Op) string {
	for {
		rw.ctr++
		name := fmt.Sprintf("%s%d", base, rw.ctr)
		if near == nil || !near.Schema().Has(name) {
			return name
		}
	}
}

func (rw *Rewriter) trace(format string, args ...any) {
	rw.Trace = append(rw.Trace, fmt.Sprintf(format, args...))
}

// Rewrite unnests a plan. The input plan is not mutated; shared DAG
// structure in the input remains shared in the output.
func (rw *Rewriter) Rewrite(plan algebra.Op) (algebra.Op, error) {
	return rw.rewriteOp(plan)
}

func (rw *Rewriter) rewriteOp(op algebra.Op) (algebra.Op, error) {
	if out, ok := rw.memo[op]; ok {
		return out, nil
	}
	out, err := rw.rewriteOpRaw(op)
	if err != nil {
		return nil, err
	}
	rw.memo[op] = out
	return out, nil
}

func (rw *Rewriter) rewriteOpRaw(op algebra.Op) (algebra.Op, error) {
	if sel, ok := op.(*algebra.Select); ok {
		if rw.reorder != nil {
			child, err := rw.rewriteOp(sel.Child)
			if err != nil {
				return nil, err
			}
			pred, err := rw.rewriteExpr(sel.Pred)
			if err != nil {
				return nil, err
			}
			return algebra.NewSelect(child, rw.reorder.reorderExpr(pred, child)), nil
		}
		newOp, changed, err := rw.unnestSelect(sel)
		if err != nil {
			return nil, err
		}
		if changed {
			// The rewritten structure may contain further unnestable
			// selections (linear/tree queries); recurse into it. The
			// recursion terminates because every successful application
			// removes at least one subquery from a selection predicate.
			return rw.rewriteChildren(newOp)
		}
	}
	if m, ok := op.(*algebra.MapOp); ok && rw.reorder == nil && rw.caps.Conjunctive {
		newOp, changed, err := rw.unnestMap(m)
		if err != nil {
			return nil, err
		}
		if changed {
			return rw.rewriteChildren(newOp)
		}
	}
	return rw.rewriteChildren(op)
}

// rewriteChildren rebuilds an operator with rewritten inputs and
// rewritten subquery plans inside its expressions.
func (rw *Rewriter) rewriteChildren(op algebra.Op) (algebra.Op, error) {
	switch x := op.(type) {
	case *algebra.Scan:
		return x, nil
	case *algebra.Select:
		child, err := rw.rewriteOp(x.Child)
		if err != nil {
			return nil, err
		}
		pred, err := rw.rewriteExpr(x.Pred)
		if err != nil {
			return nil, err
		}
		return algebra.NewSelect(child, pred), nil
	case *algebra.BypassSelect:
		child, err := rw.rewriteOp(x.Child)
		if err != nil {
			return nil, err
		}
		pred, err := rw.rewriteExpr(x.Pred)
		if err != nil {
			return nil, err
		}
		return algebra.NewBypassSelect(child, pred), nil
	case *algebra.Stream:
		src, err := rw.rewriteOp(x.Source)
		if err != nil {
			return nil, err
		}
		return &algebra.Stream{Source: src, Positive: x.Positive}, nil
	case *algebra.Project:
		child, err := rw.rewriteOp(x.Child)
		if err != nil {
			return nil, err
		}
		return algebra.NewProject(child, x.Attrs), nil
	case *algebra.Rename:
		child, err := rw.rewriteOp(x.Child)
		if err != nil {
			return nil, err
		}
		return algebra.NewRename(child, x.Pairs)
	case *algebra.MapOp:
		child, err := rw.rewriteOp(x.Child)
		if err != nil {
			return nil, err
		}
		e, err := rw.rewriteExpr(x.Expr)
		if err != nil {
			return nil, err
		}
		return algebra.NewMap(child, x.Attr, e), nil
	case *algebra.CrossProduct:
		l, r, err := rw.rewritePair(x.L, x.R)
		if err != nil {
			return nil, err
		}
		return algebra.NewCross(l, r), nil
	case *algebra.Join:
		l, r, err := rw.rewritePair(x.L, x.R)
		if err != nil {
			return nil, err
		}
		pred, err := rw.rewriteExpr(x.Pred)
		if err != nil {
			return nil, err
		}
		return algebra.NewJoin(l, r, pred), nil
	case *algebra.LeftOuterJoin:
		l, r, err := rw.rewritePair(x.L, x.R)
		if err != nil {
			return nil, err
		}
		pred, err := rw.rewriteExpr(x.Pred)
		if err != nil {
			return nil, err
		}
		return algebra.NewLeftOuterJoin(l, r, pred, x.Defaults), nil
	case *algebra.SemiJoin:
		l, r, err := rw.rewritePair(x.L, x.R)
		if err != nil {
			return nil, err
		}
		pred, err := rw.rewriteExpr(x.Pred)
		if err != nil {
			return nil, err
		}
		return algebra.NewSemiJoin(l, r, pred), nil
	case *algebra.AntiJoin:
		l, r, err := rw.rewritePair(x.L, x.R)
		if err != nil {
			return nil, err
		}
		pred, err := rw.rewriteExpr(x.Pred)
		if err != nil {
			return nil, err
		}
		return algebra.NewAntiJoin(l, r, pred), nil
	case *algebra.GroupBy:
		child, err := rw.rewriteOp(x.Child)
		if err != nil {
			return nil, err
		}
		aggs, err := rw.rewriteAggs(x.Aggs)
		if err != nil {
			return nil, err
		}
		return algebra.NewGroupBy(child, x.Attrs, aggs, x.Global), nil
	case *algebra.BinaryGroup:
		l, r, err := rw.rewritePair(x.L, x.R)
		if err != nil {
			return nil, err
		}
		pred, err := rw.rewriteExpr(x.Pred)
		if err != nil {
			return nil, err
		}
		aggs, err := rw.rewriteAggs(x.Aggs)
		if err != nil {
			return nil, err
		}
		bg := algebra.NewBinaryGroup(l, r, pred, aggs)
		bg.Tag = x.Tag
		return bg, nil
	case *algebra.UnionDisjoint:
		l, r, err := rw.rewritePair(x.L, x.R)
		if err != nil {
			return nil, err
		}
		return algebra.NewUnionDisjoint(l, r), nil
	case *algebra.UnionAll:
		l, r, err := rw.rewritePair(x.L, x.R)
		if err != nil {
			return nil, err
		}
		return algebra.NewUnionAll(l, r), nil
	case *algebra.Distinct:
		child, err := rw.rewriteOp(x.Child)
		if err != nil {
			return nil, err
		}
		return algebra.NewDistinct(child), nil
	case *algebra.Sort:
		child, err := rw.rewriteOp(x.Child)
		if err != nil {
			return nil, err
		}
		return algebra.NewSort(child, x.Keys), nil
	case *algebra.Limit:
		child, err := rw.rewriteOp(x.Child)
		if err != nil {
			return nil, err
		}
		return algebra.NewLimit(child, x.N), nil
	default:
		return nil, fmt.Errorf("rewrite: unknown operator %T", op)
	}
}

func (rw *Rewriter) rewritePair(l, r algebra.Op) (algebra.Op, algebra.Op, error) {
	nl, err := rw.rewriteOp(l)
	if err != nil {
		return nil, nil, err
	}
	nr, err := rw.rewriteOp(r)
	if err != nil {
		return nil, nil, err
	}
	return nl, nr, nil
}

func (rw *Rewriter) rewriteAggs(items []algebra.AggItem) ([]algebra.AggItem, error) {
	out := make([]algebra.AggItem, len(items))
	for i, it := range items {
		arg, err := rw.rewriteExpr(it.Arg)
		if err != nil {
			return nil, err
		}
		out[i] = algebra.AggItem{Out: it.Out, Spec: it.Spec, Arg: arg, ArgAttrs: it.ArgAttrs}
	}
	return out, nil
}

// rewriteExpr rebuilds an expression, rewriting the plans of any
// remaining embedded subqueries (so deeper blocks get unnested even when
// the enclosing block could not be).
func (rw *Rewriter) rewriteExpr(e algebra.Expr) (algebra.Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *algebra.ColRef, *algebra.ConstExpr:
		return e, nil
	case *algebra.CmpExpr:
		l, err := rw.rewriteExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewriteExpr(x.R)
		if err != nil {
			return nil, err
		}
		return algebra.Cmp(x.Op, l, r), nil
	case *algebra.AndExpr:
		l, err := rw.rewriteExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewriteExpr(x.R)
		if err != nil {
			return nil, err
		}
		return algebra.And(l, r), nil
	case *algebra.OrExpr:
		l, err := rw.rewriteExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewriteExpr(x.R)
		if err != nil {
			return nil, err
		}
		return algebra.Or(l, r), nil
	case *algebra.NotExpr:
		inner, err := rw.rewriteExpr(x.E)
		if err != nil {
			return nil, err
		}
		return algebra.Not(inner), nil
	case *algebra.ArithExpr:
		l, err := rw.rewriteExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewriteExpr(x.R)
		if err != nil {
			return nil, err
		}
		return algebra.Arith(x.Op, l, r), nil
	case *algebra.LikeExpr:
		l, err := rw.rewriteExpr(x.L)
		if err != nil {
			return nil, err
		}
		p, err := rw.rewriteExpr(x.Pattern)
		if err != nil {
			return nil, err
		}
		return algebra.Like(l, p), nil
	case *algebra.IsNullExpr:
		inner, err := rw.rewriteExpr(x.E)
		if err != nil {
			return nil, err
		}
		return algebra.IsNull(inner), nil
	case *algebra.AggCombineExpr:
		l, err := rw.rewriteExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewriteExpr(x.R)
		if err != nil {
			return nil, err
		}
		return algebra.AggCombine(x.Kind, l, r), nil
	case *algebra.ScalarSubquery:
		plan, err := rw.rewriteOp(x.Plan)
		if err != nil {
			return nil, err
		}
		arg, err := rw.rewriteExpr(x.Arg)
		if err != nil {
			return nil, err
		}
		return algebra.Subquery(x.Agg, arg, plan), nil
	case *algebra.QuantSubquery:
		plan, err := rw.rewriteOp(x.Plan)
		if err != nil {
			return nil, err
		}
		l, err := rw.rewriteExpr(x.L)
		if err != nil {
			return nil, err
		}
		return algebra.Quant(x.Quant, l, plan), nil
	case *algebra.AllAnyExpr:
		plan, err := rw.rewriteOp(x.Plan)
		if err != nil {
			return nil, err
		}
		l, err := rw.rewriteExpr(x.L)
		if err != nil {
			return nil, err
		}
		return algebra.AllAny(x.Op, x.All, l, plan), nil
	default:
		return nil, fmt.Errorf("rewrite: unknown expression %T", e)
	}
}

// normalizeNNF pushes NOT down to the leaves (negation normal form)
// under the default three-valued logic, which is sound in Kleene logic:
// De Morgan's laws and double negation hold, ¬(a θ b) ≡ a θ̄ b, and
// negated quantifiers flip polarity.
func normalizeNNF(e algebra.Expr) algebra.Expr {
	return normalizeNNFMode(e, types.ThreeValued)
}

// normalizeNNFMode is normalizeNNF under an explicit null mode. De
// Morgan and double negation are sound in both logics (two-valued
// predicates are classical Boolean), but the comparison and quantified-
// comparison foldings are not: in two-valued logic ¬(a = NULL) is TRUE
// while a <> NULL is FALSE, so those negations stay leaves there.
func normalizeNNFMode(e algebra.Expr, nulls types.NullMode) algebra.Expr {
	switch x := e.(type) {
	case *algebra.AndExpr:
		return algebra.And(normalizeNNFMode(x.L, nulls), normalizeNNFMode(x.R, nulls))
	case *algebra.OrExpr:
		return algebra.Or(normalizeNNFMode(x.L, nulls), normalizeNNFMode(x.R, nulls))
	case *algebra.NotExpr:
		return negate(x.E, nulls)
	default:
		return e
	}
}

func negate(e algebra.Expr, nulls types.NullMode) algebra.Expr {
	switch x := e.(type) {
	case *algebra.NotExpr:
		return normalizeNNFMode(x.E, nulls)
	case *algebra.AndExpr:
		return algebra.Or(negate(x.L, nulls), negate(x.R, nulls))
	case *algebra.OrExpr:
		return algebra.And(negate(x.L, nulls), negate(x.R, nulls))
	case *algebra.CmpExpr:
		if nulls == types.TwoValued {
			// ¬(a θ b) ≢ a θ̄ b when a NULL operand makes both sides
			// FALSE; the negation must survive as a leaf.
			return algebra.Not(e)
		}
		return algebra.Cmp(x.Op.Negate(), x.L, x.R)
	case *algebra.QuantSubquery:
		// Sound in both logics: each mode evaluates NOT IN as the exact
		// complement of its own IN (likewise EXISTS/NOT EXISTS).
		switch x.Quant {
		case algebra.Exists:
			return algebra.Quant(algebra.NotExists, nil, x.Plan)
		case algebra.NotExists:
			return algebra.Quant(algebra.Exists, nil, x.Plan)
		case algebra.In:
			return algebra.Quant(algebra.NotIn, x.L, x.Plan)
		default:
			return algebra.Quant(algebra.In, x.L, x.Plan)
		}
	case *algebra.AllAnyExpr:
		if nulls == types.TwoValued {
			// A NULL member turns both x θ ALL S and x θ̄ ANY S FALSE in
			// two-valued logic, so the polarity flip is unsound there.
			return algebra.Not(e)
		}
		// ¬(x θ ALL S) ≡ x θ̄ ANY S — exact in Kleene logic (De Morgan
		// over the comparison fold).
		return algebra.AllAny(x.Op.Negate(), !x.All, x.L, x.Plan)
	case *algebra.ConstExpr:
		if b, ok := x.Val.BoolOk(); ok {
			return algebra.Const(types.NewBool(!b))
		}
		return algebra.Not(e)
	default:
		// LIKE, IS NULL, …: keep the negation as a leaf.
		return algebra.Not(e)
	}
}

// quantToCount converts quantified subqueries into count-based linking
// predicates (technical report §: EXISTS, NOT EXISTS, IN, NOT IN), after
// which the scalar machinery (Eqv. 1–5) applies:
//
//	EXISTS q          ⇒ COUNT(*){q} > 0
//	NOT EXISTS q      ⇒ COUNT(*){q} = 0
//	x IN q(y)         ⇒ COUNT(*){σ_{y=x}(q)} > 0
//	x NOT IN q(y)     ⇒ x IS NOT NULL ∧ COUNT(*){σ_{y=x}(q)} = 0
//	                    ∧ COUNT(*){σ_{y IS NULL}(q)} = 0
//
// The NOT IN form preserves SQL's three-valued semantics for WHERE-clause
// filtering: any NULL in q or a NULL probe makes the original predicate
// not-true, and here makes a conjunct not-true. Under two-valued logic
// NULLs simply never compare equal, so x NOT IN q is plainly "no member
// equals x" and the conversion emits COUNT(*){σ_{y=x}(q)} = 0 alone —
// the σ runs under the same two-valued logic, dropping NULL members and
// matching nothing for a NULL probe.
func (rw *Rewriter) quantToCount(e algebra.Expr) algebra.Expr {
	switch x := e.(type) {
	case *algebra.AndExpr:
		return algebra.And(rw.quantToCount(x.L), rw.quantToCount(x.R))
	case *algebra.OrExpr:
		return algebra.Or(rw.quantToCount(x.L), rw.quantToCount(x.R))
	case *algebra.QuantSubquery:
		countStar := agg.Spec{Kind: agg.Count, Star: true}
		switch x.Quant {
		case algebra.Exists:
			rw.trace("quantified: EXISTS → COUNT(*) > 0")
			return algebra.Cmp(types.GT, algebra.Subquery(countStar, nil, x.Plan), algebra.ConstInt(0))
		case algebra.NotExists:
			rw.trace("quantified: NOT EXISTS → COUNT(*) = 0")
			return algebra.Cmp(types.EQ, algebra.Subquery(countStar, nil, x.Plan), algebra.ConstInt(0))
		case algebra.In, algebra.NotIn:
			if x.Plan.Schema().Len() != 1 {
				return e
			}
			col := algebra.Col(x.Plan.Schema().Attr(0))
			eqPlan := algebra.NewSelect(x.Plan, algebra.Cmp(types.EQ, col, x.L))
			eqCount := algebra.Subquery(countStar, nil, eqPlan)
			if x.Quant == algebra.In {
				rw.trace("quantified: IN → COUNT(*) of matches > 0")
				return algebra.Cmp(types.GT, eqCount, algebra.ConstInt(0))
			}
			if rw.nulls == types.TwoValued {
				rw.trace("quantified: NOT IN → COUNT(*) of matches = 0 (2VL)")
				return algebra.Cmp(types.EQ, eqCount, algebra.ConstInt(0))
			}
			nullPlan := algebra.NewSelect(x.Plan, algebra.IsNull(col))
			nullCount := algebra.Subquery(countStar, nil, nullPlan)
			allCount := algebra.Subquery(countStar, nil, x.Plan)
			rw.trace("quantified: NOT IN → NULL-aware COUNT(*) = 0 form")
			// x NOT IN S is TRUE iff S is empty (vacuous truth — even a
			// NULL probe passes) or x is non-NULL, nothing equals it, and
			// S contains no NULLs.
			return algebra.Or(
				algebra.Cmp(types.EQ, allCount, algebra.ConstInt(0)),
				algebra.And(
					algebra.Not(algebra.IsNull(x.L)),
					algebra.Cmp(types.EQ, eqCount, algebra.ConstInt(0)),
					algebra.Cmp(types.EQ, nullCount, algebra.ConstInt(0))))
		}
	case *algebra.AllAnyExpr:
		return rw.allAnyToExtremum(x)
	}
	return e
}

// allAnyToExtremum converts θ ALL / θ ANY into extremum aggregates (the
// paper's future-work item (3)) for θ ∈ {<, ≤, >, ≥}:
//
//	x θ ANY S  ⇒ x θ MIN(S)  for θ ∈ {>, ≥}; x θ MAX(S) for θ ∈ {<, ≤}
//	x θ ALL S  ⇒ COUNT(*){S} = 0
//	             ∨ (COUNT(*){σ_NULL(S)} = 0 ∧ x θ extremum(S))
//	             with the opposite extremum.
//
// All conversions preserve WHERE-clause three-valued semantics: a NULL in
// S or a NULL probe never turns a not-true predicate TRUE. Equality forms
// (= ALL, <> ANY) are left to canonical evaluation.
func (rw *Rewriter) allAnyToExtremum(x *algebra.AllAnyExpr) algebra.Expr {
	var extremum agg.Kind
	switch x.Op {
	case types.GT, types.GE:
		if x.All {
			extremum = agg.Max
		} else {
			extremum = agg.Min
		}
	case types.LT, types.LE:
		if x.All {
			extremum = agg.Min
		} else {
			extremum = agg.Max
		}
	default:
		return x // = ALL / <> ANY: stay canonical
	}
	col := algebra.Col(x.Plan.Schema().Attr(0))
	extSub := algebra.Subquery(agg.Spec{Kind: extremum}, col, x.Plan)
	cmp := algebra.Cmp(x.Op, x.L, extSub)
	if !x.All {
		rw.trace("quantified: θ ANY → %s comparison", extremum)
		return cmp
	}
	countStar := agg.Spec{Kind: agg.Count, Star: true}
	cntAll := algebra.Subquery(countStar, nil, x.Plan)
	nullPlan := algebra.NewSelect(x.Plan, algebra.IsNull(col))
	cntNull := algebra.Subquery(countStar, nil, nullPlan)
	rw.trace("quantified: θ ALL → NULL-aware %s comparison", extremum)
	return algebra.Or(
		algebra.Cmp(types.EQ, cntAll, algebra.ConstInt(0)),
		algebra.And(
			algebra.Cmp(types.EQ, cntNull, algebra.ConstInt(0)),
			cmp))
}
