// Package rewrite implements the paper's unnesting strategy: it removes
// nested scalar subqueries from canonical plans by applying the
// algebraic equivalences of §3 —
//
//	Eqv. 1  conjunctive linking (group + outerjoin, count-bug defaults)
//	Eqv. 2  disjunctive linking, cheap predicate bypassed first
//	Eqv. 3  disjunctive linking, unnested subquery bypassed first
//	Eqv. 5  disjunctive correlation (tagged binary grouping: χ_{tag:p} on
//	        the inner block under Γ²_{corr ∨ tag})
//
// The paper's Eqv. 4 — the decomposable-aggregate special case of
// disjunctive correlation (σ± on the inner block, Γ + ⟕ on its negative
// part, χ recombining the partials with fO) — is not a rule here: the
// tagged Γ² folds each correlation key's group once, which is what
// Eqv. 4's pre-aggregation bought, for every aggregate.
//
// The rewriter chooses between 2 and 3 by stats.Estimator.OrderDisjuncts
// (the paper's predicate rank applied to the negated disjunct), recurses
// for linear and tree nesting structures, and translates the technical
// report's quantified subqueries (EXISTS/NOT EXISTS/IN/NOT IN) into
// count-based linking predicates so the same machinery covers them.
package rewrite

import (
	"strconv"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/stats"
	"disqo/internal/types"
)

// Caps selects the rewriter: the paper's (AllCaps), or the S2
// baseline's, a model of a commercial optimizer that unnests
// conjunctive correlation only (ICDE'07 §5). Both convert quantified
// subqueries to counts and apply Eqv. 1.
type Caps struct {
	// ORExpansion selects the S2 baseline. A disjunctive selection then
	// becomes a duplicate-eliminating union of conjunctive branches
	// (sound only under a later Distinct, so applied only when the plan
	// has one) instead of a bypass cascade (Eqv. 2/3); a subquery whose
	// correlation is disjunctive stays nested (no Eqv. 5); and a
	// conjunctive correlated EXISTS, NOT EXISTS or IN keeps its count
	// form instead of becoming a semi- or anti-join.
	ORExpansion bool
}

// AllCaps is the paper's full unnesting strategy.
func AllCaps() Caps { return Caps{} }

// Rewriter rewrites plans. Create one per statement (fresh-name counter).
type Rewriter struct {
	est  *stats.Estimator
	caps Caps
	ctr  int
	memo map[algebra.Op]algebra.Op
	cols []string // scratch column list: hasFreeCols, correlation checks
	// Trace records the equivalences applied, in order — used by tests
	// and surfaced by EXPLAIN.
	Trace []string
}

// New returns a Rewriter using catalog statistics for its cost-based
// decisions; cat may be the live catalog or a pinned snapshot.
func New(cat catalog.Reader, caps Caps) *Rewriter {
	return &Rewriter{est: stats.New(cat), caps: caps, cols: make([]string, 0, 8)}
}

// fresh generates a plan-unique synthetic attribute name not colliding
// with the schema of the given operator.
func (rw *Rewriter) fresh(base string, near algebra.Op) string {
	for {
		rw.ctr++
		name := base + strconv.Itoa(rw.ctr)
		if near == nil || !near.Schema().Has(name) {
			return name
		}
	}
}

func (rw *Rewriter) trace(line string) { rw.Trace = append(rw.Trace, line) }

// Rewrite unnests a plan. The input plan is not mutated; shared DAG
// structure in the input remains shared in the output.
func (rw *Rewriter) Rewrite(plan algebra.Op) (algebra.Op, error) {
	if rw.memo == nil {
		rw.memo = make(map[algebra.Op]algebra.Op, algebra.Size(plan))
	}
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
	var (
		newOp   algebra.Op
		changed bool
		err     error
	)
	switch x := op.(type) {
	case *algebra.Select:
		newOp, changed, err = rw.unnestSelect(x)
	case *algebra.MapOp:
		newOp, changed, err = rw.unnestMap(x)
	}
	if err != nil {
		return nil, err
	}
	if changed {
		// The rewritten structure may contain further unnestable
		// selections (linear/tree queries); recurse into it. The
		// recursion terminates because every successful application
		// removes at least one subquery from a selection predicate.
		op = newOp
	}
	return rw.rewriteChildren(op)
}

// rewriteChildren rewrites an operator's inputs and the subquery plans
// inside its expressions (so deeper blocks get unnested even when the
// enclosing block could not be). Where nothing below changed it returns
// its argument itself — the operators a rule has just built are not
// built again, and a finished plan comes back as it went in.
func (rw *Rewriter) rewriteChildren(op algebra.Op) (algebra.Op, error) {
	return algebra.MapChildren(op, rw.rewriteOp, rw.rewriteExpr)
}

func (rw *Rewriter) rewriteExpr(e algebra.Expr) (algebra.Expr, error) {
	return algebra.MapExprChildren(e, rw.rewriteExpr, rw.rewriteOp)
}

// mapOperands applies f to e's child expressions, leaving subquery
// plans alone, and returns e itself when none of them changed.
func mapOperands(e algebra.Expr, f func(algebra.Expr) algebra.Expr) algebra.Expr {
	out, _ := algebra.MapExprChildren(e, func(c algebra.Expr) (algebra.Expr, error) {
		return f(c), nil
	}, nil) // the only error is the callback's, and it has none
	return out
}

// normalizeNNF pushes NOT down to the leaves (negation normal form),
// which is sound in Kleene logic: De Morgan's laws and double negation
// hold, ¬(a θ b) ≡ a θ̄ b, and negated quantifiers flip polarity. A
// two-valued query arrives already written in Kleene logic
// (translate.TwoValued), so this serves it unchanged.
func normalizeNNF(e algebra.Expr) algebra.Expr {
	switch x := e.(type) {
	case *algebra.AndExpr, *algebra.OrExpr:
		return mapOperands(e, normalizeNNF)
	case *algebra.NotExpr:
		return negate(x.E)
	default:
		return e
	}
}

func negate(e algebra.Expr) algebra.Expr {
	switch x := e.(type) {
	case *algebra.NotExpr:
		return normalizeNNF(x.E)
	case *algebra.AndExpr:
		return algebra.Or(negate(x.L), negate(x.R))
	case *algebra.OrExpr:
		return algebra.And(negate(x.L), negate(x.R))
	case *algebra.CmpExpr:
		return algebra.Cmp(x.Op.Negate(), x.L, x.R)
	case *algebra.QuantSubquery:
		// NOT IN is the Kleene complement of IN, NOT EXISTS of EXISTS.
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
		// ¬(x θ ALL S) ≡ x θ̄ ANY S — exact in Kleene logic (De Morgan
		// over the comparison fold).
		return algebra.AllAny(x.Op.Negate(), !x.All, x.L, x.Plan)
	case *algebra.ConstExpr:
		if b, ok := x.Val.BoolOk(); ok {
			return algebra.Const(types.NewBool(!b))
		}
		return algebra.Not(e)
	default:
		// LIKE, IS NULL, IS TRUE, …: keep the negation as a leaf.
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
// not-true, and here makes a conjunct not-true.
func (rw *Rewriter) quantToCount(e algebra.Expr) algebra.Expr {
	switch x := e.(type) {
	case *algebra.AndExpr, *algebra.OrExpr:
		return mapOperands(e, rw.quantToCount)
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
		rw.trace("quantified: θ ANY → " + extremum.String() + " comparison")
		return cmp
	}
	countStar := agg.Spec{Kind: agg.Count, Star: true}
	cntAll := algebra.Subquery(countStar, nil, x.Plan)
	nullPlan := algebra.NewSelect(x.Plan, algebra.IsNull(col))
	cntNull := algebra.Subquery(countStar, nil, nullPlan)
	rw.trace("quantified: θ ALL → NULL-aware " + extremum.String() + " comparison")
	return algebra.Or(
		algebra.Cmp(types.EQ, cntAll, algebra.ConstInt(0)),
		algebra.And(
			algebra.Cmp(types.EQ, cntNull, algebra.ConstInt(0)),
			cmp))
}
