package rewrite

import (
	"strconv"
	"strings"

	"disqo/internal/algebra"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// unnestSelect attempts to remove nested subqueries from one selection.
// It returns the (possibly) new plan and whether anything changed. When
// nothing did, the trace is as it was: a conversion written on the way
// (quantToCount's) is not in the plan.
func (rw *Rewriter) unnestSelect(sel *algebra.Select) (algebra.Op, bool, error) {
	// NNF neither adds nor removes a subquery, so a selection without one
	// is left alone before anything is built.
	if !algebra.HasSubquery(sel.Pred) {
		return sel, false, nil
	}
	mark := len(rw.Trace)
	decline := func(err error) (algebra.Op, bool, error) {
		rw.Trace = rw.Trace[:mark]
		return sel, false, err
	}
	pred := normalizeNNF(sel.Pred)
	child := sel.Child
	sch := child.Schema() // what the selection's consumers read

	if _, or := pred.(*algebra.OrExpr); or {
		// Disjunctive linking: σ_{d1 ∨ … ∨ dn}(child). Quantified
		// disjuncts go through the count conversion so the cascade's
		// scalar machinery applies.
		pred = rw.quantToCount(pred)
		out, changed, err := rw.unnestDisjunction(child, algebra.SplitDisjuncts(pred), sch)
		if err != nil || !changed {
			return decline(err)
		}
		return out, true, nil
	}

	// Conjunctive predicate. Correlated quantified conjuncts become
	// semi-/anti-joins (S2 counts them instead); linking conjuncts are
	// unnested in place (Eqv. 1 / 5); conjuncts that are disjunctions
	// containing subqueries are peeled into stacked bypass cascades.
	cur := child
	changed := false
	var plain, orSubs []algebra.Expr
	for _, c := range algebra.SplitConjuncts(pred) {
		if q, ok := c.(*algebra.QuantSubquery); ok && !rw.caps.ORExpansion {
			cur2, ok2, err := rw.unnestQuantConjunct(q, cur)
			if err != nil {
				return nil, false, err
			}
			if ok2 {
				cur = cur2
				changed = true
				continue // the conjunct is absorbed by the join
			}
		}
		c = rw.quantToCount(c)
		for _, cc := range algebra.SplitConjuncts(c) {
			if _, or := cc.(*algebra.OrExpr); or && algebra.HasSubquery(cc) {
				orSubs = append(orSubs, cc)
			} else {
				plain = append(plain, cc)
			}
		}
	}
	newConj := make([]algebra.Expr, 0, len(plain))
	for _, c := range plain {
		c2, cur2, ok, err := rw.unnestConjunct(c, cur)
		if err != nil {
			return nil, false, err
		}
		if ok {
			changed = true
			cur = cur2
			newConj = append(newConj, c2)
		} else {
			newConj = append(newConj, c)
		}
	}

	var out algebra.Op
	if len(newConj) > 0 {
		out = algebra.NewSelect(cur, algebra.And(newConj...))
	} else {
		out = cur
	}

	// Disjunctive conjuncts cascade one by one on top of what the others
	// left; one that cannot stays a selection there.
	for _, oc := range orSubs {
		cascaded, cchanged, err := rw.unnestDisjunction(out, algebra.SplitDisjuncts(oc), sch)
		if err != nil {
			return nil, false, err
		}
		if !cchanged {
			out = algebra.NewSelect(out, oc)
			continue
		}
		changed = true
		out = cascaded
	}
	if !changed {
		return decline(nil)
	}
	// Restore the original schema when the stream was extended.
	if !out.Schema().Equal(sch) {
		out = algebra.ProjectOnto(out, sch)
	}
	return out, true, nil
}

// unnestDisjunction rewrites σ_{d1 ∨ … ∨ dn}(base) by the bypass
// cascade, or under the S2 baseline by OR-expansion, and reports false
// when no disjunct could be unnested.
func (rw *Rewriter) unnestDisjunction(base algebra.Op, disjuncts []algebra.Expr, sch *storage.Schema) (algebra.Op, bool, error) {
	if rw.caps.ORExpansion {
		return rw.orExpand(base, disjuncts, sch)
	}
	return rw.cascade(base, disjuncts, sch)
}

// cascade implements the generalized Eqv. 2/3 bypass chain: disjuncts are
// ordered by stats.Estimator.OrderDisjuncts; each non-final disjunct
// becomes a bypass selection whose positive stream contributes to the
// result and whose negative stream feeds the rest of the chain. Subquery
// disjuncts are unnested against the current stream before their bypass
// (which is exactly Eqv. 3 when such a disjunct comes first, and Eqv. 2
// when a cheap simple predicate precedes it). The plan has the shape
// algebra.CascadeInput reads, which is how the planner runs it in one
// pass; the last branch's σ is unnested again with the rest of the plan.
func (rw *Rewriter) cascade(base algebra.Op, disjuncts []algebra.Expr, sch *storage.Schema) (algebra.Op, bool, error) {
	rw.est.OrderDisjuncts(disjuncts, base)
	cur := base
	branches := make([]algebra.Op, 0, len(disjuncts))
	anyUnnested := false
	for i, d := range disjuncts {
		cur2 := cur
		if algebra.HasSubquery(d) {
			var err error
			var ok bool
			d, cur2, ok, err = rw.unnestDisjunct(d, cur)
			if err != nil {
				return nil, false, err
			}
			if ok {
				anyUnnested = true
			}
		}
		if i == len(disjuncts)-1 {
			branch := algebra.Op(algebra.NewSelect(cur2, d))
			branches = append(branches, projectTo(branch, sch))
			continue
		}
		bp := algebra.NewBypassSelect(cur2, d)
		branches = append(branches, projectTo(algebra.Pos(bp), sch))
		cur = algebra.Neg(bp)
	}
	if !anyUnnested {
		// No disjunct was unnested: a bypass chain alone buys nothing
		// here; leave the plan canonical.
		return nil, false, nil
	}
	rw.trace("bypass cascade over " + strconv.Itoa(len(disjuncts)) + " disjuncts (Eqv. 2/3 by rank)")
	out := branches[0]
	for _, b := range branches[1:] {
		out = algebra.NewUnionDisjoint(out, b)
	}
	return out, true, nil
}

// orExpand is the S2 baseline's strategy: σ_{d1∨…∨dn}(R) becomes a
// duplicate-eliminating union of conjunctive selections, each of which
// conventional conjunctive unnesting (Eqv. 1) can then handle. Sound only
// under a later DISTINCT (which the paper's queries all have); unlike the
// bypass cascade it evaluates every disjunct over all of R and pays for
// the union's duplicate elimination.
func (rw *Rewriter) orExpand(base algebra.Op, disjuncts []algebra.Expr, sch *storage.Schema) (algebra.Op, bool, error) {
	branches := make([]algebra.Op, 0, len(disjuncts))
	anyUnnested := false
	for _, d := range disjuncts {
		cur := base
		d2 := d
		if algebra.HasSubquery(d) {
			var err error
			var ok bool
			d2, cur, ok, err = rw.unnestDisjunct(d, base)
			if err != nil {
				return nil, false, err
			}
			if ok {
				anyUnnested = true
			}
		}
		branches = append(branches, projectTo(algebra.NewSelect(cur, d2), sch))
	}
	if !anyUnnested {
		return nil, false, nil
	}
	rw.trace("OR-expansion over " + strconv.Itoa(len(disjuncts)) + " disjuncts (union + distinct)")
	out := branches[0]
	for _, b := range branches[1:] {
		out = algebra.NewUnionAll(out, b)
	}
	return algebra.NewDistinct(out), true, nil
}

// projectTo returns op when its schema is sch's attribute list, and Π
// onto sch otherwise.
func projectTo(op algebra.Op, sch *storage.Schema) algebra.Op {
	if op.Schema().Equal(sch) {
		return op
	}
	return algebra.ProjectOnto(op, sch)
}

// unnestDisjunct unnests every linking conjunct inside one disjunct,
// threading the stream extension through.
func (rw *Rewriter) unnestDisjunct(d algebra.Expr, cur algebra.Op) (algebra.Expr, algebra.Op, bool, error) {
	conjs := algebra.SplitConjuncts(d)
	out := make([]algebra.Expr, 0, len(conjs))
	changed := false
	for _, c := range conjs {
		c2, cur2, ok, err := rw.unnestConjunct(c, cur)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			changed = true
			cur = cur2
			out = append(out, c2)
		} else {
			out = append(out, c)
		}
	}
	return algebra.And(out...), cur, changed, nil
}

// linking describes one linking predicate "other θ f(subplan)".
type linking struct {
	other algebra.Expr
	op    types.CompareOp
	sub   *algebra.ScalarSubquery
}

// matchLinking recognizes a comparison with a scalar subquery on exactly
// one side and a subquery-free expression on the other, normalizing the
// subquery to the right.
func matchLinking(c algebra.Expr) (*linking, bool) {
	cmp, ok := c.(*algebra.CmpExpr)
	if !ok {
		return nil, false
	}
	lsub, lok := cmp.L.(*algebra.ScalarSubquery)
	rsub, rok := cmp.R.(*algebra.ScalarSubquery)
	switch {
	case lok && !rok && !algebra.HasSubquery(cmp.R):
		return &linking{other: cmp.R, op: cmp.Op.Flip(), sub: lsub}, true
	case rok && !lok && !algebra.HasSubquery(cmp.L):
		return &linking{other: cmp.L, op: cmp.Op, sub: rsub}, true
	default:
		return nil, false
	}
}

// unnestConjunct unnests a single linking conjunct against the stream
// cur. Returns ok=false (without error) for shapes outside the supported
// patterns, which then simply stay nested.
func (rw *Rewriter) unnestConjunct(c algebra.Expr, cur algebra.Op) (algebra.Expr, algebra.Op, bool, error) {
	lk, ok := matchLinking(c)
	if !ok {
		return c, cur, false, nil
	}
	gExpr, cur2, ok, err := rw.unnestScalar(lk.sub, cur)
	if err != nil || !ok {
		return c, cur, false, err
	}
	return algebra.Cmp(lk.op, lk.other, gExpr), cur2, true, nil
}

// unnestScalar removes one correlated scalar subquery by extending the
// outer stream cur, dispatching between Eqv. 1 (conjunctive correlation)
// and Eqv. 5 (correlation inside a disjunction). On success it returns
// the expression (a synthesized attribute) that now carries the
// aggregate value for every cur tuple. The same machinery serves
// WHERE-clause linking predicates and SELECT-clause subqueries (the
// technical report’s generalization).
func (rw *Rewriter) unnestScalar(sub *algebra.ScalarSubquery, cur algebra.Op) (algebra.Expr, algebra.Op, bool, error) {
	if len(sub.Free()) == 0 {
		// Type A: materialized once by the executor's uncorrelated-plan
		// cache; nothing to unnest.
		return nil, cur, false, nil
	}
	// Direct correlation only (paper's stated limitation): every free
	// attribute must be supplied by the current outer stream.
	for _, col := range sub.Free() {
		if !cur.Schema().Has(col) {
			return nil, cur, false, nil
		}
	}
	// Every equivalence evaluates the aggregate's argument inside a Γ over
	// the subplan, which sees no outer column: an argument that reads one
	// (SUM(b1 + a3)) keeps the subquery nested.
	if sub.Arg != nil && rw.hasFreeCols(sub.Arg, sub.Plan.Schema()) {
		return nil, cur, false, nil
	}
	// Collapse the subplan's top-level Select/Project layers into one
	// predicate over the widest schema: σ_a(Π(σ_b(X))) ≡ σ_{a∧b}(X) for
	// duplicate-preserving Π (projection only narrows the schema, so
	// every referenced column still exists below). Quantifier conversions
	// (IN, θ ALL/ANY) produce exactly these stacks. Peeling Π is not
	// sound for COUNT(DISTINCT *), whose argument is the projected tuple.
	plan := sub.Plan
	var topBuf [8]algebra.Expr
	topConjs := topBuf[:0]
peel:
	for {
		switch p := plan.(type) {
		case *algebra.Project:
			if sub.Agg.Star && sub.Agg.Distinct {
				break peel
			}
			plan = p.Child
		case *algebra.Select:
			topConjs = algebra.AppendConjuncts(topConjs, p.Pred)
			plan = p.Child
		default:
			break peel
		}
	}
	if len(topConjs) == 0 {
		return nil, cur, false, nil
	}
	innerChild := plan
	innerSchema := innerChild.Schema()

	// Partition the inner predicate's conjuncts.
	var corrBuf, localBuf [4]algebra.Expr
	corrConjs, localConjs := corrBuf[:0], localBuf[:0]
	var corrDisj algebra.Expr // a conjunct that is a disjunction involving correlation
	for _, ic := range topConjs {
		_, or := ic.(*algebra.OrExpr)
		freeHere := rw.hasFreeCols(ic, innerSchema)
		switch {
		case !or && freeHere:
			if algebra.HasSubquery(ic) {
				return nil, cur, false, nil // correlated conjunct with nested subquery: unsupported
			}
			corrConjs = append(corrConjs, ic)
		case or && freeHere:
			if corrDisj != nil {
				return nil, cur, false, nil // at most one disjunctive-correlation conjunct supported
			}
			corrDisj = ic
		default:
			localConjs = append(localConjs, ic)
		}
	}

	inner := innerChild
	if len(localConjs) > 0 {
		inner = algebra.NewSelect(innerChild, algebra.And(localConjs...))
	}

	if corrDisj != nil {
		if len(corrConjs) > 0 || rw.caps.ORExpansion {
			return nil, cur, false, nil
		}
		return rw.buildEqv5(sub, inner, corrDisj, cur)
	}
	if len(corrConjs) == 0 {
		// Correlation lives deeper than the block-level predicate
		// (indirect correlation) — outside the paper's scope.
		return nil, cur, false, nil
	}
	return rw.unnestConjunctiveCorrelation(sub, inner, innerSchema, corrConjs, cur)
}

// unnestConjunctiveCorrelation is Eqv. 1: group the inner block on its
// correlation attributes, leftouterjoin with f(∅) defaults, compare
// against the materialized aggregate. Non-equality correlation falls back
// to the binary grouping operator, which has no count bug by
// construction.
func (rw *Rewriter) unnestConjunctiveCorrelation(sub *algebra.ScalarSubquery, inner algebra.Op,
	innerSchema interface{ Has(string) bool }, corrConjs []algebra.Expr,
	cur algebra.Op) (algebra.Expr, algebra.Op, bool, error) {

	var outerCols, innerCols []string
	allEq := true
	for _, cc := range corrConjs {
		oc, icn, ok := splitCorrEquality(cc, innerSchema, cur.Schema())
		if !ok {
			allEq = false
			break
		}
		outerCols = append(outerCols, oc)
		innerCols = append(innerCols, icn)
	}

	g := rw.fresh("g", cur)
	item := rw.aggItem(g, sub, inner)

	if allEq {
		// Group on the distinct inner correlation attributes (a repeated
		// inner column, as in A2=B2 AND A3=B2, groups once).
		groupCols := make([]string, 0, len(innerCols))
		seen := map[string]bool{}
		for _, ic := range innerCols {
			if !seen[ic] {
				seen[ic] = true
				groupCols = append(groupCols, ic)
			}
		}
		grouped := algebra.NewGroupBy(inner, groupCols, []algebra.AggItem{item}, false)
		var joinPred algebra.Expr
		for i := range outerCols {
			eq := algebra.Cmp(types.EQ, algebra.Col(outerCols[i]), algebra.Col(innerCols[i]))
			joinPred = algebra.And(joinPred, eq)
		}
		oj := algebra.NewLeftOuterJoin(cur, grouped, joinPred,
			[]algebra.Default{{Attr: g, Val: sub.Agg.Empty()}})
		// Drop the inner key columns so further unnestings against the
		// same inner relation cannot collide on attribute names.
		narrowed := algebra.NewProject(oj, append(append([]string(nil), cur.Schema().Attrs()...), g))
		rw.trace("Eqv. 1: Γ[[" + strings.Join(groupCols, " ") + "]] + ⟕[" + g + ":" + sub.Agg.Kind.String() +
			"(∅)] for " + sub.Agg.String())
		return algebra.Col(g), narrowed, true, nil
	}

	// Generalized correlation (θ ∈ {≠,<,≤,>,≥} or expression-valued):
	// binary grouping extends every outer tuple directly.
	corr := algebra.And(corrConjs...)
	rw.cols = corr.Columns(rw.cols[:0])
	for _, col := range rw.cols {
		if !innerSchema.Has(col) && !cur.Schema().Has(col) {
			return nil, nil, false, nil // indirect correlation: not supported
		}
	}
	bg := algebra.NewBinaryGroup(cur, inner, corr, []algebra.AggItem{item})
	rw.trace("Eqv. 1 (binary-grouping form): Γ²[" + corr.String() + "] for " + sub.Agg.String())
	return algebra.Col(g), bg, true, nil
}

// buildEqv5 implements Equivalence 5, the one rule for a linking
// predicate whose inner block's correlation occurs in a disjunction,
// f(σ_{corr ∨ p}(inner)), in its tagged form. The paper's expansion
// numbers the outer stream (ν), bypass-joins it with the inner block on
// corr, filters the negative stream with p and regroups on the number;
// p collects exactly the disjuncts free of outer columns, so it is a
// function of the inner tuple alone and, per outer tuple,
//
//	σ_{corr ∨ p}(S) = σ_p(S) ∪̇ σ_corr(σ_{¬p}(S))    (¬p: p is not TRUE)
//
// under bag semantics. A map tags each inner tuple with p once —
// unnestMap then unnests p's own subqueries against |S| rows — and one
// binary grouping on corr ∨ tag assembles the groups without the |R|·|S|
// complement. It also covers the paper's Eqv. 4 inputs (a decomposable
// aggregate over an equality correlation): the executor folds the tagged
// tuples once and each correlation key's group once.
func (rw *Rewriter) buildEqv5(sub *algebra.ScalarSubquery, inner algebra.Op, corrDisj algebra.Expr,
	cur algebra.Op) (algebra.Expr, algebra.Op, bool, error) {

	var corrBuf, pBuf [4]algebra.Expr
	corrDs, pDs := corrBuf[:0], pBuf[:0]
	for _, d := range algebra.SplitDisjuncts(corrDisj) {
		if rw.hasFreeCols(d, inner.Schema()) {
			corrDs = append(corrDs, d)
		} else {
			pDs = append(pDs, d)
		}
	}
	corr := algebra.Or(corrDs...)
	// Direct correlation check: every free column of corr must come from
	// the current outer stream.
	rw.cols = corr.Columns(rw.cols[:0])
	for _, col := range rw.cols {
		if !inner.Schema().Has(col) && !cur.Schema().Has(col) {
			return nil, nil, false, nil
		}
	}
	// With every disjunct correlated p is always false: no inner tuple is
	// tagged.
	p := algebra.Expr(algebra.Const(types.NewBool(false)))
	if len(pDs) > 0 {
		p = algebra.Or(pDs...)
	}
	// Only p's truth matters to the tag, which is what NNF and the
	// quantifier→COUNT conversion preserve; afterwards every subquery in
	// p is scalar and unnestMap's machinery applies.
	if algebra.HasSubquery(p) {
		p = rw.quantToCount(normalizeNNF(p))
	}
	tag := rw.fresh("tag", inner)
	g := rw.fresh("g", cur)
	item := rw.aggItem(g, sub, inner)
	bg := algebra.NewBinaryGroup(cur, algebra.NewMap(inner, tag, p), corr, []algebra.AggItem{item})
	bg.Tag = tag
	rw.trace("Eqv. 5: χ[" + tag + ":" + p.String() + "] + Γ²[" + corr.String() + " ∨ " + tag + "] for " + sub.Agg.String())
	return algebra.Col(g), bg, true, nil
}

// aggItem builds the grouping aggregate for a subquery's spec, preserving
// the * argument as the inner block's attribute list.
func (rw *Rewriter) aggItem(out string, sub *algebra.ScalarSubquery, inner algebra.Op) algebra.AggItem {
	item := algebra.AggItem{Out: out, Spec: sub.Agg, Arg: sub.Arg}
	if sub.Agg.Star {
		item.ArgAttrs = append([]string(nil), inner.Schema().Attrs()...)
	}
	return item
}

// hasFreeCols reports whether the expression references a column outside
// the given schema.
func (rw *Rewriter) hasFreeCols(e algebra.Expr, schema interface{ Has(string) bool }) bool {
	rw.cols = e.Columns(rw.cols[:0])
	for _, col := range rw.cols {
		if !schema.Has(col) {
			return true
		}
	}
	return false
}

// splitCorrEquality recognizes a correlation equality between an outer
// column (free w.r.t. the inner schema, present in the outer stream) and
// an inner column, in either operand order.
func splitCorrEquality(e algebra.Expr, innerSchema interface{ Has(string) bool },
	outerSchema interface{ Has(string) bool }) (outerCol, innerCol string, ok bool) {
	cmp, isCmp := e.(*algebra.CmpExpr)
	if !isCmp || cmp.Op != types.EQ {
		return "", "", false
	}
	l, lok := cmp.L.(*algebra.ColRef)
	r, rok := cmp.R.(*algebra.ColRef)
	if !lok || !rok {
		return "", "", false
	}
	switch {
	case !innerSchema.Has(l.Name) && innerSchema.Has(r.Name) && outerSchema.Has(l.Name):
		return l.Name, r.Name, true
	case !innerSchema.Has(r.Name) && innerSchema.Has(l.Name) && outerSchema.Has(r.Name):
		return r.Name, l.Name, true
	default:
		return "", "", false
	}
}
