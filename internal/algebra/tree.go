package algebra

import "fmt"

// This file states the shape of the two trees once. An operator has
// inputs (Op.Inputs) and attached expressions (Exprs); an expression has
// child expressions and, for the three subquery kinds, an embedded plan
// (exprParts). withParts and exprWithParts rebuild a node of the same
// kind over new parts. Every other traversal — the generic maps
// MapChildren and MapExprChildren, HasSubquery, SubqueryExprs,
// NestedPlans, WalkNested, the rewriter's recursion — is derived from
// these, so a new node kind costs one arm to read and one to rebuild
// here, plus the layers that give it meaning (stats, physical lowering,
// exec, vec).

// EachInput calls fn for each of op's inputs, in Inputs' order, without
// building the slice: for the traversals that run per planned statement.
func EachInput(op Op, fn func(Op)) {
	x, ok := op.(interface{ inputs() (Op, Op) })
	if !ok { // Scan
		return
	}
	l, r := x.inputs()
	fn(l)
	if r != nil {
		fn(r)
	}
}

// Exprs returns the expressions attached directly to an operator, in the
// order withParts takes them back.
func Exprs(op Op) []Expr {
	switch x := op.(type) {
	case *Select:
		return []Expr{x.Pred}
	case *BypassSelect:
		return []Expr{x.Pred}
	case *MapOp:
		return []Expr{x.Expr}
	case *Join:
		return []Expr{x.Pred}
	case *SemiJoin:
		return []Expr{x.Pred}
	case *AntiJoin:
		return []Expr{x.Pred}
	case *LeftOuterJoin:
		return []Expr{x.Pred}
	case *GroupBy:
		return aggArgs(nil, x.Aggs)
	case *BinaryGroup:
		return aggArgs([]Expr{x.Pred}, x.Aggs)
	default:
		return nil
	}
}

// aggArgs appends the aggregates' arguments; Star aggregates have none.
func aggArgs(into []Expr, aggs []AggItem) []Expr {
	for _, a := range aggs {
		if a.Arg != nil {
			into = append(into, a.Arg)
		}
	}
	return into
}

// withArgs is aggArgs' inverse: the items with their arguments replaced,
// in order, from args.
func withArgs(aggs []AggItem, args []Expr) []AggItem {
	out := make([]AggItem, len(aggs))
	for i, a := range aggs {
		if a.Arg != nil {
			a.Arg, args = args[0], args[1:]
		}
		out[i] = a
	}
	return out
}

// withParts rebuilds an operator of op's kind over new inputs (as
// Inputs orders them) and new attached expressions (as Exprs orders
// them); everything else — attribute lists, defaults, keys, the tag — is
// op's. Schemas are re-derived by the constructors.
func withParts(op Op, in []Op, ex []Expr) (Op, error) {
	switch x := op.(type) {
	case *Select:
		return NewSelect(in[0], ex[0]), nil
	case *BypassSelect:
		return NewBypassSelect(in[0], ex[0]), nil
	case *Stream:
		return &Stream{Source: in[0], Positive: x.Positive}, nil
	case *Project:
		return NewProject(in[0], x.Attrs), nil
	case *Rename:
		return NewRename(in[0], x.Pairs)
	case *MapOp:
		return NewMap(in[0], x.Attr, ex[0]), nil
	case *CrossProduct:
		return NewCross(in[0], in[1]), nil
	case *Join:
		return NewJoin(in[0], in[1], ex[0]), nil
	case *SemiJoin:
		return NewSemiJoin(in[0], in[1], ex[0]), nil
	case *AntiJoin:
		return NewAntiJoin(in[0], in[1], ex[0]), nil
	case *LeftOuterJoin:
		return NewLeftOuterJoin(in[0], in[1], ex[0], x.Defaults), nil
	case *GroupBy:
		return NewGroupBy(in[0], x.Attrs, withArgs(x.Aggs, ex), x.Global), nil
	case *BinaryGroup:
		bg := NewBinaryGroup(in[0], in[1], ex[0], withArgs(x.Aggs, ex[1:]))
		bg.Tag = x.Tag
		return bg, nil
	case *UnionDisjoint:
		return NewUnionDisjoint(in[0], in[1]), nil
	case *UnionAll:
		return NewUnionAll(in[0], in[1]), nil
	case *Distinct:
		return NewDistinct(in[0]), nil
	case *Limit:
		return NewLimit(in[0], x.N), nil
	case *Sort:
		return NewSort(in[0], x.Keys), nil
	default:
		return nil, fmt.Errorf("algebra: unknown operator %T", op)
	}
}

// exprParts appends e's child expressions to into and returns them with
// the plan e embeds (nil unless e is a subquery). Optional operands — a
// Star aggregate's argument, EXISTS' left side — appear as nil children,
// so positions are fixed per kind. Leaves (and nil) have no parts.
func exprParts(e Expr, into []Expr) (kids []Expr, plan Op) {
	switch x := e.(type) {
	case *CmpExpr:
		return append(into, x.L, x.R), nil
	case *AndExpr:
		return append(into, x.L, x.R), nil
	case *OrExpr:
		return append(into, x.L, x.R), nil
	case *NotExpr:
		return append(into, x.E), nil
	case *ArithExpr:
		return append(into, x.L, x.R), nil
	case *LikeExpr:
		return append(into, x.L, x.Pattern), nil
	case *IsNullExpr:
		return append(into, x.E), nil
	case *IsTrueExpr:
		return append(into, x.E), nil
	case *ScalarSubquery:
		return append(into, x.Arg), x.Plan
	case *QuantSubquery:
		return append(into, x.L), x.Plan
	case *AllAnyExpr:
		return append(into, x.L), x.Plan
	default:
		return into, nil
	}
}

// exprWithParts rebuilds an expression of e's kind over the parts
// exprParts reported, replaced.
func exprWithParts(e Expr, kids []Expr, plan Op) Expr {
	switch x := e.(type) {
	case *CmpExpr:
		return Cmp(x.Op, kids[0], kids[1])
	case *AndExpr:
		return &AndExpr{binaryExpr{kids[0], kids[1]}}
	case *OrExpr:
		return &OrExpr{binaryExpr{kids[0], kids[1]}}
	case *NotExpr:
		return Not(kids[0])
	case *ArithExpr:
		return Arith(x.Op, kids[0], kids[1])
	case *LikeExpr:
		return Like(kids[0], kids[1])
	case *IsNullExpr:
		return IsNull(kids[0])
	case *IsTrueExpr:
		return IsTrue(kids[0])
	case *ScalarSubquery:
		return Subquery(x.Agg, kids[0], plan)
	case *QuantSubquery:
		return Quant(x.Quant, kids[0], plan)
	case *AllAnyExpr:
		return AllAny(x.Op, x.All, kids[0], plan)
	default:
		return e
	}
}

// mapEach replaces every non-nil element of xs by f's result and
// reports whether any came back different.
func mapEach[T comparable](xs []T, f func(T) (T, error)) (changed bool, err error) {
	var none T
	for i, x := range xs {
		if x == none {
			continue
		}
		n, err := f(x)
		if err != nil {
			return false, err
		}
		if n != x {
			xs[i], changed = n, true
		}
	}
	return changed, nil
}

// MapChildren applies in to each of op's inputs and then ex to each of
// its attached expressions, and returns an operator of the same kind
// over the results — op itself when every one came back
// pointer-identical, so a traversal that changes nothing allocates no
// node and shared (DAG) structure stays shared.
func MapChildren(op Op, in func(Op) (Op, error), ex func(Expr) (Expr, error)) (Op, error) {
	ins, exs := op.Inputs(), Exprs(op)
	newIn, err := mapEach(ins, in)
	if err != nil {
		return nil, err
	}
	newEx, err := mapEach(exs, ex)
	if err != nil {
		return nil, err
	}
	if !newIn && !newEx {
		return op, nil
	}
	return withParts(op, ins, exs)
}

// MapExprChildren applies plan to the plan e embeds (if any; a nil plan
// function leaves it alone) and then f to each child expression, and
// returns an expression of the same kind over the results — e itself
// when every one came back pointer-identical.
func MapExprChildren(e Expr, f func(Expr) (Expr, error), plan func(Op) (Op, error)) (Expr, error) {
	var buf [2]Expr
	kids, p := exprParts(e, buf[:0])
	plans := [1]Op{p}
	newPlan := false
	if plan != nil {
		var err error
		if newPlan, err = mapEach(plans[:], plan); err != nil {
			return nil, err
		}
	}
	newKids, err := mapEach(kids, f)
	if err != nil {
		return nil, err
	}
	if !newPlan && !newKids {
		return e, nil
	}
	return exprWithParts(e, kids, plans[0]), nil
}

// walkExpr calls fn for e and the plan it embeds (nil unless e is a
// subquery) and, while fn returns true, for e's child expressions,
// pre-order. It never descends into the embedded plans.
func walkExpr(e Expr, fn func(x Expr, plan Op) bool) {
	var buf [2]Expr
	kids, plan := exprParts(e, buf[:0])
	if e == nil || !fn(e, plan) {
		return
	}
	for _, k := range kids {
		walkExpr(k, fn)
	}
}

// HasSubquery reports whether the expression contains any subquery
// (scalar or quantified) at any depth, not descending into subplans.
func HasSubquery(e Expr) bool {
	found := false
	walkExpr(e, func(_ Expr, plan Op) bool {
		found = found || plan != nil
		return !found
	})
	return found
}

// SubqueryExprs returns the subquery expressions — ScalarSubquery,
// QuantSubquery, AllAnyExpr — that appear in e outside any other
// subquery: neither a subquery's operand nor its plan is searched.
func SubqueryExprs(e Expr) []Expr {
	var out []Expr
	walkExpr(e, func(x Expr, plan Op) bool {
		if plan != nil {
			out = append(out, x)
		}
		return plan == nil
	})
	return out
}

// NestedPlans returns the query blocks embedded in op's attached
// expressions at any depth, a subquery's own plan before those inside
// its operand. It does not descend into the blocks; WalkNested does.
func NestedPlans(op Op) []Op {
	var out []Op
	for _, e := range Exprs(op) {
		walkExpr(e, func(_ Expr, plan Op) bool {
			if plan != nil {
				out = append(out, plan)
			}
			return true
		})
	}
	return out
}

// WalkNested calls fn (if non-nil) once for every operator of the plan
// and of every query block nested in operator expressions, and returns
// those blocks' roots: outermost first, depth-first, deduplicated — the
// order ANALYZE numbers subquery plans in. A block is walked where it is
// discovered, before the inputs of the operator embedding it.
func WalkNested(root Op, fn func(Op)) []Op {
	var blocks []Op
	seenOp, seenBlock := map[Op]bool{}, map[Op]bool{}
	var visit func(Op)
	visit = func(op Op) {
		if seenOp[op] {
			return
		}
		seenOp[op] = true
		if fn != nil {
			fn(op)
		}
		for _, sp := range NestedPlans(op) {
			if !seenBlock[sp] {
				seenBlock[sp] = true
				blocks = append(blocks, sp)
				visit(sp)
			}
		}
		for _, in := range op.Inputs() {
			visit(in)
		}
	}
	visit(root)
	return blocks
}
