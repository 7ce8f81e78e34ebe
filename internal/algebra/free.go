package algebra

import "sort"

// exprsOf returns the expressions attached directly to an operator.
func exprsOf(op Op) []Expr {
	switch x := op.(type) {
	case *Select:
		return []Expr{x.Pred}
	case *BypassSelect:
		return []Expr{x.Pred}
	case *Join:
		return []Expr{x.Pred}
	case *LeftOuterJoin:
		return []Expr{x.Pred}
	case *SemiJoin:
		return []Expr{x.Pred}
	case *AntiJoin:
		return []Expr{x.Pred}
	case *MapOp:
		return []Expr{x.Expr}
	case *GroupBy:
		out := make([]Expr, 0, len(x.Aggs))
		for _, a := range x.Aggs {
			if a.Arg != nil {
				out = append(out, a.Arg)
			}
		}
		return out
	case *BinaryGroup:
		out := []Expr{x.Pred}
		for _, a := range x.Aggs {
			if a.Arg != nil {
				out = append(out, a.Arg)
			}
		}
		return out
	default:
		return nil
	}
}

// Exprs returns the expressions attached directly to an operator — the
// exported view physical lowering uses to find nested subquery plans.
func Exprs(op Op) []Expr { return exprsOf(op) }

// Subplans returns every nested query-block plan embedded in the
// expression, at any depth, in left-to-right discovery order. It does
// not descend into the subplans themselves; callers recurse via the
// plans' own operators when they need the full closure.
func Subplans(e Expr) []Op {
	var out []Op
	collectSubplans(e, &out)
	return out
}

func collectSubplans(e Expr, out *[]Op) {
	switch x := e.(type) {
	case *ScalarSubquery:
		*out = append(*out, x.Plan)
		if x.Arg != nil {
			collectSubplans(x.Arg, out)
		}
	case *QuantSubquery:
		if x.L != nil {
			collectSubplans(x.L, out)
		}
		*out = append(*out, x.Plan)
	case *AllAnyExpr:
		if x.L != nil {
			collectSubplans(x.L, out)
		}
		*out = append(*out, x.Plan)
	case *CmpExpr:
		collectSubplans(x.L, out)
		collectSubplans(x.R, out)
	case *AndExpr:
		collectSubplans(x.L, out)
		collectSubplans(x.R, out)
	case *OrExpr:
		collectSubplans(x.L, out)
		collectSubplans(x.R, out)
	case *NotExpr:
		collectSubplans(x.E, out)
	case *ArithExpr:
		collectSubplans(x.L, out)
		collectSubplans(x.R, out)
	case *LikeExpr:
		collectSubplans(x.L, out)
		collectSubplans(x.Pattern, out)
	case *IsNullExpr:
		collectSubplans(x.E, out)
	case *AggCombineExpr:
		collectSubplans(x.L, out)
		collectSubplans(x.R, out)
	}
}

// FreeColumns returns the sorted, deduplicated set of attribute names the
// plan references but does not itself produce — the correlation
// attributes when the plan is a nested query block. F(e) in the paper's
// notation. Names produced anywhere inside the plan are not free even
// when referenced from a sibling subtree of a DAG.
func FreeColumns(plan Op) []string {
	free := map[string]bool{}
	collectFree(plan, free)
	produced := map[string]bool{}
	collectProduced(plan, produced)
	out := make([]string, 0, len(free))
	for n := range free {
		if !produced[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func collectFree(op Op, free map[string]bool) {
	// Attributes available to this operator's expressions: the union of
	// its inputs' schemas (expressions see the concatenated tuple).
	avail := map[string]bool{}
	for _, in := range op.Inputs() {
		for _, a := range in.Schema().Attrs() {
			avail[a] = true
		}
	}
	for _, e := range exprsOf(op) {
		for _, c := range e.Columns(nil) {
			if !avail[c] {
				free[c] = true
			}
		}
	}
	for _, in := range op.Inputs() {
		collectFree(in, free)
	}
}

// Correlated reports whether the plan references outer attributes.
func Correlated(plan Op) bool {
	return len(FreeColumns(plan)) > 0
}

func collectProduced(op Op, produced map[string]bool) {
	for _, a := range op.Schema().Attrs() {
		produced[a] = true
	}
	for _, in := range op.Inputs() {
		collectProduced(in, produced)
	}
}
