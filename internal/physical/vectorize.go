package physical

import (
	"sort"

	"disqo/internal/algebra"
	"disqo/internal/vec"
)

// Program selection: after lowering each node the planner compiles the
// node's expressions into columnar programs (internal/vec) where they
// compile. The decision is static and per node — other nodes keep their
// compiled fields nil and the executor interprets their expressions per
// row, so a plan freely mixes both evaluators.
//
// Which nodes count as served by the vector path (Vectorizable):
//
//	Filter, σ± (BypassFilter): the predicate compiles against the
//	    child schema — every column reference resolves locally (no
//	    outer correlation) and no subquery/quantifier appears.
//	Map: the expression compiles, same conditions.
//	Scan, Project, HashJoin without residual: always — they evaluate
//	    no expression, so no interpreter runs in them (a residual is
//	    interpreted per matched pair).
//	Everything else: no.
//
// Before compiling a predicate the planner orders every AND/OR operand
// list by the estimator's Slagle rank — conjuncts ascending by
// (selectivity−1)/cost, disjuncts by the dual (descending
// selectivity/cost) — the BestD discipline for disjunctive predicates:
// the vectorized OR evaluates its cheapest, highest-yield disjunct
// first and each later disjunct only over the rows still undecided.
// The reordering lives only in the compiled program; Pred and the plan
// labels are untouched, so EXPLAIN output and golden plans are stable.

// vectorize annotates one freshly lowered node with its compiled
// columnar programs. Compile failures are not errors — they mean
// "interpret".
func (p *Planner) vectorize(n Node) {
	switch x := n.(type) {
	case *Filter:
		if pr, err := vec.CompilePred(p.orderPred(x.Pred, x.Child.Logical()), x.Child.Schema()); err == nil {
			x.VecPred = pr
		}
	case *BypassFilter:
		if pr, err := vec.CompilePred(p.orderPred(x.Pred, x.Child.Logical()), x.Child.Schema()); err == nil {
			x.VecPred = pr
		}
	case *Map:
		if sc, err := vec.CompileScalar(x.Expr, x.Child.Schema()); err == nil {
			x.VecExpr = sc
		}
	}
}

// orderPred returns pred with every AND/OR operand list re-ranked by
// estimated cost-effectiveness (stable, so equal ranks keep source
// order and plans stay deterministic). input is the logical operator
// producing the predicate's input, which grounds the estimator's
// selectivities.
func (p *Planner) orderPred(pred algebra.Expr, input algebra.Op) algebra.Expr {
	switch x := pred.(type) {
	case *algebra.AndExpr:
		parts := p.orderParts(algebra.SplitConjuncts(x), input)
		// Conjuncts ascending by Slagle rank (sel−1)/cost: the most
		// selective-per-unit-cost term first eliminates the most rows.
		sort.SliceStable(parts, func(i, j int) bool {
			return p.est.Rank(parts[i], input) < p.est.Rank(parts[j], input)
		})
		return algebra.And(parts...)
	case *algebra.OrExpr:
		parts := p.orderParts(algebra.SplitDisjuncts(x), input)
		// Disjuncts by the dual rank, descending selectivity/cost: the
		// term that decides the most rows per unit cost runs first and
		// shrinks the undecided set for the expensive tail (BestD).
		sort.SliceStable(parts, func(i, j int) bool {
			return p.disjunctGain(parts[i], input) > p.disjunctGain(parts[j], input)
		})
		return algebra.Or(parts...)
	case *algebra.NotExpr:
		return algebra.Not(p.orderPred(x.E, input))
	case *algebra.IsTrueExpr:
		return algebra.IsTrue(p.orderPred(x.E, input))
	default:
		return pred
	}
}

func (p *Planner) orderParts(parts []algebra.Expr, input algebra.Op) []algebra.Expr {
	out := make([]algebra.Expr, len(parts))
	for i, e := range parts {
		out[i] = p.orderPred(e, input)
	}
	return out
}

// disjunctGain is the OR dual of the Slagle rank: rows decided (TRUE)
// per unit of predicate cost.
func (p *Planner) disjunctGain(e algebra.Expr, input algebra.Op) float64 {
	return p.est.Selectivity(e, input) / p.est.PredCost(e)
}

// Vectorizable reports whether the node runs without the expression
// interpreter when the executor's vector path is on — the static half
// of the path decision: EXPLAIN annotates nodes with it before anything
// runs, and the executor credits VecCalls by it.
func Vectorizable(n Node) bool {
	switch x := n.(type) {
	case *Scan, *Project:
		return true
	case *Filter:
		return x.VecPred != nil
	case *BypassFilter:
		return x.VecPred != nil
	case *Map:
		return x.VecExpr != nil
	case *Stream:
		src, ok := x.Source.(*BypassFilter)
		return ok && src.VecPred != nil
	case *HashJoin:
		return x.Residual == nil
	default:
		return false
	}
}
