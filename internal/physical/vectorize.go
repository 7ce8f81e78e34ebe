package physical

import "disqo/internal/vec"

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
// list by stats.Estimator.Order — descending by the share of rows an
// operand decides per unit of cost, (1−sel)/cost for conjuncts and
// sel/cost for disjuncts — the BestD discipline for disjunctive
// predicates: the vectorized OR evaluates its cheapest, highest-yield
// disjunct first and each later disjunct only over the rows still
// undecided. The reordering lives only in the compiled program; Pred
// and the plan labels are untouched, so EXPLAIN output and golden plans
// are stable.

// vectorize annotates one freshly lowered node with its compiled
// columnar programs. Compile failures are not errors — they mean
// "interpret".
func (p *Planner) vectorize(n Node) {
	switch x := n.(type) {
	case *Filter:
		if pr, err := vec.CompilePred(p.est.Order(x.Pred, x.Child.Logical()), x.Child.Schema()); err == nil {
			x.VecPred = pr
		}
	case *BypassFilter:
		if pr, err := vec.CompilePred(p.est.Order(x.Pred, x.Child.Logical()), x.Child.Schema()); err == nil {
			x.VecPred = pr
		}
	case *Map:
		if sc, err := vec.CompileScalar(x.Expr, x.Child.Schema()); err == nil {
			x.VecExpr = sc
		}
	}
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
