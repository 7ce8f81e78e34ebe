package physical

import (
	"disqo/internal/algebra"
	"disqo/internal/storage"
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
//	Filter: the predicate compiles against the child schema — every
//	    column reference resolves locally (no outer correlation) and no
//	    subquery/quantifier appears.
//	Map: the expression compiles, same conditions.
//	Scan, Project, and a hash Join without residual: always — they
//	    evaluate no expression, so no interpreter runs in them (a
//	    residual is interpreted per matched pair).
//	Tagged Γ² (BinaryGroup whose groupings all have a Tag): when each
//	    tag compiles against its grouping's right input's schema and
//	    nothing else in the node is interpreted — each grouping hashes
//	    on pure equality (no per-pair predicate) and feeds every
//	    aggregate * or a column of its right input, and there is no
//	    fused selection.
//	Everything else: no.
//
// A node may run a compiled program without counting as vector-served:
// a tagged Γ² whose tag compiled runs it on the vector path even where
// it interprets its pairs, its Keep or an aggregate argument, and a Γ²
// whose fused disjunction has bypass operands (BinaryGroup.Bypass, split
// off by the planner only where they compile) runs them compiled over
// its left input, though it interprets the rest of the disjunction.
// Compiled is that wider set. The executor fires the vec fault site on
// every node in it and credits VecCalls only to the Vectorizable ones,
// so EXPLAIN's path annotation and the VecCalls counter agree, and every
// compiled program stays reachable by the fault injector.
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
		if pr, err := vec.CompilePred(p.est.Order(x.Pred, x.Child.Logical()), Columns(x.Child.Schema())); err == nil {
			x.VecPred = pr
		}
	case *Map:
		if sc, err := vec.CompileScalar(x.Expr, Columns(x.Child.Schema())); err == nil {
			x.VecExpr = sc
		}
	case *BinaryGroup:
		for i := range x.Groupings {
			if g := &x.Groupings[i]; g.Tag != nil && g.VecTag == nil {
				if pr, err := vec.CompilePred(p.est.Order(g.Tag, g.R.Logical()), Columns(g.R.Schema())); err == nil {
					g.VecTag = pr
				}
			}
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
	case *Map:
		return x.VecExpr != nil
	case *Join:
		return x.LCols != nil && x.Pred == nil
	case *BinaryGroup:
		for i := range x.Groupings {
			if g := &x.Groupings[i]; g.VecTag == nil || g.LCols == nil || !columnAggs(g.Aggs, g.R.Schema()) {
				return false
			}
		}
		return x.Keep == nil
	default:
		return false
	}
}

// Compiled reports whether the vector path runs compiled code in the
// node: every Vectorizable node, and a Γ² where a tag or the bypass
// operands compiled.
func Compiled(n Node) bool {
	if bg, ok := n.(*BinaryGroup); ok {
		for i := range bg.Groupings {
			if bg.Groupings[i].VecTag != nil {
				return true
			}
		}
		return bg.VecBypass != nil
	}
	return Vectorizable(n)
}

// columnAggs reports whether every aggregate is fed by a column of its
// input rs, or by the whole row, with no expression evaluated.
func columnAggs(aggs []algebra.AggItem, rs *storage.Schema) bool {
	for _, a := range aggs {
		if a.Arg == nil {
			continue
		}
		if ref, ok := a.Arg.(*algebra.ColRef); !ok || !rs.Has(ref.Name) {
			return false
		}
	}
	return true
}
