package physical

import (
	"disqo/internal/algebra"
	"disqo/internal/storage"
	"disqo/internal/types"
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
//	Γ² (BinaryGroup): when nothing in the node is interpreted — each
//	    grouping hashes on pure equality (no per-pair predicate, not
//	    sort-based), a tag, if it has one, compiles against its right
//	    input's schema, and every aggregate is fed * or a column of its
//	    right input — and either a fused selection (Keep) whose every
//	    disjunct compiled against the left input ◦ the results
//	    (Disjunct.Vec; the bypass operands compile by construction),
//	    which the executor decides by selection vectors, or no fused
//	    selection and every grouping tagged. Q1, Q2, Q3, the quantified
//	    query and Query 2d of Fig. 7 are each one such Γ².
//	Everything else: no.
//
// A node may run a compiled program without counting as vector-served:
// a tagged Γ² whose tag compiled runs it on the vector path even where
// it interprets its pairs or an aggregate argument, and a sort-based
// or nested-loop Γ² runs its compiled bypass operands and disjuncts,
// though it interprets its pairs or searches its sorted fold. Compiled
// is that wider set. The executor fires the vec fault site on
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
		// A disjunct keeps its operands' order: the interpreter's, so
		// both paths charge the same comparisons.
		for i := range x.Rest {
			if d := &x.Rest[i]; d.Vec == nil {
				d.Vec, _ = vec.CompilePred(d.Pred, resultColumns{x})
			}
		}
	}
}

// resultColumns resolves a column of a binary grouping's left row ◦ its
// results, where its fused selection reads them.
type resultColumns struct{ b *BinaryGroup }

func (c resultColumns) Column(name string) (int, bool) {
	l := c.b.L.Schema()
	if i := l.Index(name); i >= 0 {
		return i, true
	}
	if i := c.b.Results.Index(name); i >= 0 {
		return l.Len() + i, true
	}
	return 0, false
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
		tagged := true
		for i := range x.Groupings {
			g := &x.Groupings[i]
			if g.LCols == nil || g.Theta != types.EQ || g.Tag != nil && g.VecTag == nil || !columnAggs(g.Aggs, g.R.Schema()) {
				return false
			}
			tagged = tagged && g.Tag != nil
		}
		if x.Keep == nil {
			return tagged
		}
		for i := range x.Rest {
			if x.Rest[i].Vec == nil {
				return false
			}
		}
		return true
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
		for i := range bg.Rest {
			if bg.Rest[i].Vec != nil {
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
