package physical

import (
	"fmt"

	"disqo/internal/algebra"
)

// Explain renders a physical plan as an indented tree with estimated
// cardinalities. Nodes reached through more than one path (a DAG's
// shared subplans) are printed once in full and subsequently referenced
// as "↑ see #n", mirroring the logical algebra's EXPLAIN so the two
// printouts line up.
func Explain(root Node) string {
	return ExplainAnnotated(root, func(n Node) string { return fmt.Sprintf("(est %.0f rows)", n.EstRows()) })
}

// ExplainAnnotated is Explain with the per-node annotation taken from
// the callback instead of the planner's estimate — EXPLAIN ANALYZE
// passes actual row counts and timings. Shared DAG nodes are annotated
// at their defining occurrence only.
func ExplainAnnotated(root Node, annot func(Node) string) string {
	return algebra.ExplainDAG(root, Node.Label, eachChild, annot)
}

// Walk visits every node of the plan exactly once (pre-order,
// DAG-aware) and calls fn; returning false prunes the node's children.
func Walk(root Node, fn func(Node) bool) { algebra.WalkDAG(root, eachChild, fn) }

func eachChild(n Node, fn func(Node)) {
	for _, c := range n.Children() {
		fn(c)
	}
}
