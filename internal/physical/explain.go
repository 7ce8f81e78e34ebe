package physical

import (
	"fmt"
	"strings"
)

// Explain renders a physical plan as an indented tree with estimated
// cardinalities. Nodes reached through more than one path (the DAG
// sharing bypass plans introduce) are printed once in full and
// subsequently referenced as "↑ see #n", mirroring the logical
// algebra's EXPLAIN so the two printouts line up.
func Explain(root Node) string {
	return ExplainAnnotated(root, func(n Node) string { return fmt.Sprintf("(est %.0f rows)", n.EstRows()) })
}

// ExplainAnnotated is Explain with the per-node annotation taken from
// the callback instead of the planner's estimate — EXPLAIN ANALYZE
// passes actual row counts and timings. Shared DAG nodes are annotated
// at their defining occurrence only.
func ExplainAnnotated(root Node, annot func(Node) string) string {
	counts := map[Node]int{}
	countRefs(root, counts)
	var b strings.Builder
	ids := map[Node]int{}
	nextID := 1
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if id, seen := ids[n]; seen {
			fmt.Fprintf(&b, "%s↑ see #%d %s\n", indent, id, n.Label())
			return
		}
		label := n.Label()
		if a := annot(n); a != "" {
			label += "  " + a
		}
		if counts[n] > 1 {
			ids[n] = nextID
			fmt.Fprintf(&b, "%s#%d %s\n", indent, nextID, label)
			nextID++
		} else {
			fmt.Fprintf(&b, "%s%s\n", indent, label)
		}
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

func countRefs(n Node, counts map[Node]int) {
	counts[n]++
	if counts[n] > 1 {
		return
	}
	for _, c := range n.Children() {
		countRefs(c, counts)
	}
}

// Walk visits every node of the plan exactly once (pre-order,
// DAG-aware) and calls fn; returning false prunes the node's children.
func Walk(root Node, fn func(Node) bool) {
	seen := map[Node]bool{}
	var rec func(Node)
	rec = func(n Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if !fn(n) {
			return
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(root)
}
