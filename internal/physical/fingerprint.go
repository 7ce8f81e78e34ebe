package physical

import (
	"fmt"
	"hash/fnv"
	"io"
)

// Fingerprint returns a stable identity for a set of physical plans —
// the main plan first, then any subquery plans evaluated from operator
// expressions. Two invocations over structurally identical plans (same
// operators, same algorithm choices, same predicates and columns)
// produce the same fingerprint regardless of planner instance or node
// IDs, which is what lets the result cache key on "the plan the
// executor would run" rather than on SQL text: queries that normalize
// to the same physical plan share one cache entry.
//
// The hash covers each node's Label() — which renders the operator,
// its algorithm, predicates, key columns, and schema-derived attribute
// names — plus the DAG structure: shared subplans hash as back
// references, so a tree and a DAG that happen to print the same labels
// in pre-order still fingerprint differently.
func Fingerprint(roots ...Node) uint64 {
	h := fnv.New64a()
	ids := make(map[Node]int)
	var visit func(n Node)
	visit = func(n Node) {
		if id, ok := ids[n]; ok {
			fmt.Fprintf(h, "#%d;", id)
			return
		}
		ids[n] = len(ids)
		io.WriteString(h, n.Label())
		io.WriteString(h, "(")
		for _, c := range n.Children() {
			visit(c)
		}
		io.WriteString(h, ")")
	}
	for _, r := range roots {
		visit(r)
		io.WriteString(h, "|")
	}
	return h.Sum64()
}
