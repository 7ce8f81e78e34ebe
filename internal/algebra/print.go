package algebra

import (
	"fmt"
	"strings"
)

// PlanInline renders a plan as a compact one-line expression, used inside
// expression strings for nested subqueries.
func PlanInline(op Op) string {
	var buf [2]Op
	ins := appendInputs(buf[:0], op)
	switch len(ins) {
	case 0:
		return op.Label()
	case 1:
		return fmt.Sprintf("%s(%s)", op.Label(), PlanInline(ins[0]))
	default:
		parts := make([]string, len(ins))
		for i, in := range ins {
			parts[i] = PlanInline(in)
		}
		return fmt.Sprintf("%s(%s)", op.Label(), strings.Join(parts, ", "))
	}
}

// Explain renders a plan as an indented tree. Operators reached through
// more than one path (the DAG sharing bypass plans introduce) are printed
// once in full and subsequently referenced as "↑ see #n", so the printout
// makes the plan's DAG structure visible — the property §5/[23] of the
// paper discuss.
func Explain(root Op) string { return ExplainAnnotated(root, nil) }

// ExplainAnnotated renders like Explain, appending annotate(op) (when
// non-empty) to each operator line — EXPLAIN ANALYZE output uses it to
// attach actual row counts.
func ExplainAnnotated(root Op, annotate func(Op) string) string {
	return ExplainDAG(root, Op.Label, EachInput, annotate)
}

// Walk visits every operator of the plan exactly once (pre-order,
// DAG-aware) and calls fn; returning false prunes the node's inputs.
func Walk(root Op, fn func(Op) bool) { WalkDAG(root, EachInput, fn) }

// ExplainDAG renders a plan of any node type — a logical operator, a
// physical node — as an indented tree: label names a node, inputs visits
// its inputs, and annotate (nil for none) adds a non-empty note to its
// line. A node reached through more than one path is printed once in
// full, numbered, then as "↑ see #n", and annotated once.
func ExplainDAG[N comparable](root N, label func(N) string, inputs func(N, func(N)), annotate func(N) string) string {
	counts := map[N]int{}
	var count func(N)
	count = func(n N) {
		if counts[n]++; counts[n] == 1 {
			inputs(n, count)
		}
	}
	count(root)
	var b strings.Builder
	ids := map[N]int{}
	var walk func(n N, depth int)
	walk = func(n N, depth int) {
		indent := strings.Repeat("  ", depth)
		if id, seen := ids[n]; seen {
			fmt.Fprintf(&b, "%s↑ see #%d %s\n", indent, id, label(n))
			return
		}
		line := label(n)
		if annotate != nil {
			if extra := annotate(n); extra != "" {
				line += "  " + extra
			}
		}
		if counts[n] > 1 {
			ids[n] = len(ids) + 1
			fmt.Fprintf(&b, "%s#%d %s\n", indent, ids[n], line)
		} else {
			fmt.Fprintf(&b, "%s%s\n", indent, line)
		}
		inputs(n, func(in N) { walk(in, depth+1) })
	}
	walk(root, 0)
	return b.String()
}

// WalkDAG visits every node of a plan of any node type exactly once
// (pre-order) and calls fn; returning false prunes the node's inputs.
func WalkDAG[N comparable](root N, inputs func(N, func(N)), fn func(N) bool) {
	seen := map[N]bool{}
	var rec func(N)
	rec = func(n N) {
		if !seen[n] {
			seen[n] = true
			if fn(n) {
				inputs(n, rec)
			}
		}
	}
	rec(root)
}

// ContainsSubquery reports whether any operator in the plan still embeds
// a nested subquery in one of its expressions — i.e. the plan is not
// fully unnested. It does not descend into the subplans themselves.
func ContainsSubquery(root Op) bool {
	found := false
	Walk(root, func(op Op) bool {
		for _, e := range AppendExprs(nil, op) {
			found = found || HasSubquery(e)
		}
		return !found
	})
	return found
}
