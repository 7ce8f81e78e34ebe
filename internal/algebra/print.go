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
	counts := map[Op]int{}
	countRefs(root, counts)
	var b strings.Builder
	ids := map[Op]int{}
	nextID := 1
	var walk func(op Op, depth int)
	walk = func(op Op, depth int) {
		indent := strings.Repeat("  ", depth)
		if id, seen := ids[op]; seen {
			fmt.Fprintf(&b, "%s↑ see #%d %s\n", indent, id, op.Label())
			return
		}
		label := op.Label()
		if annotate != nil {
			if extra := annotate(op); extra != "" {
				label += "  " + extra
			}
		}
		if counts[op] > 1 {
			ids[op] = nextID
			fmt.Fprintf(&b, "%s#%d %s\n", indent, nextID, label)
			nextID++
		} else {
			fmt.Fprintf(&b, "%s%s\n", indent, label)
		}
		EachInput(op, func(in Op) { walk(in, depth+1) })
	}
	walk(root, 0)
	return b.String()
}

func countRefs(op Op, counts map[Op]int) {
	counts[op]++
	if counts[op] > 1 {
		return
	}
	EachInput(op, func(in Op) { countRefs(in, counts) })
}

// Walk visits every operator of the plan exactly once (pre-order,
// DAG-aware) and calls fn; returning false prunes the node's inputs.
func Walk(root Op, fn func(Op) bool) {
	seen := map[Op]bool{}
	var rec func(Op)
	rec = func(op Op) {
		if seen[op] {
			return
		}
		seen[op] = true
		if !fn(op) {
			return
		}
		EachInput(op, rec)
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
