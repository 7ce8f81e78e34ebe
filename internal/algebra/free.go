package algebra

import "sort"

// FreeColumns returns the sorted, deduplicated set of attribute names the
// plan references but does not itself produce — the correlation
// attributes when the plan is a nested query block. F(e) in the paper's
// notation. Names produced anywhere inside the plan are not free even
// when referenced from a sibling subtree of a DAG (so checking each
// reference against its own operator's inputs would add nothing: those
// are produced too).
func FreeColumns(plan Op) []string {
	var refs []string
	produced := map[string]bool{}
	Walk(plan, func(op Op) bool {
		for _, a := range op.Schema().Attrs() {
			produced[a] = true
		}
		for _, e := range Exprs(op) {
			refs = e.Columns(refs)
		}
		return true
	})
	var out []string
	for _, c := range refs {
		if !produced[c] {
			produced[c] = true // report each name once
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Correlated reports whether the plan references outer attributes.
func Correlated(plan Op) bool {
	return len(FreeColumns(plan)) > 0
}
