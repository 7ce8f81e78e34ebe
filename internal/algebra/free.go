package algebra

import "slices"

// FreeColumns returns the sorted, deduplicated set of attribute names the
// plan references but does not itself produce — the correlation
// attributes when the plan is a nested query block. F(e) in the paper's
// notation. Names produced anywhere inside the plan are not free even
// when referenced from a sibling subtree of a DAG (so checking each
// reference against its own operator's inputs would add nothing: those
// are produced too).
func FreeColumns(plan Op) []string {
	var buf [16]Op
	ops, refs := gather(plan, buf[:0], make([]string, 0, 8))
	var out []string
	for _, c := range refs {
		if !slices.ContainsFunc(ops, func(op Op) bool { return op.Schema().Has(c) }) {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// gather appends to ops every operator of the plan below op not in it
// yet, each once, and to refs the columns their expressions reference.
// A plan is a handful of operators, so ops is searched rather than
// hashed.
func gather(op Op, ops []Op, refs []string) ([]Op, []string) {
	if slices.Contains(ops, op) {
		return ops, refs
	}
	ops = append(ops, op)
	var ex [4]Expr
	for _, e := range AppendExprs(ex[:0], op) {
		refs = e.Columns(refs)
	}
	var in [2]Op
	for _, i := range appendInputs(in[:0], op) {
		ops, refs = gather(i, ops, refs)
	}
	return ops, refs
}
