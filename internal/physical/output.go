package physical

// Output is what comes back of a node's output relation once its one
// consumer has read it, settled for the whole plan once it is lowered
// (markOutputs). The executor takes from its pools only what comes back
// to them, and makes the rest to size: a result's rows, a shared node's,
// and those a ρ, a LIMIT or a DISTINCT passes on outlive the operator
// above them.
type Output uint8

const (
	// ListBack: the consumer hands the list of the node's rows back.
	ListBack Output = 1 << iota
	// RowsBack: the rows the node writes come back too — from the
	// consumer, when it copies them, or else from the first operator up
	// the plan that does, every one between passing them on.
	RowsBack
)

// PassesRows reports whether the rows n writes are the rows of its
// input i, or prefixes of them, rather than copies of their values: σ's,
// ∪'s and Sort's, a prefix Π's, a semi or anti join's or a PassLeft
// join's or Γ²'s of the left input. Inputs are numbered as Children
// numbers them.
func PassesRows(n Node, i int) bool {
	switch x := n.(type) {
	case *Filter, *Union, *Sort:
		return true
	case *Project:
		return x.Prefix()
	case *Join:
		return i == 0 && (x.Mode != JoinInner || x.PassLeft)
	case *BinaryGroup:
		return i == 0 && x.PassLeft
	}
	return false
}

// inputOutput is what comes back of input i of n, whose own output fares
// out: nothing when n passes the input's row list on (ρ, LIMIT, and
// DISTINCT, whose output is its input when no row repeats), else the
// list, and the rows when n copies them or its own rows come back.
func inputOutput(n Node, i int, out Output) Output {
	switch n.(type) {
	case *Rename, *Limit, *Distinct:
		return 0
	}
	if PassesRows(n, i) {
		return ListBack | out&RowsBack
	}
	return ListBack | RowsBack
}

// markOutputs settles every node's Output under root and under the
// roots of the nested blocks lowered so far: a root's output is a
// result, and a shared node's is read twice, so nothing of either comes
// back.
func (p *Planner) markOutputs(root Node) {
	p.markOutput(root, 0)
	for _, b := range p.blocks {
		p.markOutput(b, 0)
	}
}

// markOutput gives n the output out, or none when n is shared, and its
// inputs theirs. It reads the inputs from the fields, not Children, so
// that planning allocates nothing here.
func (p *Planner) markOutput(n Node, out Output) {
	if n.Shared() {
		out = 0
	}
	n.setOutput(out)
	switch x := n.(type) {
	case *Filter:
		p.markOutput(x.Child, inputOutput(n, 0, out))
	case *Project:
		p.markOutput(x.Child, inputOutput(n, 0, out))
	case *Rename:
		p.markOutput(x.Child, inputOutput(n, 0, out))
	case *Map:
		p.markOutput(x.Child, inputOutput(n, 0, out))
	case *Group:
		p.markOutput(x.Child, inputOutput(n, 0, out))
	case *Distinct:
		p.markOutput(x.Child, inputOutput(n, 0, out))
	case *Sort:
		p.markOutput(x.Child, inputOutput(n, 0, out))
	case *Limit:
		p.markOutput(x.Child, inputOutput(n, 0, out))
	case *Join:
		p.markOutput(x.L, inputOutput(n, 0, out))
		p.markOutput(x.R, inputOutput(n, 1, out))
	case *Union:
		p.markOutput(x.L, inputOutput(n, 0, out))
		p.markOutput(x.R, inputOutput(n, 1, out))
	case *BinaryGroup:
		p.markOutput(x.L, inputOutput(n, 0, out))
		for i := range x.Groupings {
			p.markOutput(x.Groupings[i].R, inputOutput(n, 1+i, out))
		}
	}
}
