package types

// ProbeSteps is the number of entries a probe for row's key columns cols
// walks in its slot's chain up to and including its first match — the
// whole chain when there is none.
func (ix *RowIndex) ProbeSteps(row []Value, cols []int) int {
	h, ok := ix.Hash(row, cols)
	if !ok || ix.n == 0 {
		return 0
	}
	tag, steps := tagOf(h), 0
	for e := ix.block[ix.slot(tag)]; e >= 0; e = ix.ent(e)[0] {
		steps++
		if ix.ent(e)[2] == tag && ix.keysIdentical(e, row, cols) {
			break
		}
	}
	return steps
}
