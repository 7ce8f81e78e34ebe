package types

// ProbeSteps is the number of entries a probe for row's key columns cols
// walks in its slot's chain up to and including its first match — the
// whole chain when there is none.
func (ix *RowIndex) ProbeSteps(row []Value, cols []int) int {
	h, ok := ix.Hash(row, cols)
	if !ok || ix.n == 0 {
		return 0
	}
	tag, ents, steps := tagOf(h), ix.block[2*ix.slots:], 0
	for e := ix.block[ix.slot(tag)]; e >= 0; e = ents[3*e] {
		steps++
		if ents[3*e+2] == tag && ix.keysIdentical(ix.rows[ents[3*e+1]], row, cols) {
			break
		}
	}
	return steps
}
