package types

import "math/bits"

// RowIndex is an insertion-ordered hash index over the rows of one
// relation, keyed on some of their columns: the engine's one "hash →
// candidates → verify" structure, behind DISTINCT sets, grouping tables,
// join build sides and DML row matching. An entry is a row number into
// that relation — never a copy of the row — and a 32-bit tag, the high
// half of the row's key hash, whose top bits pick the entry's slot. Slot
// heads, slot tails and each entry's chain link, row number and tag all
// sit in one int32 block, allocated per growth step, not per entry.
// Entries sharing a slot chain in insertion order, so a probe meets its
// matches in the order they were added; a tag match is confirmed by a
// full key compare.
//
// An index built over a relation's rows (NewRowIndex with rows non-nil)
// indexes rows of it by number (Add, FindOrAdd). An index built with nil
// rows owns them: Push appends a row to them when its key is new, and
// they grow with the block. Either way the rows are references, never
// copies; rows are immutable once built.
//
// Keys compare under Identical (NULL matches NULL). With skipNulls — SQL
// equality, for join keys — a key holding a NULL hashes as not ok: such
// a row is not to be added and such a probe matches nothing. An index
// must not be probed while it is added to; once complete, any number of
// goroutines may probe it.
type RowIndex struct {
	rows      [][]Value // the indexed relation's rows, or the owned ones
	owns      bool
	cols      []int // key columns of the rows; nil means every column
	skipNulls bool
	// block is [0,s) slot heads, [s,2s) slot tails, then three int32s
	// per entry of the capacity: the next entry in its chain (-1 for
	// none), its row number and its tag. s = slots, a power of two no
	// smaller than the capacity, which is exactly what was asked for.
	block []int32
	n     int  // entries
	slots int  // s
	shift uint // 32 - log2(s): a tag's top bits are its slot
	// collide, when set, maps every hash before use: the tests' way to
	// force full tag collisions.
	collide func(uint64) uint64
}

// NewRowIndex returns an empty index over rows — nil for an index that
// owns the rows Push gives it — keyed on cols (nil: the whole row),
// sized for exactly capacity entries: it grows only past them; nothing
// is allocated before the first entry when capacity is 0.
func NewRowIndex(rows [][]Value, cols []int, skipNulls bool, capacity int) *RowIndex {
	ix := &RowIndex{rows: rows, owns: rows == nil, cols: cols, skipNulls: skipNulls}
	if capacity > 0 {
		ix.grow(capacity)
	}
	return ix
}

// Len is the number of entries; they are numbered [0, Len) in insertion
// order.
func (ix *RowIndex) Len() int { return ix.n }

// RowNum returns the number of entry e's row.
func (ix *RowIndex) RowNum(e int32) int32 { return ix.block[2*ix.slots+3*int(e)+1] }

// Row returns entry e's row.
func (ix *RowIndex) Row(e int32) []Value { return ix.rows[ix.RowNum(e)] }

// Hash hashes row's key columns cols (nil: the whole row) as HashTuple
// would the extracted key, which it never builds. ok is false when the
// index skips NULLs and the key holds one.
func (ix *RowIndex) Hash(row []Value, cols []int) (h uint64, ok bool) {
	return ix.HashMore(keySeed, row, cols)
}

// HashMore continues h, the hash of a key's leading columns, over row's
// columns cols: the hash of a key of some columns of row followed by
// cols is HashMore(hash of the first, row, cols), so a row keyed on a
// prefix and on the whole has its prefix hashed once. Hash is HashMore
// from the empty key's hash; ok is as for Hash.
func (ix *RowIndex) HashMore(h uint64, row []Value, cols []int) (uint64, bool) {
	h, ok := hashMore(h, row, cols, ix.skipNulls)
	if ix.collide != nil {
		h = ix.collide(h)
	}
	return h, ok
}

// keySeed is the empty key's hash.
const keySeed = 0x6a09e667f3bcc909

func hashKey(row []Value, cols []int, skipNulls bool) (h uint64, ok bool) {
	return hashMore(keySeed, row, cols, skipNulls)
}

// hashMore folds the key columns' hashes into h in order: a multiply of
// h by an odd constant and an add each, so the high bits, from which
// tagOf takes the slot, depend on every column, and a one-column key's
// are its value's, shifted by a constant.
func hashMore(h uint64, row []Value, cols []int, skipNulls bool) (uint64, bool) {
	for k, n := 0, keyLen(row, cols); k < n; k++ {
		v := keyAt(row, cols, k)
		switch {
		case v.kind == KindInt: // Hash's own case, inlined for the common key
			h = h*0x9fb21c651e98df25 + mix(v.n)
		case skipNulls && v.kind == KindNull:
			return 0, false
		default:
			h = h*0x9fb21c651e98df25 + v.Hash()
		}
	}
	return h, true
}

func keyLen(row []Value, cols []int) int {
	if cols == nil {
		return len(row)
	}
	return len(cols)
}

func keyAt(row []Value, cols []int, k int) Value {
	if cols == nil {
		return row[k]
	}
	return row[cols[k]]
}

// tagOf is the high half of a key hash, the half every column's bits
// reach (hashMore).
func tagOf(h uint64) int32 { return int32(h >> 32) }

// slot returns the slot of a tag.
func (ix *RowIndex) slot(tag int32) int { return int(uint32(tag) >> ix.shift) }

func (ix *RowIndex) capacity() int { return (len(ix.block) - 2*ix.slots) / 3 }

// Add appends row i as a new entry without looking for an equal one; h
// is Hash(the row, the index's key columns), which must have been ok.
func (ix *RowIndex) Add(i int32, h uint64) int32 {
	if ix.n == ix.capacity() {
		ix.grow(max(2*ix.n, 8))
	}
	e := int32(ix.n)
	ix.n++
	ent := ix.block[2*ix.slots+3*int(e):]
	ent[1], ent[2] = i, tagOf(h)
	ix.link(e)
	return e
}

// link appends entry e to the chain of its tag's slot.
func (ix *RowIndex) link(e int32) {
	s, at := ix.slots, 2*ix.slots+3*int(e)
	slot := ix.slot(ix.block[at+2])
	ix.block[at] = -1
	if tail := ix.block[s+slot]; tail >= 0 {
		ix.block[2*s+3*int(tail)] = e
	} else {
		ix.block[slot] = e
	}
	ix.block[s+slot] = e
}

// grow re-creates the block for exactly capacity entries, over the
// smallest power-of-two number of slots (at least 8) that holds them,
// and relinks the entries in insertion order; an owning index's rows
// grow to the same capacity with it.
func (ix *RowIndex) grow(capacity int) {
	s := 8
	for s < capacity {
		s *= 2
	}
	old, olds := ix.block, ix.slots
	ix.block, ix.slots, ix.shift = make([]int32, 2*s+3*capacity), s, uint(32-bits.TrailingZeros(uint(s)))
	for i := range ix.block[:2*s] {
		ix.block[i] = -1
	}
	for e := 0; e < ix.n; e++ {
		copy(ix.block[2*s+3*e+1:][:2], old[2*olds+3*e+1:])
		ix.link(int32(e))
	}
	if ix.owns {
		rows := make([][]Value, len(ix.rows), capacity)
		copy(rows, ix.rows)
		ix.rows = rows
	}
}

// First returns the first entry, in insertion order, whose key is
// identical to row's key columns cols (nil: the whole row), or -1; Next
// returns the one after entry e, for the same row and cols.
func (ix *RowIndex) First(row []Value, cols []int) int32 {
	h, ok := ix.Hash(row, cols)
	if !ok {
		return -1
	}
	return ix.FirstHashed(row, cols, h)
}

// FirstHashed is First for a row whose key hash is known: h is Hash(row,
// cols), which must have been ok.
func (ix *RowIndex) FirstHashed(row []Value, cols []int, h uint64) int32 {
	return ix.find(row, cols, tagOf(h))
}

// Next continues First past entry e.
func (ix *RowIndex) Next(e int32, row []Value, cols []int) int32 {
	at := 2*ix.slots + 3*int(e)
	return ix.scan(ix.block[at], ix.block[at+2], row, cols)
}

// find returns the first entry with tag and a key identical to row's.
func (ix *RowIndex) find(row []Value, cols []int, tag int32) int32 {
	if ix.n == 0 {
		return -1
	}
	return ix.scan(ix.block[ix.slot(tag)], tag, row, cols)
}

// scan walks a chain from entry e to the first one with tag and a key
// identical to row's.
func (ix *RowIndex) scan(e, tag int32, row []Value, cols []int) int32 {
	ents := ix.block[2*ix.slots:]
	for ; e >= 0; e = ents[3*e] {
		if ents[3*e+2] == tag && ix.keysIdentical(ix.rows[ents[3*e+1]], row, cols) {
			return e
		}
	}
	return -1
}

func (ix *RowIndex) keysIdentical(stored, row []Value, cols []int) bool {
	n := keyLen(stored, ix.cols)
	if keyLen(row, cols) != n {
		return false
	}
	for k := 0; k < n; k++ {
		if !Identical(keyAt(stored, ix.cols, k), keyAt(row, cols, k)) {
			return false
		}
	}
	return true
}

// FindOrAdd returns the entry whose key is identical to row i's, adding
// row i as a new entry when there is none. A key the index skips (ok
// false from Hash) is neither found nor added: e is -1.
func (ix *RowIndex) FindOrAdd(i int32) (e int32, added bool) {
	h, ok := ix.Hash(ix.rows[i], ix.cols)
	if !ok {
		return -1, false
	}
	return ix.FindOrAddHashed(i, h)
}

// FindOrAddHashed is FindOrAdd for a row whose key hash is known: h is
// Hash(row i, the index's key columns), which must have been ok.
func (ix *RowIndex) FindOrAddHashed(i int32, h uint64) (e int32, added bool) {
	if e = ix.find(ix.rows[i], ix.cols, tagOf(h)); e >= 0 {
		return e, false
	}
	return ix.Add(i, h), true
}

// Push is FindOrAdd for an index that owns its rows: it returns the
// entry whose key is identical to row's, appending row to the rows as a
// new entry when there is none — retaining it, not a copy.
func (ix *RowIndex) Push(row []Value) (e int32, added bool) {
	if !ix.owns {
		panic("types: Push on an index over a relation's rows")
	}
	h, ok := ix.Hash(row, ix.cols)
	if !ok {
		return -1, false
	}
	tag := tagOf(h)
	if e = ix.find(row, ix.cols, tag); e >= 0 {
		return e, false
	}
	if ix.n == ix.capacity() {
		ix.grow(max(2*ix.n, 8))
	}
	ix.rows = append(ix.rows, row)
	return ix.Add(int32(len(ix.rows)-1), h), true
}
