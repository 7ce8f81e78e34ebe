package types

import "math/bits"

// RowIndex is an insertion-ordered hash index over rows, keyed on some
// of their columns: the engine's one "hash → candidates → verify"
// structure, behind DISTINCT sets, grouping tables, join build sides and
// DML row matching. It keeps the row slices it is given — references,
// never copies; rows are immutable once built — and allocates per growth
// step, not per entry: the entries sit in one slice in insertion order,
// and one int32 block holds the slot heads, the slot tails and each
// entry's chain link. Entries sharing a slot chain in insertion order,
// so a probe meets its matches in the order they were added.
//
// Keys compare under Identical (NULL matches NULL). With skipNulls — SQL
// equality, for join keys — a key holding a NULL hashes as not ok: such
// a row is not to be added and such a probe matches nothing. An index
// must not be probed while it is added to; once complete, any number of
// goroutines may probe it.
type RowIndex struct {
	cols      []int // key columns of the stored rows; nil means every column
	skipNulls bool
	entries   []rowEntry
	// links is [0,s) slot heads, [s,2s) slot tails, then one next-entry
	// link per entry capacity (-1 for none): s = slots, a power of two no
	// smaller than cap(entries), which is exactly what was asked for.
	links []int32
	slots int
	// collide, when set, maps every hash before use: the tests' way to
	// force full-hash collisions.
	collide func(uint64) uint64
}

type rowEntry struct {
	row  []Value
	hash uint64
}

// NewRowIndex returns an empty index over rows keyed on cols (nil: the
// whole row), sized for exactly capacity entries — it grows only past
// them; nothing is allocated before the first Add when capacity is 0.
func NewRowIndex(cols []int, skipNulls bool, capacity int) *RowIndex {
	ix := &RowIndex{cols: cols, skipNulls: skipNulls}
	if capacity > 0 {
		ix.grow(capacity)
	}
	return ix
}

// Len is the number of entries; they are numbered [0, Len) in insertion
// order.
func (ix *RowIndex) Len() int { return len(ix.entries) }

// Row returns entry e's row.
func (ix *RowIndex) Row(e int32) []Value { return ix.entries[e].row }

// Hash hashes row's key columns cols (nil: the whole row) as HashTuple
// would the extracted key, which it never builds. ok is false when the
// index skips NULLs and the key holds one.
func (ix *RowIndex) Hash(row []Value, cols []int) (h uint64, ok bool) {
	h, ok = hashKey(row, cols, ix.skipNulls)
	if ix.collide != nil {
		h = ix.collide(h)
	}
	return h, ok
}

func hashKey(row []Value, cols []int, skipNulls bool) (h uint64, ok bool) {
	const prime64 = 1099511628211
	h = 14695981039346656037
	for k, n := 0, keyLen(row, cols); k < n; k++ {
		v := keyAt(row, cols, k)
		if skipNulls && v.IsNull() {
			return 0, false
		}
		h = (h ^ v.Hash()) * prime64
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

// Add appends row as a new entry without looking for an equal one; h is
// Hash(row, the index's key columns), which must have been ok.
func (ix *RowIndex) Add(row []Value, h uint64) int32 {
	if len(ix.entries) == cap(ix.entries) {
		ix.grow(max(2*cap(ix.entries), 8))
	}
	e := int32(len(ix.entries))
	ix.entries = append(ix.entries, rowEntry{row: row, hash: h})
	ix.link(e, h)
	return e
}

// link appends entry e to the chain of h's slot.
func (ix *RowIndex) link(e int32, h uint64) {
	s := ix.slots
	slot := ix.slot(h)
	ix.links[2*s+int(e)] = -1
	if tail := ix.links[s+slot]; tail >= 0 {
		ix.links[2*s+int(tail)] = e
	} else {
		ix.links[slot] = e
	}
	ix.links[s+slot] = e
}

// slot spreads h over the slots by its high bits (Fibonacci hashing):
// FNV's low bits alone distribute small integers poorly.
func (ix *RowIndex) slot(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> (64 - bits.TrailingZeros(uint(ix.slots))))
}

// grow re-creates both blocks for exactly capacity entries, over the
// smallest power-of-two number of slots (at least 8) that holds them,
// and relinks the entries in insertion order.
func (ix *RowIndex) grow(capacity int) {
	s := 8
	for s < capacity {
		s *= 2
	}
	entries := make([]rowEntry, len(ix.entries), capacity)
	copy(entries, ix.entries)
	ix.entries, ix.slots = entries, s
	ix.links = make([]int32, 2*s+capacity)
	for i := range ix.links[:2*s] {
		ix.links[i] = -1
	}
	for e := range entries {
		ix.link(int32(e), entries[e].hash)
	}
}

// First returns the first entry, in insertion order, whose key is
// identical to row's key columns cols (nil: the whole row), or -1; Next
// returns the one after entry e, for the same row and cols.
func (ix *RowIndex) First(row []Value, cols []int) int32 {
	h, ok := ix.Hash(row, cols)
	if !ok || len(ix.entries) == 0 {
		return -1
	}
	return ix.scan(ix.links[ix.slot(h)], h, row, cols)
}

// Next continues First past entry e.
func (ix *RowIndex) Next(e int32, row []Value, cols []int) int32 {
	return ix.scan(ix.links[2*ix.slots+int(e)], ix.entries[e].hash, row, cols)
}

// scan walks a chain from entry e to the first one with hash h and a key
// identical to row's.
func (ix *RowIndex) scan(e int32, h uint64, row []Value, cols []int) int32 {
	next := ix.links[2*ix.slots:]
	for ; e >= 0; e = next[e] {
		if ent := &ix.entries[e]; ent.hash == h && ix.keysIdentical(ent.row, row, cols) {
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

// FindOrAdd returns the entry whose key is identical to row's — row
// being laid out like the stored rows — adding row as a new entry when
// there is none. The index retains row in that case. A key the index
// skips (ok false from Hash) is neither found nor added: e is -1.
func (ix *RowIndex) FindOrAdd(row []Value) (e int32, added bool) {
	h, ok := ix.Hash(row, ix.cols)
	if !ok {
		return -1, false
	}
	return ix.FindOrAddHashed(row, h)
}

// FindOrAddHashed is FindOrAdd for a row whose key hash is known: h is
// Hash(row, the index's key columns), which must have been ok.
func (ix *RowIndex) FindOrAddHashed(row []Value, h uint64) (e int32, added bool) {
	if len(ix.entries) > 0 {
		if e = ix.scan(ix.links[ix.slot(h)], h, row, ix.cols); e >= 0 {
			return e, false
		}
	}
	return ix.Add(row, h), true
}
