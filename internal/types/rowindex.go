package types

import (
	"math/bits"
	"sync"
)

// RowIndex is an insertion-ordered hash index over the rows of one
// relation, keyed on some of their columns: the engine's one "hash →
// candidates → verify" structure, behind DISTINCT sets, grouping tables,
// join build sides and DML row matching. An entry is a row number into
// that relation — never a copy of the row — and a 32-bit tag, the high
// half of the row's key hash, whose top bits pick the entry's slot. Slot
// heads, slot tails and each entry's chain link, row number and tag all
// sit in one int32 block, taken from its slot class's pool, not
// allocated per entry.
// Entries sharing a slot chain in insertion order, so a probe meets its
// matches in the order they were added; a tag match is confirmed by a
// full key compare.
//
// An index keyed on one column keeps each entry's key, when it is a
// non-NULL int, as a word in the block beside the entry: a probe by an
// int key (First, or the word entry points FirstWord, NextWord and
// FindOrAddWord, whose HashWord is Hash of the one-int key) compares
// that word and never reads the stored row. Any other key — NULL, a
// float (an integral one is identical to the int), a string — is
// compared against the stored row under Identical.
//
// An index built over a relation's rows (NewRowIndex with rows non-nil)
// indexes rows of it by number (Add, FindOrAdd). An index built with nil
// rows owns them: Push appends a row to them when its key is new, and
// they grow with the block. Either way the rows are references, never
// copies; rows are immutable once built.
//
// An index is taken from the pool of its number of slots, a power of two
// (NewRowIndex), and an index whose owner dies with the function that
// built it is handed back to that pool (Release) — so a warm query
// allocates no index. A growth step hands the block it replaces back the
// same way.
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
	// block is [0,s) slot heads, [s,2s) slot tails, then stride int32s
	// per entry of the capacity: the next entry in its chain (-1 for
	// none), its row number and its tag, and, keyed on one column, the
	// key's low and high word. s = slots, a power of two no smaller than
	// the capacity, which is exactly what was asked for. A one-column
	// entry whose key is not an int stores its row number r as ^r.
	block  []int32
	stride int
	n      int  // entries
	slots  int  // s
	shift  uint // 32 - log2(s): a tag's top bits are its slot
	// collide, when set, maps every hash before use: the tests' way to
	// force full tag collisions.
	collide func(uint64) uint64
}

// NewRowIndex returns an empty index over rows — nil for an index that
// owns the rows Push gives it — keyed on cols (nil: the whole row),
// sized for exactly capacity entries: it grows only past them. It is
// taken from the pool of its slot class (takeIndex).
func NewRowIndex(rows [][]Value, cols []int, skipNulls bool, capacity int) *RowIndex {
	stride := 3
	if len(cols) == 1 {
		stride = 5
	}
	ix := takeIndex(stride, capacity)
	ix.rows, ix.owns, ix.cols, ix.skipNulls = rows, rows == nil, cols, skipNulls
	if ix.owns && capacity > 0 {
		ix.rows = make([][]Value, 0, capacity)
	}
	return ix
}

// indexes holds released indexes, by stride (3, or 5 keyed on one
// column) and slot class: class c holds indexes of 1<<c slots, each
// with its block.
var indexes [2][32]sync.Pool

// poolOf returns the pool of indexes of stride over s slots.
func poolOf(stride, s int) *sync.Pool {
	return &indexes[stride/5][bits.TrailingZeros(uint(s))]
}

// slotsFor is the number of slots of an index of capacity entries: the
// smallest power of two, at least 8, that holds them.
func slotsFor(capacity int) int {
	s := 8
	for s < capacity {
		s *= 2
	}
	return s
}

// takeIndex returns an empty index of stride with room for exactly
// capacity entries, over slotsFor(capacity) slots: a released one of that
// class, the slot heads its entries used reset, or a new one. A recycled
// block too small for capacity is replaced by one for the class's
// largest, so that the class's blocks come to fit every capacity it
// serves; a new index's block is exactly its size, but has room for 8
// entries, so that an index sized for none grows to its first 8 in place.
func takeIndex(stride, capacity int) *RowIndex {
	s := slotsFor(capacity)
	need := 2*s + stride*capacity
	ix, _ := poolOf(stride, s).Get().(*RowIndex)
	switch {
	case ix == nil:
		ix = &RowIndex{stride: stride, slots: s, shift: uint(32 - bits.TrailingZeros(uint(s))), block: make([]int32, need, 2*s+stride*max(capacity, 8))}
		ix.clearHeads()
	case cap(ix.block) < need:
		ix.block = make([]int32, need, 2*s+stride*s)
		ix.clearHeads()
	default:
		// A poisoned block's tags are all -1, which resets one slot: its
		// heads are -1 already.
		heads := ix.block[:s]
		for e := 0; e < ix.n; e++ {
			heads[ix.slot(ix.block[2*s+stride*e+2])] = -1
		}
		ix.block = ix.block[:need]
	}
	ix.n = 0
	return ix
}

// clearHeads marks every slot empty.
func (ix *RowIndex) clearHeads() {
	for i := range ix.block[:ix.slots] {
		ix.block[i] = -1
	}
}

// Release hands the index back to the pool of its slot class, for
// NewRowIndex to take again: neither the caller nor anything it handed
// the index to may use it after. It drops the index's references to the
// rows, so that a pooled index pins none; in a build with the race
// detector it also fills the block with -1, so that a use after release
// finds no entry, or row 0 for every one, and decides wrongly where it
// would otherwise read stale entries that still happen to be right.
func (ix *RowIndex) Release() {
	ix.rows, ix.owns, ix.cols, ix.collide = nil, false, nil, nil
	if PoisonReleased {
		for i := range ix.block {
			ix.block[i] = -1
		}
	}
	poolOf(ix.stride, ix.slots).Put(ix)
}

// Len is the number of entries; they are numbered [0, Len) in insertion
// order.
func (ix *RowIndex) Len() int { return ix.n }

// RowNum returns the number of entry e's row.
func (ix *RowIndex) RowNum(e int32) int32 {
	r := ix.ent(e)[1]
	if r < 0 {
		r = ^r
	}
	return r
}

// ent returns entry e's int32s.
func (ix *RowIndex) ent(e int32) []int32 {
	at := 2*ix.slots + ix.stride*int(e)
	return ix.block[at : at+ix.stride : at+ix.stride]
}

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

// HashWord is Hash of a key of one int column holding k: an index
// keyed on one column probes or adds by it without a row.
func (ix *RowIndex) HashWord(k int64) uint64 {
	h := uint64(keySeed)
	h = h*0x9fb21c651e98df25 + mix(uint64(k))
	if ix.collide != nil {
		h = ix.collide(h)
	}
	return h
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

func (ix *RowIndex) capacity() int { return (len(ix.block) - 2*ix.slots) / ix.stride }

// Add appends row i as a new entry without looking for an equal one; h
// is Hash(the row, the index's key columns), which must have been ok.
func (ix *RowIndex) Add(i int32, h uint64) int32 {
	if ix.stride == 3 {
		return ix.add(i, h)
	}
	if k, ok := ix.rows[i][ix.cols[0]].IntOk(); ok {
		return ix.AddWord(i, k, h)
	}
	return ix.add(^i, h)
}

// AddWord is Add for an index keyed on one column whose row i holds the
// int k there; h is HashWord(k).
func (ix *RowIndex) AddWord(i int32, k int64, h uint64) int32 {
	e := ix.add(i, h)
	ent := ix.ent(e)
	ent[3], ent[4] = int32(uint32(k)), int32(uint64(k)>>32)
	return e
}

// add appends an entry whose row field is r.
func (ix *RowIndex) add(r int32, h uint64) int32 {
	if ix.n == ix.capacity() {
		ix.grow(max(2*ix.n, 8))
	}
	e := int32(ix.n)
	ix.n++
	ent := ix.ent(e)
	ent[1], ent[2] = r, tagOf(h)
	ix.link(e)
	return e
}

// link appends entry e to the chain of its tag's slot.
func (ix *RowIndex) link(e int32) {
	s, at := ix.slots, 2*ix.slots+ix.stride*int(e)
	slot := ix.slot(ix.block[at+2])
	ix.block[at] = -1
	if ix.block[slot] >= 0 { // the tail is read only behind a head: a recycled block's are stale
		ix.block[2*s+ix.stride*int(ix.block[s+slot])] = e
	} else {
		ix.block[slot] = e
	}
	ix.block[s+slot] = e
}

// grow re-creates the block for exactly capacity entries, over the
// smallest power-of-two number of slots (at least 8) that holds them, and
// relinks the entries in insertion order; the block it replaces goes back
// to its class's pool (Release), in the shell the new one came in. A
// block that already has room for capacity over as many slots only
// lengthens. An owning index's rows grow to the same capacity with it.
func (ix *RowIndex) grow(capacity int) {
	st := ix.stride
	if s := slotsFor(capacity); s == ix.slots && cap(ix.block) >= 2*s+st*capacity {
		ix.block = ix.block[:2*s+st*capacity]
	} else {
		t := takeIndex(st, capacity)
		old, olds := ix.block, ix.slots
		ix.block, ix.slots, ix.shift, t.block, t.slots, t.shift = t.block, t.slots, t.shift, ix.block, ix.slots, ix.shift
		for e := 0; e < ix.n; e++ {
			copy(ix.block[2*s+st*e+1:][:st-1], old[2*olds+st*e+1:])
			ix.link(int32(e))
		}
		t.n = ix.n
		t.Release()
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
	ent := ix.ent(e)
	return ix.scan(ent[0], ent[2], row, cols)
}

// FirstWord is First for the one-int key k of an index keyed on one
// column: h is HashWord(k). NextWord continues it past entry e.
func (ix *RowIndex) FirstWord(k int64, h uint64) int32 {
	if ix.n == 0 {
		return -1
	}
	tag := tagOf(h)
	return ix.scanWord(ix.block[ix.slot(tag)], tag, k)
}

// NextWord continues FirstWord(k, …) past entry e.
func (ix *RowIndex) NextWord(e int32, k int64) int32 {
	ent := ix.ent(e)
	return ix.scanWord(ent[0], ent[2], k)
}

// find returns the first entry with tag and a key identical to row's.
func (ix *RowIndex) find(row []Value, cols []int, tag int32) int32 {
	if ix.n == 0 {
		return -1
	}
	return ix.scan(ix.block[ix.slot(tag)], tag, row, cols)
}

// scan walks a chain from entry e to the first one with tag and a key
// identical to row's — by the word when both are one int.
func (ix *RowIndex) scan(e, tag int32, row []Value, cols []int) int32 {
	if ix.stride == 5 && keyLen(row, cols) == 1 {
		if k, ok := keyAt(row, cols, 0).IntOk(); ok {
			return ix.scanWord(e, tag, k)
		}
	}
	st, ents := ix.stride, ix.block[2*ix.slots:]
	for ; e >= 0; e = ents[st*int(e)] {
		if ents[st*int(e)+2] == tag && ix.keysIdentical(e, row, cols) {
			return e
		}
	}
	return -1
}

// scanWord is scan for the one-int key k: a word entry matches by its
// word, any other by its row's key, which an integral float may be.
func (ix *RowIndex) scanWord(e, tag int32, k int64) int32 {
	ents := ix.block[2*ix.slots:]
	lo, hi := int32(uint32(k)), int32(uint64(k)>>32)
	for e >= 0 {
		at := 5 * int(e)
		ent := ents[at : at+5 : at+5]
		if ent[2] == tag {
			if ent[1] >= 0 {
				if ent[3] == lo && ent[4] == hi {
					return e
				}
			} else if Identical(ix.rows[^ent[1]][ix.cols[0]], NewInt(k)) {
				return e
			}
		}
		e = ent[0]
	}
	return -1
}

// keysIdentical reports whether entry e's key is identical to row's
// columns cols.
func (ix *RowIndex) keysIdentical(e int32, row []Value, cols []int) bool {
	ent := ix.ent(e)
	if ix.stride == 5 && ent[1] >= 0 {
		return keyLen(row, cols) == 1 && Identical(keyAt(row, cols, 0), NewInt(int64(uint32(ent[3]))|int64(ent[4])<<32))
	}
	stored := ix.rows[ix.RowNum(e)]
	n := keyLen(stored, ix.cols)
	if keyLen(row, cols) != n {
		return false
	}
	for k := 0; k < n; k++ {
		a, b := keyAt(stored, ix.cols, k), keyAt(row, cols, k)
		if a.kind == KindInt && b.kind == KindInt { // Identical's own case, inlined for the common key
			if a.n != b.n {
				return false
			}
		} else if !Identical(a, b) {
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

// FindOrAddWord is FindOrAdd for an index keyed on one column whose row
// i holds the int k there: h is HashWord(k).
func (ix *RowIndex) FindOrAddWord(i int32, k int64, h uint64) (e int32, added bool) {
	if e = ix.FirstWord(k, h); e >= 0 {
		return e, false
	}
	return ix.AddWord(i, k, h), true
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
