package types

import (
	"math/rand"
	"slices"
	"testing"

	"disqo/internal/testutil"
)

// refIndex is the structure RowIndex replaced, kept as its reference: a
// map from key hash to the entries with that hash, verified by
// comparison. Entries are numbered in insertion order; entry e indexes
// row number nums[e] of rows.
type refIndex struct {
	rows      [][]Value
	cols      []int
	skipNulls bool
	nums      []int32
	buckets   map[uint64][]int32
}

func (r *refIndex) key(row []Value, cols []int) ([]Value, bool) {
	if cols == nil {
		cols = make([]int, len(row))
		for i := range cols {
			cols[i] = i
		}
	}
	key := make([]Value, len(cols))
	for i, c := range cols {
		if key[i] = row[c]; r.skipNulls && key[i].IsNull() {
			return nil, false
		}
	}
	return key, true
}

// matches returns every entry whose key is identical to row's, in
// insertion order.
func (r *refIndex) matches(row []Value, cols []int) []int32 {
	key, ok := r.key(row, cols)
	if !ok {
		return nil
	}
	var out []int32
	for _, e := range r.buckets[HashTuple(key)] {
		if stored, _ := r.key(r.rows[r.nums[e]], r.cols); slices.EqualFunc(stored, key, Identical) {
			out = append(out, e)
		}
	}
	return out
}

// add indexes row number i, unless its key is skipped.
func (r *refIndex) add(i int32) {
	key, ok := r.key(r.rows[i], r.cols)
	if !ok {
		return
	}
	if r.buckets == nil {
		r.buckets = map[uint64][]int32{}
	}
	h := HashTuple(key)
	r.buckets[h] = append(r.buckets[h], int32(len(r.nums)))
	r.nums = append(r.nums, i)
}

// allMatches walks First/Next to the end.
func allMatches(ix *RowIndex, row []Value, cols []int) []int32 {
	var out []int32
	for e := ix.First(row, cols); e >= 0; e = ix.Next(e, row, cols) {
		out = append(out, e)
	}
	return out
}

// wordMatches walks FirstWord/NextWord to the end.
func wordMatches(ix *RowIndex, k int64) []int32 {
	var out []int32
	for e := ix.FirstWord(k, ix.HashWord(k)); e >= 0; e = ix.NextWord(e, k) {
		out = append(out, e)
	}
	return out
}

func len32[T any](s []T) int32 { return int32(len(s)) }

func b2i32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func sameEntries(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRowIndexTable(t *testing.T) {
	null, one, two := Null(), NewInt(1), NewInt(2)
	row := func(vs ...Value) []Value { return vs }

	t.Run("identical keys, NULL groups with NULL", func(t *testing.T) {
		rows := [][]Value{row(one, two), row(null, one), row(NewFloat(1), null), row(null, two), row(two, two)}
		ix := NewRowIndex(rows, []int{0}, false, 0)
		for i, c := range []struct {
			entry int32
			added bool
		}{{0, true}, {1, true}, {0, false}, {1, false}, {2, true}} {
			if e, added := ix.FindOrAdd(int32(i)); e != c.entry || added != c.added {
				t.Errorf("FindOrAdd(row %d) = entry %d, added %v; want %d, %v", i, e, added, c.entry, c.added)
			}
		}
		if ix.Len() != 3 || ix.RowNum(1) != 1 || ix.RowNum(2) != 4 || &ix.Row(1)[0] != &rows[1][0] {
			t.Errorf("index holds %d entries, entry 1 row %d, entry 2 row %d; want 3, each group's first row",
				ix.Len(), ix.RowNum(1), ix.RowNum(2))
		}
		// Probed by another layout: the key is column 1 of the probe row.
		if got := allMatches(ix, row(two, null), []int{1}); !sameEntries(got, []int32{1}) {
			t.Errorf("probe by (row, cols) for a NULL key = %v, want [1]", got)
		}
	})

	t.Run("SQL equality skips NULL keys on both sides", func(t *testing.T) {
		rows := [][]Value{row(one, two), row(null, two), row(one, two), row(one, null), row(null, null)}
		ix := NewRowIndex(rows, []int{1, 0}, true, 4)
		for i, r := range rows[:4] {
			if h, ok := ix.Hash(r, []int{1, 0}); ok {
				ix.Add(int32(i), h)
			}
		}
		if ix.Len() != 2 || ix.RowNum(1) != 2 {
			t.Fatalf("index holds %d entries, want the 2 without a NULL key column", ix.Len())
		}
		if got := allMatches(ix, row(two, one), nil); !sameEntries(got, []int32{0, 1}) {
			t.Errorf("matches of (2, 1) = %v, want both duplicates in insertion order", got)
		}
		if got := allMatches(ix, row(two, null), nil); got != nil {
			t.Errorf("a probe with a NULL key matched %v", got)
		}
		if e, added := ix.FindOrAdd(4); e != -1 || added {
			t.Errorf("FindOrAdd of a NULL key = %d, %v; want it skipped", e, added)
		}
	})

	t.Run("whole rows of different widths never match", func(t *testing.T) {
		ix := NewRowIndex(nil, nil, false, 0)
		ix.collide = func(uint64) uint64 { return 7 } // so that only the comparison can tell them apart
		ix.Push(row(one))
		if got := ix.First(row(one, one), nil); got != -1 {
			t.Errorf("a 2-column probe matched the 1-column entry %d", got)
		}
		if got := ix.First(row(NewFloat(1)), nil); got != 0 {
			t.Errorf("1.0 did not find the entry 1: %d", got)
		}
	})

	t.Run("a one-int key is a word, found by an integral float", func(t *testing.T) {
		rows := [][]Value{row(one), row(NewFloat(2)), row(null), row(NewString("1")), row(two)}
		for _, skipNulls := range []bool{false, true} {
			ix := NewRowIndex(rows, []int{0}, skipNulls, 0)
			for i, r := range rows {
				if h, ok := ix.Hash(r, []int{0}); ok {
					ix.Add(int32(i), h)
				} else if !skipNulls || !r[0].IsNull() {
					t.Fatalf("skipNulls=%v: row %d's key %s not hashed", skipNulls, i, r[0])
				}
			}
			if h, _ := ix.Hash(row(one), nil); h != ix.HashWord(1) {
				t.Errorf("HashWord(1) = %x, Hash of the key 1 = %x", ix.HashWord(1), h)
			}
			nullEntry := []int32{2}
			if skipNulls {
				nullEntry = nil
			}
			for _, c := range []struct {
				probe Value
				want  []int32
			}{{NewFloat(1), []int32{0}}, {one, []int32{0}}, {two, []int32{1, len32(rows) - 1 - b2i32(skipNulls)}}, {NewFloat(2.5), nil}, {null, nullEntry}} {
				if got := allMatches(ix, row(c.probe), nil); !sameEntries(got, c.want) {
					t.Errorf("skipNulls=%v: matches of %s = %v, want %v", skipNulls, c.probe, got, c.want)
				}
				if k, ok := c.probe.IntOk(); ok {
					if got := wordMatches(ix, k); !sameEntries(got, c.want) {
						t.Errorf("skipNulls=%v: word matches of %d = %v, want %v", skipNulls, k, got, c.want)
					}
				}
			}
			if e, added := ix.FindOrAddWord(4, 2, ix.HashWord(2)); e != 1 || added {
				t.Errorf("FindOrAddWord(2) = %d, %v; want the float 2's entry 1", e, added)
			}
			if e, added := ix.FindOrAddWord(0, 7, ix.HashWord(7)); !added || ix.RowNum(e) != 0 || !sameEntries(wordMatches(ix, 7), []int32{e}) {
				t.Errorf("FindOrAddWord(7) = %d, %v; want a new entry, found by its word", e, added)
			}
		}
	})

	t.Run("an empty key is one group", func(t *testing.T) {
		rows := [][]Value{row(one), row(two), nil}
		ix := NewRowIndex(rows, []int{}, false, 0)
		for i := range rows {
			if e, _ := ix.FindOrAdd(int32(i)); e != 0 {
				t.Errorf("row %d founded entry %d under the empty key", i, e)
			}
		}
	})

	t.Run("an owning index retains what it is pushed", func(t *testing.T) {
		ix := NewRowIndex(nil, []int{1}, false, 0)
		pushed := [][]Value{row(one, two), row(two, two), row(two, null), row(one, null)}
		for i, c := range []struct {
			entry int32
			added bool
		}{{0, true}, {0, false}, {1, true}, {1, false}} {
			if e, added := ix.Push(pushed[i]); e != c.entry || added != c.added {
				t.Errorf("Push(%s) = entry %d, added %v; want %d, %v", FormatTuple(pushed[i]), e, added, c.entry, c.added)
			}
		}
		if ix.Len() != 2 || &ix.Row(1)[0] != &pushed[2][0] || len(ix.rows) != 2 {
			t.Errorf("owning index holds %d entries over %d rows; want 2 over the 2 new ones, retained", ix.Len(), len(ix.rows))
		}
		defer func() {
			if recover() == nil {
				t.Error("Push on an index over a relation did not panic")
			}
		}()
		NewRowIndex(pushed, nil, false, 0).Push(row(one))
	})
}

// TestRowIndexAgainstReference drives RowIndex and the map-of-slices
// reference with the same inserts, in row order, and random probes —
// duplicate-heavy keys, NULLs, ints and floats that are the same number,
// probes laid out differently from the stored rows — through several
// growth steps, with the real hash, with a hash cut to two bits, and
// with every hash (hence every tag) equal; unsized, and presized to
// capacities that are not powers of two, each filled past its exact
// capacity; over a relation, and owning the rows it is pushed.
func TestRowIndexAgainstReference(t *testing.T) {
	hashes := map[string]func(uint64) uint64{
		"real":     nil,
		"two bits": func(h uint64) uint64 { return h & 3 },
		"constant": func(uint64) uint64 { return 42 },
	}
	for name, collide := range hashes {
		for _, capacity := range []int{0, 1, 7, 9, 1000, 1025} {
			for _, skipNulls := range []bool{false, true} {
				for _, cols := range [][]int{nil, {1}, {2, 0}} {
					for _, owning := range []bool{false, true} {
						checkAgainstReference(t, name, collide, capacity, skipNulls, cols, owning)
					}
				}
			}
		}
	}
}

// checkAgainstReference runs one configuration of
// TestRowIndexAgainstReference, and returns its index: enough rows to fill an index presized to
// capacity and grow it past that.
func checkAgainstReference(t *testing.T, name string, collide func(uint64) uint64, capacity int, skipNulls bool, cols []int, owning bool) *RowIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(name)) + int64(len(cols)) + int64(capacity)))
	val := func() Value {
		switch r := rng.Intn(10); {
		case r == 0:
			return Null()
		case r == 1:
			return NewFloat(float64(rng.Intn(5)))
		case r == 2:
			return NewString(string(rune('a' + rng.Intn(3))))
		default:
			return NewInt(int64(rng.Intn(5)))
		}
	}
	rows := make([][]Value, 600+2*capacity)
	for i := range rows {
		rows[i] = []Value{val(), val(), val()}
	}
	var ix *RowIndex
	if owning {
		ix = NewRowIndex(nil, cols, skipNulls, capacity)
	} else {
		ix = NewRowIndex(rows, cols, skipNulls, capacity)
	}
	ix.collide = collide
	ref := &refIndex{rows: rows, cols: cols, skipNulls: skipNulls}
	for i, stored := range rows {
		if owning || rng.Intn(3) == 0 { // find-or-add, as a grouping table or a DISTINCT set does
			want := ref.matches(stored, cols)
			var e int32
			var added bool
			k, word := stored[1].IntOk()
			switch {
			case owning:
				e, added = ix.Push(stored)
			case word && len(cols) == 1 && rng.Intn(2) == 0: // from a key column, as a fold does
				e, added = ix.FindOrAddWord(int32(i), k, ix.HashWord(k))
			default:
				e, added = ix.FindOrAdd(int32(i))
			}
			_, indexable := ref.key(stored, cols)
			switch {
			case !indexable:
				if e != -1 || added {
					t.Fatalf("%s: find-or-add of %s = %d, %v for a skipped key", name, FormatTuple(stored), e, added)
				}
			case len(want) > 0:
				if e != want[0] || added {
					t.Fatalf("%s: find-or-add of %s = %d, %v; reference finds %v", name, FormatTuple(stored), e, added, want)
				}
			default:
				if e != int32(len(ref.nums)) || !added {
					t.Fatalf("%s: find-or-add of %s = %d, %v; reference would add entry %d", name, FormatTuple(stored), e, added, len(ref.nums))
				}
				ref.add(int32(i))
			}
		} else if h, ok := ix.Hash(stored, cols); ok { // plain add, as a join build does
			if k, word := stored[1].IntOk(); word && len(cols) == 1 && rng.Intn(2) == 0 {
				ix.AddWord(int32(i), k, ix.HashWord(k))
			} else {
				ix.Add(int32(i), h)
			}
			ref.add(int32(i))
		}
		// Probe with a row of another layout: its key columns reversed.
		probe := []Value{val(), val(), val(), val()}
		pcols := []int{3, 2, 1}[:max(len(cols), 1)]
		if cols == nil {
			probe, pcols = probe[:3], nil
		}
		if got, want := allMatches(ix, probe, pcols), ref.matches(probe, pcols); !sameEntries(got, want) {
			t.Fatalf("%s capacity=%d skipNulls=%v cols=%v owning=%v: matches of %s by %v = %v, reference %v",
				name, capacity, skipNulls, cols, owning, FormatTuple(probe), pcols, got, want)
		}
		// Probe a one-column index by the word, as a key column does.
		if len(cols) == 1 {
			if k, word := probe[pcols[0]].IntOk(); word {
				if got, want := wordMatches(ix, k), ref.matches(probe, pcols); !sameEntries(got, want) {
					t.Fatalf("%s capacity=%d skipNulls=%v owning=%v: word matches of %d = %v, reference %v",
						name, capacity, skipNulls, owning, k, got, want)
				}
			}
		}
	}
	// Pushed rows are found or added, so an owning index holds one entry
	// per distinct key: as few as 8 on one column without NULL.
	if ix.Len() != len(ref.nums) || ix.Len() < 8 || (!owning && (ix.Len() < 40 || ix.Len() <= capacity)) {
		t.Fatalf("%s capacity=%d owning=%v: %d entries, reference %d; want equal, several growth steps and past the capacity",
			name, capacity, owning, ix.Len(), len(ref.nums))
	}
	for e, i := range ref.nums {
		if !owning && ix.RowNum(int32(e)) != i {
			t.Fatalf("%s: entry %d is row %d, reference row %d", name, e, ix.RowNum(int32(e)), i)
		}
		if &ix.Row(int32(e))[0] != &rows[i][0] {
			t.Fatalf("%s: entry %d is not the row that founded it", name, e)
		}
	}
	return ix
}

// buildAll adds every row of rows to a fresh index presized to capacity,
// as a join build does.
func buildAll(rows [][]Value, capacity int) *RowIndex {
	ix := NewRowIndex(rows, nil, false, capacity)
	for i, r := range rows {
		h, _ := ix.Hash(r, nil)
		ix.Add(int32(i), h)
	}
	return ix
}

// TestRowIndexAllocatesPerGrowthStep: a thousand entries cost the index
// and one block per doubling, not an allocation each — an owning index
// a block and its rows per doubling; presized, two allocations in all.
func TestRowIndexAllocatesPerGrowthStep(t *testing.T) {
	rows := make([][]Value, 1000)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i % 300))}
	}
	for _, c := range []struct {
		capacity int
		most     float64
	}{{0, 1 + 8}, {len(rows), 2}} {
		got := testing.AllocsPerRun(10, func() {
			ix := NewRowIndex(rows, nil, false, c.capacity)
			for i := range rows {
				ix.FindOrAdd(int32(i))
			}
		})
		if got > c.most {
			t.Errorf("capacity %d: %.0f allocations for %d inserts, want at most %.0f", c.capacity, got, len(rows), c.most)
		}
	}
	if got := testing.AllocsPerRun(10, func() {
		ix := NewRowIndex(nil, nil, false, 0)
		for _, r := range rows {
			ix.Push(r)
		}
	}); got > 1+2*7 { // 300 distinct keys: 8, 16, …, 512
		t.Errorf("owning: %.0f allocations for %d pushes, want at most %d", got, len(rows), 1+2*7)
	}
	// Presized to any capacity and filled up to it, an index never grows,
	// and holds exactly that many entries' room.
	for _, capacity := range []int{1, 7, 9, 1000, 1025} {
		distinct := make([][]Value, capacity)
		for i := range distinct {
			distinct[i] = []Value{NewInt(int64(i))}
		}
		var ix *RowIndex
		got := testing.AllocsPerRun(10, func() { ix = buildAll(distinct, capacity) })
		if got > 2 || ix.Len() != capacity || ix.capacity() != capacity {
			t.Errorf("capacity %d filled: %.0f allocations, %d entries in room for %d; want 2, and no growth",
				capacity, got, ix.Len(), ix.capacity())
		}
	}
}

// TestRowIndexOneBlock: an index presized for 5 000 entries takes one
// block for its whole bulk build — two allocations in all, the index and
// the block — of at most 12 bytes per entry and 8 per slot.
func TestRowIndexOneBlock(t *testing.T) {
	const n = 5000
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i)), NewString("x")}
	}
	var ix *RowIndex
	if got := testing.AllocsPerRun(10, func() { ix = buildAll(rows, n) }); got != 2 {
		t.Errorf("bulk build of %d rows: %.0f allocations, want the index and its one block", n, got)
	}
	if bytes, most := 4*cap(ix.block), 12*n+8*ix.slots; ix.Len() != n || bytes > most {
		t.Errorf("%d entries over %d slots in a %d-byte block, want at most %d", ix.Len(), ix.slots, bytes, most)
	}
}

// TestRowIndexRecycled checks indexes taken from pools that released
// indexes left dirty — full chains, stale tails, other rows' tags, blocks
// too small for the capacity asked — against the reference, at both
// strides, each configuration's index released for the next to take: a
// recycled index must hold nothing of the one released before it. (Its
// capacities keep every index under 8 192 slots, the class whose fresh
// allocation TestRowIndexOneBlock counts.)
func TestRowIndexRecycled(t *testing.T) {
	rows := make([][]Value, 3000)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i % 1700)), NewString("x")}
	}
	for _, cols := range [][]int{nil, {0}} {
		for _, capacity := range []int{0, 9, 300, 1000} {
			ix := NewRowIndex(rows, cols, false, capacity)
			for i := range rows {
				ix.FindOrAdd(int32(i))
			}
			ix.Release()
		}
	}
	for _, capacity := range []int{0, 1, 9, 300, 1000} {
		for _, skipNulls := range []bool{false, true} {
			for _, cols := range [][]int{nil, {1}, {2, 0}} {
				for _, owning := range []bool{false, true} {
					checkAgainstReference(t, "real", nil, capacity, skipNulls, cols, owning).Release()
				}
			}
		}
	}
}

// TestRowIndexRecycledAllocatesNothing: a warm index taken, filled and
// released allocates nothing, at either stride.
func TestRowIndexRecycledAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rows := make([][]Value, 1000)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i % 300)), NewInt(int64(i))}
	}
	for _, cols := range [][]int{nil, {0}} {
		if got := testing.AllocsPerRun(10, func() {
			ix := NewRowIndex(rows, cols, false, len(rows))
			for i := range rows {
				ix.FindOrAdd(int32(i))
			}
			ix.Release()
		}); got != 0 {
			t.Errorf("cols %v: a warm index allocates %.0f objects per take, fill and release, want 0", cols, got)
		}
	}
}
