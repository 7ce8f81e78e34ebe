package types

import (
	"math/rand"
	"testing"
)

// refIndex is the structure RowIndex replaced, kept as its reference: a
// map from key hash to the entries with that hash, verified by
// comparison. Entries are numbered in insertion order.
type refIndex struct {
	cols      []int
	skipNulls bool
	rows      [][]Value
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
		if stored, _ := r.key(r.rows[e], r.cols); TuplesIdentical(stored, key) {
			out = append(out, e)
		}
	}
	return out
}

func (r *refIndex) add(row []Value) {
	key, ok := r.key(row, r.cols)
	if !ok {
		return
	}
	if r.buckets == nil {
		r.buckets = map[uint64][]int32{}
	}
	h := HashTuple(key)
	r.buckets[h] = append(r.buckets[h], int32(len(r.rows)))
	r.rows = append(r.rows, row)
}

// allMatches walks First/Next to the end.
func allMatches(ix *RowIndex, row []Value, cols []int) []int32 {
	var out []int32
	for e := ix.First(row, cols); e >= 0; e = ix.Next(e, row, cols) {
		out = append(out, e)
	}
	return out
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
		ix := NewRowIndex([]int{0}, false, 0)
		for _, c := range []struct {
			row   []Value
			entry int32
			added bool
		}{
			{row(one, two), 0, true}, {row(null, one), 1, true}, {row(NewFloat(1), null), 0, false},
			{row(null, two), 1, false}, {row(two, two), 2, true},
		} {
			if e, added := ix.FindOrAdd(c.row); e != c.entry || added != c.added {
				t.Errorf("FindOrAdd(%s) = entry %d, added %v; want %d, %v", FormatTuple(c.row), e, added, c.entry, c.added)
			}
		}
		if ix.Len() != 3 || !TuplesIdentical(ix.Row(1), row(null, one)) {
			t.Errorf("index holds %d entries, entry 1 = %s; want 3 and the first NULL-keyed row", ix.Len(), FormatTuple(ix.Row(1)))
		}
		// Probed by another layout: the key is column 1 of the probe row.
		if got := allMatches(ix, row(two, null), []int{1}); !sameEntries(got, []int32{1}) {
			t.Errorf("probe by (row, cols) for a NULL key = %v, want [1]", got)
		}
	})

	t.Run("SQL equality skips NULL keys on both sides", func(t *testing.T) {
		ix := NewRowIndex([]int{1, 0}, true, 4)
		for _, r := range [][]Value{row(one, two), row(null, two), row(one, two), row(one, null)} {
			if h, ok := ix.Hash(r, []int{1, 0}); ok {
				ix.Add(r, h)
			}
		}
		if ix.Len() != 2 {
			t.Fatalf("index holds %d entries, want the 2 without a NULL key column", ix.Len())
		}
		if got := allMatches(ix, row(two, one), nil); !sameEntries(got, []int32{0, 1}) {
			t.Errorf("matches of (2, 1) = %v, want both duplicates in insertion order", got)
		}
		if got := allMatches(ix, row(two, null), nil); got != nil {
			t.Errorf("a probe with a NULL key matched %v", got)
		}
		if e, added := ix.FindOrAdd(row(null, null)); e != -1 || added {
			t.Errorf("FindOrAdd of a NULL key = %d, %v; want it skipped", e, added)
		}
	})

	t.Run("whole rows of different widths never match", func(t *testing.T) {
		ix := NewRowIndex(nil, false, 0)
		ix.collide = func(uint64) uint64 { return 7 } // so that only the comparison can tell them apart
		ix.FindOrAdd(row(one))
		if got := ix.First(row(one, one), nil); got != -1 {
			t.Errorf("a 2-column probe matched the 1-column entry %d", got)
		}
		if got := ix.First(row(NewFloat(1)), nil); got != 0 {
			t.Errorf("1.0 did not find the entry 1: %d", got)
		}
	})

	t.Run("an empty key is one group", func(t *testing.T) {
		ix := NewRowIndex([]int{}, false, 0)
		for _, r := range [][]Value{row(one), row(two), nil} {
			if e, _ := ix.FindOrAdd(r); e != 0 {
				t.Errorf("row %s founded entry %d under the empty key", FormatTuple(r), e)
			}
		}
	})
}

// TestRowIndexAgainstReference drives RowIndex and the map-of-slices
// reference with the same random inserts and probes — duplicate-heavy
// keys, NULLs, ints and floats that are the same number, probes laid out
// differently from the stored rows — through several growth steps, with
// the real hash, with a hash cut to two bits, and with every hash equal;
// unsized, and presized to capacities that are not powers of two, each
// filled past its exact capacity.
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
					checkAgainstReference(t, name, collide, capacity, skipNulls, cols)
				}
			}
		}
	}
}

// checkAgainstReference runs one configuration of
// TestRowIndexAgainstReference: enough steps to fill an index presized
// to capacity and grow it past that.
func checkAgainstReference(t *testing.T, name string, collide func(uint64) uint64, capacity int, skipNulls bool, cols []int) {
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
	ix := NewRowIndex(cols, skipNulls, capacity)
	ix.collide = collide
	ref := &refIndex{cols: cols, skipNulls: skipNulls}
	for step := 0; step < 600+2*capacity; step++ {
		stored := []Value{val(), val(), val()}
		if rng.Intn(3) == 0 { // find-or-add, as a grouping table or a DISTINCT set does
			want := ref.matches(stored, cols)
			e, added := ix.FindOrAdd(stored)
			_, indexable := ref.key(stored, cols)
			switch {
			case !indexable:
				if e != -1 || added {
					t.Fatalf("%s: FindOrAdd(%s) = %d, %v for a skipped key", name, FormatTuple(stored), e, added)
				}
			case len(want) > 0:
				if e != want[0] || added {
					t.Fatalf("%s: FindOrAdd(%s) = %d, %v; reference finds %v", name, FormatTuple(stored), e, added, want)
				}
			default:
				if e != int32(len(ref.rows)) || !added {
					t.Fatalf("%s: FindOrAdd(%s) = %d, %v; reference would add entry %d", name, FormatTuple(stored), e, added, len(ref.rows))
				}
				ref.add(stored)
			}
		} else if h, ok := ix.Hash(stored, cols); ok { // plain add, as a join build does
			ix.Add(stored, h)
			ref.add(stored)
		}
		// Probe with a row of another layout: its key columns reversed.
		probe := []Value{val(), val(), val(), val()}
		pcols := []int{3, 2, 1}[:max(len(cols), 1)]
		if cols == nil {
			probe, pcols = probe[:3], nil
		}
		if got, want := allMatches(ix, probe, pcols), ref.matches(probe, pcols); !sameEntries(got, want) {
			t.Fatalf("%s capacity=%d skipNulls=%v cols=%v: matches of %s by %v = %v, reference %v",
				name, capacity, skipNulls, cols, FormatTuple(probe), pcols, got, want)
		}
	}
	if ix.Len() != len(ref.rows) || ix.Len() < 100 || ix.Len() <= capacity {
		t.Fatalf("%s capacity=%d: %d entries, reference %d; want equal, several growth steps and past the capacity",
			name, capacity, ix.Len(), len(ref.rows))
	}
	for e, r := range ref.rows {
		if &ix.Row(int32(e))[0] != &r[0] {
			t.Fatalf("%s: entry %d is not the row that was inserted %dth", name, e, e)
		}
	}
}

// TestRowIndexAllocatesPerGrowthStep: a thousand entries cost the index
// and two blocks per doubling, not an allocation each; presized, three
// allocations in all.
func TestRowIndexAllocatesPerGrowthStep(t *testing.T) {
	rows := make([][]Value, 1000)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i % 300))}
	}
	for _, c := range []struct {
		capacity int
		most     float64
	}{{0, 1 + 2*8}, {len(rows), 3}} {
		got := testing.AllocsPerRun(10, func() {
			ix := NewRowIndex(nil, false, c.capacity)
			for _, r := range rows {
				ix.FindOrAdd(r)
			}
		})
		if got > c.most {
			t.Errorf("capacity %d: %.0f allocations for %d inserts, want at most %.0f", c.capacity, got, len(rows), c.most)
		}
	}
	// Presized to any capacity and filled up to it, an index never grows,
	// and holds exactly that many entries' room.
	for _, capacity := range []int{1, 7, 9, 1000, 1025} {
		distinct := make([][]Value, capacity)
		for i := range distinct {
			distinct[i] = []Value{NewInt(int64(i))}
		}
		var ix *RowIndex
		got := testing.AllocsPerRun(10, func() {
			ix = NewRowIndex(nil, false, capacity)
			for _, r := range distinct {
				ix.FindOrAdd(r)
			}
		})
		if got > 3 || ix.Len() != capacity || cap(ix.entries) != capacity {
			t.Errorf("capacity %d filled: %.0f allocations, %d entries in room for %d; want 3, and no growth",
				capacity, got, ix.Len(), cap(ix.entries))
		}
	}
}
