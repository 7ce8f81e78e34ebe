package catalog

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"disqo/internal/types"
)

// referenceStats is the hash-set formulation columnStats replaces: one
// set of value hashes per column, and the range by a running compare.
func referenceStats(tuples [][]types.Value, i int) ColumnStats {
	var s ColumnStats
	seen := map[uint64]struct{}{}
	first := true
	for _, row := range tuples {
		v := row[i]
		seen[v.Hash()] = struct{}{}
		if f, ok := v.AsFloat(); ok {
			if first || f < s.Min {
				s.Min = f
			}
			if first || f > s.Max {
				s.Max = f
			}
			first = false
		}
	}
	s.Distinct = len(seen)
	return s
}

// sameStats compares two ColumnStats bit for bit, so a NaN range or a
// −0.0 minimum must be reproduced exactly.
func sameStats(a, b ColumnStats) bool {
	return a.Distinct == b.Distinct &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// randomValue draws from a small domain, so columns repeat values, with
// the cases a distinct count or a range can get wrong: NULL, ints equal
// to floats, NaN (of two payloads), ±Inf, −0.0 beside 0, and strings.
func randomValue(rng *rand.Rand, kinds int) types.Value {
	switch rng.Intn(kinds) {
	case 0:
		return types.Null()
	case 1:
		return types.NewInt(int64(rng.Intn(20) - 10))
	case 2:
		specials := []float64{
			math.NaN(), math.Float64frombits(0x7ff8000000000001),
			math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 2.5, -7,
		}
		if rng.Intn(2) == 0 {
			return types.NewFloat(specials[rng.Intn(len(specials))])
		}
		return types.NewFloat(float64(rng.Intn(40)-20) / 4)
	default:
		return types.NewString(string(rune('a' + rng.Intn(12))))
	}
}

// TestColumnStatsMatchHashSetReference: on seeded random tables — every
// column a different mix of kinds, some all-NULL or all-string, some
// empty — the sort-and-count kernel gives the hash set's distinct count
// and the same range, bit for bit.
func TestColumnStatsMatchHashSetReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ncols, nrows := 1+rng.Intn(5), rng.Intn(300)
		cols := make([]Column, ncols)
		kinds := make([]int, ncols)
		for i := range cols {
			cols[i] = Column{Name: string(rune('a' + i)), Type: types.KindFloat}
			kinds[i] = 1 + rng.Intn(4) // 1: only NULLs … 4: every kind
		}
		tuples := make([][]types.Value, nrows)
		for r := range tuples {
			row := make([]types.Value, ncols)
			for i := range row {
				row[i] = randomValue(rng, kinds[i])
			}
			tuples[r] = row
		}
		c := New()
		tbl, err := c.Create("t", cols)
		if err != nil {
			t.Fatal(err)
		}
		tbl.BulkLoad(tuples)
		for i := range cols {
			if got, want := *tbl.ColumnStats(i), referenceStats(tuples, i); !sameStats(got, want) {
				t.Fatalf("seed %d column %d (%d rows): ColumnStats = %+v, reference %+v", seed, i, nrows, got, want)
			}
		}
	}
}

// TestColumnStatsComputedOncePerColumn: concurrent readers of one
// published table version, asking for the columns in different orders,
// all get the one computation per column (one pointer), and a later
// version's statistics are its own.
func TestColumnStatsComputedOncePerColumn(t *testing.T) {
	c := New()
	if _, err := c.Create("t", []Column{{Name: "a", Type: types.KindInt}, {Name: "b", Type: types.KindInt}, {Name: "c", Type: types.KindInt}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]types.Value, 500)
	for r := range rows {
		rows[r] = []types.Value{types.NewInt(int64(r)), types.NewInt(int64(r % 7)), types.Null()}
	}
	if err := c.InsertRows("t", rows...); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Lookup("t")
	const readers = 8
	got := make([][3]*ColumnStats, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				i := (g + k) % 3
				got[g][i] = tbl.ColumnStats(i)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		if got[g] != got[0] {
			t.Fatalf("reader %d got other statistics objects than reader 0: a column was computed twice", g)
		}
	}
	if d := []int{got[0][0].Distinct, got[0][1].Distinct, got[0][2].Distinct}; d[0] != 500 || d[1] != 7 || d[2] != 1 {
		t.Errorf("distinct counts = %v, want [500 7 1]", d)
	}
	if err := c.InsertRows("t", []types.Value{types.NewInt(1000), types.NewInt(7), types.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	next, _ := c.Lookup("t")
	if s := next.ColumnStats(1); s == got[0][1] || s.Distinct != 8 {
		t.Errorf("the next version reused or miscounted column b: %+v", *s)
	}
	if tbl.ColumnStats(1) != got[0][1] {
		t.Error("a commit changed the statistics of the version before it")
	}
}
