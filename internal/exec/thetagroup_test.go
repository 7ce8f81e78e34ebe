package exec

import (
	"math"
	"math/rand"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/types"
)

// thetaFixture builds two tables of an INT grouping column and an INT
// value column, with random values including NULLs.
func thetaFixture(t testing.TB, seed int64, nl, nr int) (*catalog.Catalog, *algebra.Scan, *algebra.Scan) {
	return thetaTables(t, seed, nl, ints, nr, ints)
}

// keyGen draws a non-NULL grouping value.
type keyGen func(rng *rand.Rand) types.Value

func ints(rng *rand.Rand) types.Value { return types.NewInt(int64(rng.Intn(20))) }

func strs(rng *rand.Rand) types.Value { return types.NewString(string(rune('a' + rng.Intn(20)))) }

func floats(rng *rand.Rand) types.Value {
	if rng.Intn(6) == 0 {
		return types.NewFloat(math.NaN())
	}
	return types.NewFloat(float64(rng.Intn(40)) / 2)
}

// mix draws each value from one of the generators, picked at random.
func mix(gens ...keyGen) keyGen {
	return func(rng *rand.Rand) types.Value { return gens[rng.Intn(len(gens))](rng) }
}

// thetaTables is thetaFixture with the grouping values of each side
// drawn from a generator; the rows are loaded unchecked, so a column may
// mix kinds.
func thetaTables(t testing.TB, seed int64, nl int, lkeys keyGen, nr int, rkeys keyGen) (*catalog.Catalog, *algebra.Scan, *algebra.Scan) {
	t.Helper()
	cat := catalog.New()
	l, err := cat.Create("l", []catalog.Column{
		{Name: "x", Type: types.KindInt}, {Name: "w", Type: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cat.Create("rr", []catalog.Column{
		{Name: "y", Type: types.KindInt}, {Name: "v", Type: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	gen := func(tbl *catalog.Table, n int, keys keyGen) {
		rows := make([][]types.Value, n)
		for i := range rows {
			a := keys(rng)
			if rng.Intn(8) == 0 {
				a = types.Null()
			}
			b := types.NewInt(int64(rng.Intn(100)))
			if rng.Intn(10) == 0 {
				b = types.Null()
			}
			rows[i] = []types.Value{a, b}
		}
		tbl.BulkLoad(rows)
	}
	gen(l, nl, lkeys)
	gen(r, nr, rkeys)
	return cat,
		algebra.NewScan("l", "l", l.Rel.Schema),
		algebra.NewScan("rr", "rr", r.Rel.Schema)
}

// nlForce rephrases a single inequality so the sorted path does not
// trigger (an AND of the inequality with TRUE is no longer a bare
// CmpExpr).
func nlForce(pred algebra.Expr) algebra.Expr {
	return algebra.And(pred, algebra.Const(types.NewBool(true)))
}

// TestSortedThetaGroupingMatchesNL: the sort-based Γ² answers as the
// nested-loop one does, whose per-pair comparison is the reference — on
// integers, on a right side of strings that only some left values
// compare with, on integers against floats, and on floats with NaN
// (which Compare orders above every number). A right side mixing kinds
// that do not compare with each other has no order to search, and is
// folded per pair.
func TestSortedThetaGroupingMatchesNL(t *testing.T) {
	specs := []algebra.AggItem{
		{Out: "cnt", Spec: agg.Spec{Kind: agg.Count, Star: true}},
		{Out: "sum", Spec: agg.Spec{Kind: agg.Sum}, Arg: algebra.Col("rr.v")},
		{Out: "mn", Spec: agg.Spec{Kind: agg.Min}, Arg: algebra.Col("rr.v")},
		{Out: "mx", Spec: agg.Spec{Kind: agg.Max}, Arg: algebra.Col("rr.v")},
	}
	for _, c := range []struct {
		name         string
		lkeys, rkeys keyGen
		sorted       bool
	}{
		{"int", ints, ints, true},
		{"int-vs-string", mix(ints, strs), strs, true},
		{"int-vs-float", ints, mix(ints, floats), true},
		{"float-with-NaN", floats, floats, true},
		{"int-and-string", ints, mix(ints, strs), false},
	} {
		for _, op := range []types.CompareOp{types.LT, types.LE, types.GT, types.GE} {
			for seed := int64(0); seed < 3; seed++ {
				cat, l, r := thetaTables(t, seed, 40, c.lkeys, 60, c.rkeys)
				pred := algebra.Cmp(op, algebra.Col("l.x"), algebra.Col("rr.y"))

				exSorted := New(cat, Options{Cache: CacheAll})
				sortedRel, err := exSorted.Run(algebra.NewBinaryGroup(l, r, pred, specs))
				if err != nil {
					t.Fatal(err)
				}
				want := int64(0)
				if c.sorted {
					want = 1
				}
				if got := exSorted.Stats().SortedGroups; got != want {
					t.Fatalf("%s %v: %d sort-based groupings, want %d", c.name, op, got, want)
				}

				exNL := New(cat, Options{Cache: CacheAll})
				nlRel, err := exNL.Run(algebra.NewBinaryGroup(l, r, nlForce(pred), specs))
				if err != nil {
					t.Fatal(err)
				}
				if exNL.Stats().SortedGroups != 0 {
					t.Fatal("NL control unexpectedly used the sorted path")
				}

				a, b := sortedRel.Canonical(), nlRel.Canonical()
				if len(a) != len(b) {
					t.Fatalf("%s op %v seed %d: %d vs %d rows", c.name, op, seed, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s op %v seed %d row %d:\nsorted: %s\nnl:     %s", c.name, op, seed, i, a[i], b[i])
					}
				}
			}
		}
	}
}

func TestSortedThetaGroupingFlippedOperands(t *testing.T) {
	cat, l, r := thetaFixture(t, 7, 30, 30)
	// rr.y > l.x ≡ l.x < rr.y: the executor must flip and still sort.
	pred := algebra.Cmp(types.GT, algebra.Col("rr.y"), algebra.Col("l.x"))
	specs := []algebra.AggItem{{Out: "cnt", Spec: agg.Spec{Kind: agg.Count, Star: true}}}
	ex := New(cat, Options{Cache: CacheAll})
	flipped, err := ex.Run(algebra.NewBinaryGroup(l, r, pred, specs))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats().SortedGroups != 1 {
		t.Fatal("flipped inequality must use the sorted path")
	}
	direct := algebra.Cmp(types.LT, algebra.Col("l.x"), algebra.Col("rr.y"))
	ex2 := New(cat, Options{Cache: CacheAll})
	want, err := ex2.Run(algebra.NewBinaryGroup(l, r, direct, specs))
	if err != nil {
		t.Fatal(err)
	}
	a, b := flipped.Canonical(), want.Canonical()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestSortedThetaGroupingSkipsDistinctAndAvg(t *testing.T) {
	cat, l, r := thetaFixture(t, 1, 10, 10)
	pred := algebra.Cmp(types.LT, algebra.Col("l.x"), algebra.Col("rr.y"))
	for _, spec := range []agg.Spec{
		{Kind: agg.Count, Distinct: true},
		{Kind: agg.Avg},
	} {
		ex := New(cat, Options{Cache: CacheAll})
		_, err := ex.Run(algebra.NewBinaryGroup(l, r, pred,
			[]algebra.AggItem{{Out: "g", Spec: spec, Arg: algebra.Col("rr.v")}}))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Stats().SortedGroups != 0 {
			t.Errorf("%v must not use the sorted path", spec)
		}
	}
}

func BenchmarkBinaryGroupNL(b *testing.B) {
	cat, l, r := thetaFixture(b, 3, 1000, 1000)
	pred := nlForce(algebra.Cmp(types.LT, algebra.Col("l.x"), algebra.Col("rr.y")))
	specs := []algebra.AggItem{{Out: "cnt", Spec: agg.Spec{Kind: agg.Count, Star: true}}}
	plan := algebra.NewBinaryGroup(l, r, pred, specs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cat, Options{Cache: CacheAll}).Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryGroupSorted(b *testing.B) {
	cat, l, r := thetaFixture(b, 3, 1000, 1000)
	pred := algebra.Cmp(types.LT, algebra.Col("l.x"), algebra.Col("rr.y"))
	specs := []algebra.AggItem{{Out: "cnt", Spec: agg.Spec{Kind: agg.Count, Star: true}}}
	plan := algebra.NewBinaryGroup(l, r, pred, specs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cat, Options{Cache: CacheAll}).Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}
