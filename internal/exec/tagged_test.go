package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/physical"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/storage"
	"disqo/internal/testutil"
	"disqo/internal/translate"
	"disqo/internal/types"
)

// taggedFixture fills r, s and t with rows over a domain of six values
// and one NULL in seven, so every table is a bag with many exact
// duplicate rows and NULLs reach the correlation columns, the aggregate
// arguments and the columns p reads. The second column of each table —
// what the correlations compare — draws from keys values instead (and
// NULL in keys+1), so few keys make every outer key repeat. Each table
// has its own random stream: s and t do not change with nr.
func taggedFixture(t *testing.T, seed int64, nr, ns, nt, keys int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for k, spec := range []struct {
		name, prefix string
		n            int
	}{{"r", "a", nr}, {"s", "b", ns}, {"t", "c", nt}} {
		rng := rand.New(rand.NewSource(seed<<2 | int64(k)))
		cols := make([]catalog.Column, 4)
		for i := range cols {
			cols[i] = catalog.Column{Name: fmt.Sprintf("%s%d", spec.prefix, i+1), Type: types.KindInt}
		}
		tbl, err := cat.Create(spec.name, cols)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.n; i++ {
			row := make([]types.Value, 4)
			for j := range row {
				domain := 6
				if j == 1 {
					domain = keys
				}
				if v := rng.Intn(domain + 1); v < domain {
					row[j] = types.NewInt(int64(v))
				} else {
					row[j] = types.Null()
				}
			}
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat
}

// TestTaggedEqv5MatchesCanonical is the tagged Eqv. 5's property test:
// on random bags, the rewritten plan returns what nested-loop evaluation
// of the canonical plan returns, under both null logics, and returns it
// byte for byte whatever the worker count. The subquery sits in the
// SELECT clause without DISTINCT, so every outer duplicate's aggregate
// value is compared, not just which rows survive a filter. The
// decomposable aggregates are the shapes the paper's Eqv. 4 takes, and
// the two-key fixture makes every correlation key's group, folded once,
// serve dozens of outer rows.
func TestTaggedEqv5MatchesCanonical(t *testing.T) {
	cases := []struct{ name, agg, where string }{
		{"count distinct star", "COUNT(DISTINCT *)", "a2 = b2 OR b4 > 3"},
		{"sum distinct", "SUM(DISTINCT b3)", "a2 = b2 OR b4 > 3"},
		{"avg distinct", "AVG(DISTINCT b3)", "a2 = b2 OR b4 > 3"},
		{"count distinct col", "COUNT(DISTINCT b1)", "a2 = b2 OR b4 IS NULL"},
		{"theta correlation", "COUNT(DISTINCT b1)", "a2 < b2 OR b4 > 3"},
		{"two correlated disjuncts", "SUM(DISTINCT b3)", "a2 = b2 OR a3 = b3 OR b4 > 4"},
		{"no local disjunct", "COUNT(DISTINCT *)", "a2 = b2 OR a3 = b3"},
		{"nested scalar p", "COUNT(DISTINCT *)",
			"a2 = b2 OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b2 = c2)"},
		{"nested not-in p", "COUNT(DISTINCT b1)",
			"a2 = b2 OR b3 NOT IN (SELECT c3 FROM t WHERE b2 = c2)"},
		{"count star", "COUNT(*)", "a2 = b2 OR b4 > 3"},
		{"count col", "COUNT(b1)", "a2 = b2 OR b4 > 3"},
		{"sum", "SUM(b3)", "a2 = b2 OR b4 > 3"},
		{"avg", "AVG(b3)", "a2 = b2 OR b4 > 3"},
		{"min", "MIN(b3)", "a2 = b2 OR b4 > 3"},
		{"max", "MAX(b3)", "a2 = b2 OR b4 > 3"},
	}
	for _, tc := range cases {
		sql := fmt.Sprintf("SELECT a1, a2, (SELECT %s FROM s WHERE %s) AS g FROM r", tc.agg, tc.where)
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, keys := range []int{6, 2} {
			for seed := int64(1); seed <= 3; seed++ {
				// 150 outer rows are two morsels of 64 and a tail, so four
				// workers really do split the probe.
				cat := taggedFixture(t, seed, 150, 40, 25, keys)
				canonical, err := translate.New(cat).Translate(stmt)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				for _, nulls := range []string{"3vl", "2vl"} {
					canonical := canonical
					if nulls == "2vl" {
						if canonical, err = translate.TwoValued(canonical); err != nil {
							t.Fatal(err)
						}
					}
					rw := rewrite.New(cat, rewrite.AllCaps())
					plan, err := rw.Rewrite(canonical)
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					if !strings.Contains(strings.Join(rw.Trace, ";"), "Eqv. 5") {
						t.Fatalf("%s: not an Eqv. 5 plan: %v", tc.name, rw.Trace)
					}
					run := func(p algebra.Op, workers int) *storage.Relation {
						rel, err := New(cat, Options{Cache: CacheAll,
							Workers: workers, MorselSize: MinMorselSize}).Run(p)
						if err != nil {
							t.Fatalf("%s seed %d: %v\n%s", tc.name, seed, err, algebra.Explain(p))
						}
						return rel
					}
					want, one, four := run(canonical, 1), run(plan, 1), run(plan, 4)
					if !reflect.DeepEqual(one.Tuples, four.Tuples) {
						t.Errorf("%s keys %d seed %d nulls %v: 1 and 4 workers differ", tc.name, keys, seed, nulls)
					}
					if g, w := strings.Join(one.Canonical(), "\n"), strings.Join(want.Canonical(), "\n"); g != w {
						t.Errorf("%s keys %d seed %d nulls %v: tagged Eqv. 5 differs from canonical\n--- got ---\n%s\n--- want ---\n%s\n%s",
							tc.name, keys, seed, nulls, g, w, algebra.Explain(plan))
					}
				}
			}
		}
	}
}

// TestBinaryGroupFoldsEachKeyOnce pins the per-key fold of the hashed Γ²:
// with the inner relation fixed, doubling the outer one adds a handful of
// allocations in all — the output rows come from slabs — however often
// a key repeats, even for DISTINCT, whose accumulators would otherwise
// build a set per outer row.
func TestBinaryGroupFoldsEachKeyOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	stmt, err := sqlparser.Parse(`SELECT (SELECT COUNT(DISTINCT b1) FROM s WHERE a2 = b2 OR b4 > 3) AS g FROM r`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(nr int) float64 {
		cat := taggedFixture(t, 1, nr, 200, 0, 3)
		canonical, err := translate.New(cat).Translate(stmt)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := rewrite.New(cat, rewrite.AllCaps()).Rewrite(canonical)
		if err != nil {
			t.Fatal(err)
		}
		// Run the Γ² alone: the χ above it spends its own row per row.
		var bg algebra.Op
		algebra.Walk(plan, func(op algebra.Op) bool {
			if _, ok := op.(*algebra.BinaryGroup); ok {
				bg = op
			}
			return bg == nil
		})
		return testing.AllocsPerRun(5, func() {
			if _, err := New(cat, Options{Cache: CacheAll, Workers: 1}).Run(bg); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n, most = 500, 8
	small, large := allocs(n), allocs(2*n)
	if extra := large - small; extra > most {
		t.Errorf("%d more outer rows cost %.0f more allocations (%.0f → %.0f); want at most %d", n, extra, small, large, most)
	}
}

// TestDistinctAccumulatorKeysOnColumns pins the DISTINCT accumulators of
// the tagged Γ²: they key their sets on the argument's columns of the
// inner rows themselves, so with the outer rows fixed, 500 more inner
// rows that repeat existing (key, argument) pairs add a handful of
// allocations in all — the inner relation's own growth — not an argument
// tuple each.
func TestDistinctAccumulatorKeysOnColumns(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, arg := range []string{"COUNT(DISTINCT *)", "SUM(DISTINCT b3)"} {
		stmt, err := sqlparser.Parse(fmt.Sprintf(`SELECT (SELECT %s FROM s WHERE a2 = b2 OR b4 > 3) AS g FROM r`, arg))
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(repeats int) float64 {
			cat := taggedFixture(t, 1, 200, 500, 0, 3)
			s, err := cat.Lookup("s")
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range append([][]types.Value(nil), s.Rel.Tuples[:repeats]...) {
				if err := s.Insert(append([]types.Value(nil), row...)); err != nil {
					t.Fatal(err)
				}
			}
			canonical, err := translate.New(cat).Translate(stmt)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := rewrite.New(cat, rewrite.AllCaps()).Rewrite(canonical)
			if err != nil {
				t.Fatal(err)
			}
			var bg algebra.Op
			algebra.Walk(plan, func(op algebra.Op) bool {
				if _, ok := op.(*algebra.BinaryGroup); ok {
					bg = op
				}
				return bg == nil
			})
			return testing.AllocsPerRun(5, func() {
				if _, err := New(cat, Options{Cache: CacheAll, Workers: 1, Path: PathVector}).Run(bg); err != nil {
					t.Fatal(err)
				}
			})
		}
		const n, most = 500, 16
		small, large := allocs(0), allocs(n)
		if extra := large - small; extra > most {
			t.Errorf("%s: %d repeated inner rows cost %.0f more allocations (%.0f → %.0f); want at most %d", arg, n, extra, small, large, most)
		}
	}
}

// TestTaggedDistinctDedupsPerKey works the hashed tagged Γ²'s DISTINCT
// aggregates by hand, against canonical evaluation too, under both null
// logics. s holds, under the tag b4 > 3, the arguments 10 and 20 (R⁺,
// one of them under a NULL key); its other rows (R⁻) repeat 10 under key
// 1, repeat 30 under key 1 and again under key 2, carry a NULL argument
// under key 2, duplicate a whole row, and put 40 under a NULL key, which
// no left row reaches. Every left row's group is R⁺ ∪ its key's R⁻ rows,
// so an argument R⁺ holds must not count again under a key (the base
// set is consulted), and 30 must count under key 2 though key 1 saw it
// first (the dedup is keyed on the correlation columns as well).
func TestTaggedDistinctDedupsPerKey(t *testing.T) {
	null := types.Null()
	i := func(v int64) types.Value { return types.NewInt(v) }
	cat := catalog.New()
	for _, tbl := range []struct {
		name string
		cols []string
		rows [][]types.Value
	}{
		{"r", []string{"a1", "a2"}, [][]types.Value{{i(1), i(1)}, {i(2), i(2)}, {i(3), i(3)}, {i(4), null}, {i(5), i(1)}}},
		{"s", []string{"b1", "b2", "b3", "b4"}, [][]types.Value{
			{i(1), i(9), i(10), i(5)}, // R⁺
			{i(2), null, i(20), i(4)}, // R⁺, NULL key
			{i(3), i(1), i(10), i(0)}, // key 1: 10 is in R⁺
			{i(4), i(1), i(30), i(0)}, // key 1
			{i(5), i(1), i(30), i(1)}, // key 1: 30 again
			{i(4), i(1), i(30), i(0)}, // key 1: the whole row again
			{i(6), i(2), i(30), null}, // key 2: 30, which key 1 also holds
			{i(7), i(2), null, i(0)},  // key 2: NULL argument
			{i(8), null, i(40), i(0)}, // NULL key: in no group
			{i(9), i(2), i(40), i(2)}, // key 2
		}},
	} {
		cols := make([]catalog.Column, len(tbl.cols))
		for k, c := range tbl.cols {
			cols[k] = catalog.Column{Name: c, Type: types.KindInt}
		}
		created, err := cat.Create(tbl.name, cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tbl.rows {
			if err := created.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := types.NewFloat
	for _, c := range []struct {
		agg string
		// want[k] is the result for left row a1 = k+1: keys 1, 2, 3 (which
		// R⁻ lacks), NULL and 1 again.
		want []types.Value
	}{
		{"COUNT(DISTINCT b3)", []types.Value{i(3), i(4), i(2), i(2), i(3)}},
		{"SUM(DISTINCT b3)", []types.Value{i(60), i(100), i(30), i(30), i(60)}},
		{"AVG(DISTINCT b3)", []types.Value{f(20), f(25), f(15), f(15), f(20)}},
		{"COUNT(DISTINCT *)", []types.Value{i(5), i(5), i(2), i(2), i(5)}},
	} {
		stmt, err := sqlparser.Parse(fmt.Sprintf("SELECT a1, (SELECT %s FROM s WHERE a2 = b2 OR b4 > 3) AS g FROM r", c.agg))
		if err != nil {
			t.Fatal(err)
		}
		canonical, err := translate.New(cat).Translate(stmt)
		if err != nil {
			t.Fatal(err)
		}
		for _, nulls := range []string{"3vl", "2vl"} {
			canonical := canonical
			if nulls == "2vl" {
				if canonical, err = translate.TwoValued(canonical); err != nil {
					t.Fatal(err)
				}
			}
			plan, err := rewrite.New(cat, rewrite.AllCaps()).Rewrite(canonical)
			if err != nil {
				t.Fatal(err)
			}
			n, err := physical.NewPlanner(stats.New(cat)).Lower(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(physical.Explain(n), "TagBinaryGroup(hash)[") {
				t.Fatalf("%s: not a hashed tagged Γ²:\n%s", c.agg, physical.Explain(n))
			}
			run := func(p algebra.Op, workers int) *storage.Relation {
				rel, err := New(cat, Options{Cache: CacheAll, Workers: workers, MorselSize: MinMorselSize}).Run(p)
				if err != nil {
					t.Fatalf("%s %s: %v", c.agg, nulls, err)
				}
				return rel
			}
			want := strings.Join(run(canonical, 1).Canonical(), "\n")
			for _, workers := range []int{1, 4} {
				got := run(plan, workers)
				if g := strings.Join(got.Canonical(), "\n"); g != want {
					t.Errorf("%s %s, %d workers: tagged Eqv. 5 differs from canonical\n--- got ---\n%s\n--- want ---\n%s", c.agg, nulls, workers, g, want)
				}
				if len(got.Tuples) != len(c.want) {
					t.Fatalf("%s %s: %d rows, want %d", c.agg, nulls, len(got.Tuples), len(c.want))
				}
				for _, row := range got.Tuples {
					a1, _ := row[0].IntOk()
					if w := c.want[a1-1]; !types.Identical(row[1], w) {
						t.Errorf("%s %s, %d workers: a1 = %d gets %s, want %s", c.agg, nulls, workers, a1, row[1], w)
					}
				}
			}
		}
	}
}
