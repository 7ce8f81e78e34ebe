package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
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
