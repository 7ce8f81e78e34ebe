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
	"disqo/internal/translate"
	"disqo/internal/types"
)

// taggedFixture fills r, s and t with rows over a domain of six values
// and one NULL in seven, so every table is a bag with many exact
// duplicate rows and NULLs reach the correlation columns, the aggregate
// arguments and the columns p reads.
func taggedFixture(t *testing.T, seed int64, nr, ns, nt int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	rng := rand.New(rand.NewSource(seed))
	for _, spec := range []struct {
		name, prefix string
		n            int
	}{{"r", "a", nr}, {"s", "b", ns}, {"t", "c", nt}} {
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
				if v := rng.Intn(7); v < 6 {
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
// value is compared, not just which rows survive a filter.
func TestTaggedEqv5MatchesCanonical(t *testing.T) {
	forced := rewrite.AllCaps()
	forced.PreferEqv5 = true
	cases := []struct {
		name, agg, where string
		caps             rewrite.Caps
	}{
		{"count distinct star", "COUNT(DISTINCT *)", "a2 = b2 OR b4 > 3", rewrite.AllCaps()},
		{"sum distinct", "SUM(DISTINCT b3)", "a2 = b2 OR b4 > 3", rewrite.AllCaps()},
		{"avg distinct", "AVG(DISTINCT b3)", "a2 = b2 OR b4 > 3", rewrite.AllCaps()},
		{"count distinct col", "COUNT(DISTINCT b1)", "a2 = b2 OR b4 IS NULL", rewrite.AllCaps()},
		{"theta correlation", "COUNT(DISTINCT b1)", "a2 < b2 OR b4 > 3", rewrite.AllCaps()},
		{"two correlated disjuncts", "SUM(DISTINCT b3)", "a2 = b2 OR a3 = b3 OR b4 > 4", rewrite.AllCaps()},
		{"no local disjunct", "COUNT(DISTINCT *)", "a2 = b2 OR a3 = b3", rewrite.AllCaps()},
		{"nested scalar p", "COUNT(DISTINCT *)",
			"a2 = b2 OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b2 = c2)", rewrite.AllCaps()},
		{"nested not-in p", "COUNT(DISTINCT b1)",
			"a2 = b2 OR b3 NOT IN (SELECT c3 FROM t WHERE b2 = c2)", rewrite.AllCaps()},
		{"forced count star", "COUNT(*)", "a2 = b2 OR b4 > 3", forced},
		{"forced sum", "SUM(b3)", "a2 = b2 OR b4 > 3", forced},
		{"forced min", "MIN(b3)", "a2 = b2 OR b4 > 3", forced},
	}
	for _, tc := range cases {
		sql := fmt.Sprintf("SELECT a1, a2, (SELECT %s FROM s WHERE %s) AS g FROM r", tc.agg, tc.where)
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			// 150 outer rows are two morsels of 64 and a tail, so four
			// workers really do split the probe.
			cat := taggedFixture(t, seed, 150, 40, 25)
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
				rw := rewrite.New(cat, tc.caps)
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
					t.Errorf("%s seed %d nulls %v: 1 and 4 workers differ", tc.name, seed, nulls)
				}
				if g, w := strings.Join(one.Canonical(), "\n"), strings.Join(want.Canonical(), "\n"); g != w {
					t.Errorf("%s seed %d nulls %v: tagged Eqv. 5 differs from canonical\n--- got ---\n%s\n--- want ---\n%s\n%s",
						tc.name, seed, nulls, g, w, algebra.Explain(plan))
				}
			}
		}
	}
}
