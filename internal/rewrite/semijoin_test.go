package rewrite

import (
	"strings"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/exec"
)

func countSemiAnti(plan algebra.Op) (semi, anti int) {
	algebra.Walk(plan, func(op algebra.Op) bool {
		switch op.(type) {
		case *algebra.SemiJoin:
			semi++
		case *algebra.AntiJoin:
			anti++
		}
		return true
	})
	return semi, anti
}

func TestConjunctiveExistsBecomesSemiJoin(t *testing.T) {
	cat := rstCatalog(t)
	cases := []struct {
		sql        string
		semi, anti int
	}{
		{`SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2)`, 1, 0},
		{`SELECT DISTINCT * FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2)`, 0, 1},
		{`SELECT DISTINCT * FROM r WHERE a2 IN (SELECT b2 FROM s WHERE b4 > 100)`, 1, 0},
		{`SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 1000) AND a4 > 100`, 1, 0},
	}
	for _, c := range cases {
		canonical, rewritten, _ := planFor(t, cat, c.sql, AllCaps())
		semi, anti := countSemiAnti(rewritten)
		if semi != c.semi || anti != c.anti {
			t.Errorf("%s: semi/anti = %d/%d, want %d/%d\n%s",
				c.sql, semi, anti, c.semi, c.anti, algebra.Explain(rewritten))
		}
		if algebra.ContainsSubquery(rewritten) {
			t.Errorf("%s: must be fully unnested", c.sql)
		}
		assertEquivalent(t, cat, canonical, rewritten, c.sql)
	}
}

func TestNotInStaysCountBased(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r WHERE a2 NOT IN (SELECT b2 FROM s)`
	canonical, rewritten, _ := planFor(t, cat, sql, AllCaps())
	if semi, anti := countSemiAnti(rewritten); semi != 0 || anti != 0 {
		t.Errorf("NOT IN must not use joins (NULL semantics): %d/%d", semi, anti)
	}
	assertEquivalent(t, cat, canonical, rewritten, sql)
}

func TestDisjunctiveExistsStaysCountBased(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 1500`
	canonical, rewritten, _ := planFor(t, cat, sql, AllCaps())
	if semi, anti := countSemiAnti(rewritten); semi != 0 || anti != 0 {
		t.Errorf("disjunctive EXISTS must go through the cascade: %d/%d", semi, anti)
	}
	if algebra.ContainsSubquery(rewritten) {
		t.Error("disjunctive EXISTS must still unnest (count form)")
	}
	assertEquivalent(t, cat, canonical, rewritten, sql)
}

// TestSemiJoinCapOff: the S2 baseline makes no semi-join; a conjunctive
// EXISTS keeps its count form, which Eqv. 1 unnests.
func TestSemiJoinCapOff(t *testing.T) {
	cat := rstCatalog(t)
	caps := Caps{ORExpansion: true}
	sql := `SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2)`
	canonical, rewritten, rw := planFor(t, cat, sql, caps)
	if semi, anti := countSemiAnti(rewritten); semi != 0 || anti != 0 {
		t.Error("S2 must keep the count form")
	}
	if !strings.Contains(strings.Join(rw.Trace, ";"), "COUNT") {
		t.Errorf("trace = %v", rw.Trace)
	}
	assertEquivalent(t, cat, canonical, rewritten, sql)
}

func TestUncorrelatedExistsUntouched(t *testing.T) {
	cat := rstCatalog(t)
	sql := `SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE b4 > 100)`
	canonical, rewritten, _ := planFor(t, cat, sql, AllCaps())
	if semi, _ := countSemiAnti(rewritten); semi != 0 {
		t.Error("uncorrelated EXISTS is type N; leave it materialized")
	}
	assertEquivalent(t, cat, canonical, rewritten, sql)
}

// benchCatalog builds a mid-sized RST instance for the ablation
// benchmarks below.
func benchCatalog(b *testing.B) *catalog.Catalog {
	b.Helper()
	cat := catalog.New()
	if err := datagen.LoadRST(cat, datagen.RSTConfig{SFR: 0.1, SFS: 0.1, SFT: 0.1}); err != nil {
		b.Fatal(err)
	}
	return cat
}

func benchExists(b *testing.B, caps Caps) {
	cat := benchCatalog(b)
	canonical, rewritten, _ := planFor(b, cat,
		`SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 1500)`, caps)
	_ = canonical
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := exec.New(cat, exec.Options{Cache: exec.CacheAll})
		if _, err := ex.Run(rewritten); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExistsSemiJoin vs BenchmarkExistsCountBased: the ablation for
// the semijoin path (DESIGN.md design choices).
func BenchmarkExistsSemiJoin(b *testing.B) { benchExists(b, AllCaps()) }

// BenchmarkExistsCountBased runs the S2 baseline's count form of the
// same conjunctive EXISTS.
func BenchmarkExistsCountBased(b *testing.B) { benchExists(b, Caps{ORExpansion: true}) }
