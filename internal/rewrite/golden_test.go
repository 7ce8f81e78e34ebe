package rewrite

import (
	"strings"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/types"
)

// Golden plan-shape tests: the EXPLAIN rendering of the unnested plans
// for the paper's Figures 2(c), 5(c) and 6(c), and for Q2 (Fig. 3) under
// Eqv. 5. These pin the exact operator structure (including DAG sharing
// markers); if a rewrite changes shape, the diff shows here first.

func golden(t *testing.T, sql, want string) {
	t.Helper()
	// Empty tables: golden shapes must be purely structural, independent
	// of the statistics-driven rank ordering (covered elsewhere).
	cat := emptyRST(t)
	_, rewritten, _ := planFor(t, cat, sql, AllCaps())
	got := strings.TrimSpace(algebra.Explain(rewritten))
	want = strings.TrimSpace(want)
	if got != want {
		t.Errorf("plan shape drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func emptyRST(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, spec := range []struct{ name, prefix string }{{"r", "a"}, {"s", "b"}, {"t", "c"}} {
		if _, err := cat.Create(spec.name, []catalog.Column{
			{Name: spec.prefix + "1", Type: types.KindInt},
			{Name: spec.prefix + "2", Type: types.KindInt},
			{Name: spec.prefix + "3", Type: types.KindInt},
			{Name: spec.prefix + "4", Type: types.KindInt},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestGoldenFig2cQ1(t *testing.T) {
	golden(t, q1, `
distinct
  Π[r.a1, r.a2, r.a3, r.a4]
    ∪̇
      +stream
        #1 σ±[(r.a4 > 1500)]
          scan(r)
      Π[r.a1, r.a2, r.a3, r.a4]
        σ[(r.a1 = g1)]
          Π[r.a1, r.a2, r.a3, r.a4, g1]
            ⟕[(r.a2 = s.b2)][g1:0]
              −stream
                ↑ see #1 σ±[(r.a4 > 1500)]
              Γ[[s.b2]][g1:COUNT(DISTINCT *)]
                scan(s)
`)
}

// Q2 under Eqv. 5. The paper's Fig. 3(b) is Eqv. 4's plan (σ± on s,
// Γ + ⟕ on its negative stream, χ recombining with fO), which is not
// built: a decomposable aggregate takes the same tagged Γ² as any other.
func TestGoldenQ2Eqv5(t *testing.T) {
	golden(t, q2, `
distinct
  Π[r.a1, r.a2, r.a3, r.a4]
    Π[r.a1, r.a2, r.a3, r.a4]
      σ[(r.a1 = g2)]
        Γ²[(r.a2 = s.b2) ∨ tag1][g2:COUNT(*)]
          scan(r)
          χ[tag1:(s.b4 > 1500)]
            scan(s)
`)
}

func TestGoldenFig5Q3(t *testing.T) {
	golden(t, q3, `
distinct
  Π[r.a1, r.a2, r.a3, r.a4]
    ∪̇
      Π[r.a1, r.a2, r.a3, r.a4]
        +stream
          #1 σ±[(r.a1 = g1)]
            Π[r.a1, r.a2, r.a3, r.a4, g1]
              ⟕[(r.a2 = s.b2)][g1:0]
                scan(r)
                Γ[[s.b2]][g1:COUNT(DISTINCT *)]
                  scan(s)
      Π[r.a1, r.a2, r.a3, r.a4]
        σ[(r.a3 = g2)]
          Π[r.a1, r.a2, r.a3, r.a4, g1, g2]
            ⟕[(r.a4 = t.c2)][g2:0]
              −stream
                ↑ see #1 σ±[(r.a1 = g1)]
              Γ[[t.c2]][g2:COUNT(DISTINCT *)]
                scan(t)
`)
}

func TestGoldenFig6Q4(t *testing.T) {
	golden(t, q4, `
distinct
  Π[r.a1, r.a2, r.a3, r.a4]
    Π[r.a1, r.a2, r.a3, r.a4]
      σ[(r.a1 = g2)]
        Γ²[(r.a2 = s.b2) ∨ tag1][g2:COUNT(DISTINCT *)]
          scan(r)
          Π[s.b1, s.b2, s.b3, s.b4, tag1]
            χ[tag1:(s.b3 = g3)]
              Π[s.b1, s.b2, s.b3, s.b4, g3]
                ⟕[(s.b4 = t.c2)][g3:0]
                  scan(s)
                  Γ[[t.c2]][g3:COUNT(DISTINCT *)]
                    scan(t)
`)
}

// The Q2 shape with a non-decomposable aggregate is Q2's own: the tag is
// a plain predicate over the inner block, one χ under one Γ².
func TestGoldenQ2DistinctEqv5(t *testing.T) {
	golden(t, `SELECT DISTINCT * FROM r
	           WHERE a1 = (SELECT COUNT(DISTINCT b1) FROM s WHERE a2 = b2 OR b4 > 1500)`, `
distinct
  Π[r.a1, r.a2, r.a3, r.a4]
    Π[r.a1, r.a2, r.a3, r.a4]
      σ[(r.a1 = g2)]
        Γ²[(r.a2 = s.b2) ∨ tag1][g2:COUNT(DISTINCT s.b1)]
          scan(r)
          χ[tag1:(s.b4 > 1500)]
            scan(s)
`)
}
