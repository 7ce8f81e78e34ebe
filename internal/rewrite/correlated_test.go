package rewrite

import (
	"math/rand"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/physical"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/translate"
)

// The planner records at binding whether a node reads a correlated
// column (physical.Node.Correlated), which decides what the executor may
// reuse across outer bindings. It must agree with whether the operator
// the node implements has free columns (algebra.FreeColumns), for every
// node — nested blocks' too — of generated plans, canonical, unnested
// and OR-expanded.
func TestPlannerCorrelationMatchesAlgebra(t *testing.T) {
	cat := rstCatalog(t)
	g := &queryGen{rng: rand.New(rand.NewSource(46))}
	// Beside the generated queries, a block correlated only through the
	// block nested in it, which reads the outermost one's column.
	texts := []string{`SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s
		WHERE b1 = (SELECT COUNT(*) FROM t WHERE c2 = a2))`}
	for len(texts) < 300 {
		texts = append(texts, g.query())
	}
	correlated := 0
	for _, sql := range texts {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		canonical, err := translate.New(cat).Translate(stmt)
		if err != nil {
			t.Fatal(err)
		}
		plans := []algebra.Op{canonical}
		for _, caps := range []Caps{AllCaps(), {ORExpansion: true}} {
			plan, err := New(cat, caps).Rewrite(canonical)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, plan)
		}
		for _, plan := range plans {
			pl, err := physical.NewPlanner(stats.New(cat)).Plan(plan)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			roots := []physical.Node{pl.Root}
			for _, b := range algebra.WalkNested(plan, func(algebra.Op) {}) {
				n, _ := pl.BlockFor(b)
				roots = append(roots, n)
			}
			seen := map[physical.Node]bool{}
			var check func(n physical.Node)
			check = func(n physical.Node) {
				if seen[n] {
					return
				}
				seen[n] = true
				if want := len(algebra.FreeColumns(n.Logical())) > 0; n.Correlated() != want {
					t.Errorf("%s: node %s correlated = %v, want %v\n%s", sql, n.Label(), n.Correlated(), want, algebra.Explain(plan))
				} else if want {
					correlated++
				}
				for _, c := range n.Children() {
					check(c)
				}
			}
			for _, r := range roots {
				check(r)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
	if correlated == 0 {
		t.Error("no generated plan had a correlated node")
	}
}
