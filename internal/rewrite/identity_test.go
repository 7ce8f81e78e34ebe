package rewrite

import (
	"math/rand"
	"testing"

	"disqo/internal/algebra"
	"disqo/internal/sqlparser"
	"disqo/internal/testutil"
	"disqo/internal/translate"
)

// Identity tests: the rewriter returns what it was given wherever no
// rule fired, so a finished plan is a fixpoint by pointer, not merely by
// printout, and re-rewriting it builds nothing.

var s2Caps = Caps{Conjunctive: true, ORExpansion: true, Quantified: true}

// finishedShapes are the Fig. 2(a–d) / Fig. 3(a) plan shapes — Q1
// canonical, OR-expanded, unnested on statistics-free tables and on data
// whose ranks order the cascade the other way; Q2 canonical — plus Q2
// and Q2-distinct unnested (Eqv. 5), and the tree and linear goldens.
var finishedShapes = []struct {
	name   string
	loaded bool // rstCatalog's data rather than empty tables
	sql    string
	caps   Caps
}{
	{"fig2a-q1-canonical", false, q1, Caps{}},
	{"fig2b-q1-or-expanded", false, q1, s2Caps},
	{"fig2c-q1-unnested", false, q1, AllCaps()},
	{"fig2d-q1-unnested-ranked", true, q1, AllCaps()},
	{"fig3a-q2-canonical", false, q2, Caps{}},
	{"q2-eqv5", false, q2, AllCaps()},
	{"eqv5-q2-distinct", false, `SELECT DISTINCT * FROM r
		WHERE a1 = (SELECT COUNT(DISTINCT b1) FROM s WHERE a2 = b2 OR b4 > 1500)`, AllCaps()},
	{"fig5-q3-tree", false, q3, AllCaps()},
	{"fig6-q4-linear", false, q4, AllCaps()},
}

func TestRewriteIsIdempotentByPointer(t *testing.T) {
	for _, c := range finishedShapes {
		cat := emptyRST(t)
		if c.loaded {
			cat = rstCatalog(t)
		}
		_, plan, _ := planFor(t, cat, c.sql, c.caps)
		again, err := New(cat, c.caps).Rewrite(plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again != plan {
			t.Errorf("%s: re-rewriting a finished plan rebuilt it:\n%s", c.name, algebra.Explain(again))
		}
	}
}

func TestRewriteReturnsSubqueryFreePlanItself(t *testing.T) {
	canonical, rewritten, rw := planFor(t, emptyRST(t),
		`SELECT DISTINCT a1, a2 FROM r, s WHERE a2 = b2 AND (a4 > 1500 OR NOT (b4 > 7 AND a1 = 3))`, AllCaps())
	if rewritten != canonical {
		t.Errorf("no rule can fire without a subquery, yet the plan was rebuilt:\n%s", algebra.Explain(rewritten))
	}
	if len(rw.Trace) != 0 {
		t.Errorf("trace = %v", rw.Trace)
	}
}

func TestReordererReturnsRankOrderedPlanItself(t *testing.T) {
	cat := rstCatalog(t)
	// The cheap comparison already precedes the subquery, inside the
	// nested block as well: nothing is out of rank order.
	canonical, _, _ := planFor(t, cat, `SELECT DISTINCT * FROM r
		WHERE a4 > 1500 OR a1 = (SELECT COUNT(*) FROM s WHERE b4 > 1500 OR a2 = b2)`, Caps{})
	ro := NewReorderer(cat)
	out, err := ro.Rewrite(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Applied != 0 || out != canonical {
		t.Errorf("Applied = %d, same plan = %v; want an untouched plan back", ro.Applied, out == canonical)
	}
	// And the other way round it does reorder, sharing what it left alone.
	canonical, _, _ = planFor(t, cat, `SELECT DISTINCT * FROM r
		WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500`, Caps{})
	out, err = NewReorderer(cat).Rewrite(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if out == canonical || algebra.Explain(out) == algebra.Explain(canonical) {
		t.Errorf("subquery-first disjunction was not reordered:\n%s", algebra.Explain(out))
	}
}

// rewriteAgainAllocBudget bounds the allocations of re-rewriting one
// finished plan, averaged over generated statements. What remains is the
// Rewriter with its estimator and memo and the slices the read accessors
// (Inputs, Exprs, SplitConjuncts) return; no operator, expression or
// schema: 30 per statement on this sample. The budget is half of what
// the rebuilding rewriter this replaced spent on it (77).
const rewriteAgainAllocBudget = 38

func TestRewritingFinishedPlanAllocatesNoNode(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cat := rstCatalog(t)
	g := &queryGen{rng: rand.New(rand.NewSource(17))}
	var finished []algebra.Op
	for len(finished) < 200 {
		stmt, err := sqlparser.Parse(g.query())
		if err != nil {
			t.Fatal(err)
		}
		canonical, err := translate.New(cat).Translate(stmt)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := New(cat, AllCaps()).Rewrite(canonical)
		if err != nil {
			t.Fatal(err)
		}
		finished = append(finished, plan)
	}
	perPass := testing.AllocsPerRun(5, func() {
		for _, plan := range finished {
			again, err := New(cat, AllCaps()).Rewrite(plan)
			if err != nil || again != plan {
				t.Fatalf("finished plan rebuilt (err %v):\n%s", err, algebra.Explain(again))
			}
		}
	})
	if per := perPass / float64(len(finished)); per > rewriteAgainAllocBudget {
		t.Errorf("re-rewriting a finished plan allocates %.1f per statement, budget %d", per, rewriteAgainAllocBudget)
	}
}
